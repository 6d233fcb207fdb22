"""Defect measurement, minor and polar constructions, and the bounds."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import approx, groups, irreps
from quasirep.errors import DimensionError, MissingIrrepTable, OddOrder, RankDeficient


def irrep_of_dim(table, dim):
    return next(r for r in table if r.dim == dim)


def test_genuine_irrep_has_zero_defect(a5_table):
    rho = irrep_of_dim(a5_table, 3)
    psi = approx.MatrixFunction(rho.group, rho.dim, rho.matrices)
    report = approx.defect_direct(psi, a5_table)
    assert report.defect < 1e-12
    assert report.agreement_prob == 1.0
    assert report.mean_opnorm < 1e-10
    assert report.thm1_bound == 0.0


@pytest.mark.parametrize("subspace", ["leading", "haar"])
@pytest.mark.parametrize("parent_dim,d_psi",
                         [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)])
def test_minor_defect_matches_closed_form(a5_table, parent_dim, d_psi, subspace):
    rho = irrep_of_dim(a5_table, parent_dim)
    psi = approx.minor_construction(rho, d_psi, subspace=subspace, seed=5)
    report = approx.defect_direct(psi, a5_table)
    expected = approx.thm4_defect(d_psi, parent_dim)
    assert report.defect == pytest.approx(expected, abs=1e-10)
    assert report.normalized_defect == pytest.approx(expected / (2 * d_psi), abs=1e-10)


def test_minor_spot_value(a5_table):
    psi = approx.minor_construction(irrep_of_dim(a5_table, 5), 3)
    report = approx.defect_direct(psi, a5_table)
    assert report.defect == pytest.approx(1.3524199845510998, abs=1e-9)
    assert approx.thm4_defect(3, 5) == pytest.approx(6.0 * (1.0 - math.sqrt(0.6)))


def test_minor_mean_and_admissibility(a5_table):
    psi = approx.minor_construction(irrep_of_dim(a5_table, 4), 2)
    assert psi.admissibility_residual() <= 1e-8
    assert float(np.linalg.norm(psi.mean())) < 1e-10
    trivial = approx.minor_construction(a5_table.irreps[0], 1)
    assert np.allclose(trivial.matrices, 1.0)


def test_minor_rejects_bad_dimensions(a5_table, s3_reducible):
    rho = irrep_of_dim(a5_table, 3)
    with pytest.raises(DimensionError):
        approx.minor_construction(rho, 0)
    with pytest.raises(DimensionError):
        approx.minor_construction(rho, 4)
    with pytest.raises(ValueError):
        approx.minor_construction(rho, 2, subspace="haar")  # seed required
    with pytest.raises(ValueError):
        approx.minor_construction(rho, 2, subspace="diagonal")
    with pytest.raises(ValueError):
        approx.minor_construction(s3_reducible, 2)


def test_direct_matches_fourier(s3, s3_table, a5_table):
    inputs = [
        (approx.haar_baseline(s3, 3, seed=2), s3_table),
        (approx.random_sign_function(s3, seed=3), s3_table),
        (approx.minor_construction(irrep_of_dim(a5_table, 4), 2,
                                   subspace="haar", seed=4), a5_table),
        (approx.polar_construction(irrep_of_dim(a5_table, 4), 2, seed=5), a5_table),
    ]
    for psi, table in inputs:
        direct = approx.defect_direct(psi, table)
        spectral = approx.defect_via_fourier(psi, table)
        scale = max(1.0, direct.defect)
        assert abs(direct.defect - spectral.defect) <= 1e-7 * scale
        # the defect is the only number with two routes; the rest is shared
        for name in ("triple_trace", "mean_opnorm", "thm1_bound", "cor1_bound",
                     "admissibility_residual"):
            assert getattr(direct, name) == getattr(spectral, name), name


def brute_force_pairs(psi):
    """Per-pair ||psi(xy) - psi(x) psi(y)||_F^2 and the triple trace, by a double loop."""
    m, t, n = psi.matrices, psi.group.table, psi.group.order
    sq = np.empty((n, n))
    triple = 0j
    for x in range(n):
        for y in range(n):
            prod = m[x] @ m[y]
            sq[x, y] = float(np.linalg.norm(m[t[x, y]] - prod) ** 2)
            triple += np.trace(m[t[x, y]].conj().T @ prod)
    return sq, triple / n**2


def scan_cases(g, table):
    """Inputs for both of defect_direct's pair scans.

    Genuine irreps and irreps plus small noise take the full scan (the
    spectral defect would cancel), and so does d = 1; minors, polar minors,
    Haar baselines and perturbed irreps take the screened scan, perturbed
    irreps with most pairs surviving it.
    """
    rho = max(table, key=lambda r: r.dim)
    rng = np.random.default_rng(0)
    cases = [(f"genuine irrep {i}", approx.MatrixFunction(g, r.dim, r.matrices))
             for i, r in enumerate(table)]
    cases += [(f"perturbed f={f}", approx.perturbed_irrep(rho, f, seed=1))
              for f in (0.1, 0.25, 0.5)]
    for d_psi in range(1, rho.dim + 1):
        cases.append((f"haar minor {d_psi}", approx.minor_construction(
            rho, d_psi, subspace="haar", seed=[3, d_psi])))
        cases.append((f"polar minor {d_psi}",
                      approx.polar_construction(rho, d_psi, seed=[4, d_psi])))
    cases.append(("sign", approx.random_sign_function(g, seed=2)))
    for eps in (1e-12, 1e-9, 1e-7, 1e-5):
        noise = rng.standard_normal(rho.matrices.shape) + 1j * rng.standard_normal(
            rho.matrices.shape)
        cases.append((f"irrep + {eps} noise",
                      approx.MatrixFunction(g, rho.dim, rho.matrices + eps * noise)))
    cases += [(f"haar d{d}", approx.haar_baseline(g, d, seed=d)) for d in (1, 2, 3, 4)]
    return cases


SCAN_TOLERANCES = (0.0, 1e-9, 1e-6, 1e-3, 0.5, 10.0)


@pytest.mark.parametrize("spec", [("symmetric", 3), ("quaternion8",), ("alternating", 4),
                                  ("alternating", 5)])
def test_pair_scan_matches_brute_force(spec, monkeypatch):
    g = groups.named(*spec)
    table = irreps.decompose(g)
    honest = approx._full_scan
    scans = []

    def spy(name):
        scan = getattr(approx, name)

        def traced(psi, agreement_tol):
            scans.append(name)
            return scan(psi, agreement_tol)
        return traced

    for name in ("_full_scan", "_screened_agreement"):
        monkeypatch.setattr(approx, name, spy(name))
    # the scan each input must take at the default tolerance; every input
    # takes the full scan at tolerance 0
    top = max(r.dim for r in table)
    pinned = {"sign": "_full_scan", "perturbed f=0.1": "_screened_agreement"}
    pinned.update({f"genuine irrep {i}": "_full_scan" for i in range(len(table))})
    pinned.update({f"haar d{d}": "_screened_agreement" for d in (2, 3, 4)})
    if top > 2:
        pinned.update({f"{kind} minor {top - 1}": "_screened_agreement"
                       for kind in ("haar", "polar")})
    n2 = g.order ** 2
    for label, psi in scan_cases(g, table):
        sq, triple = brute_force_pairs(psi)
        defect = float(sq.sum()) / n2
        for tol in SCAN_TOLERANCES:
            with warnings.catch_warnings():
                # irreps plus noise are not admissible
                warnings.simplefilter("ignore", RuntimeWarning)
                scans.clear()
                report = approx.defect_direct(psi, table, agreement_tol=tol)
            agreement = int((sq <= tol * tol).sum()) / n2
            if tol == 0.0:
                assert scans == ["_full_scan"], label
                # bitwise equality depends on the arithmetic path (the double
                # loop and the scan's GEMM differ on genuine irreps of S3), so
                # tolerance 0 must keep the full scan's
                assert report.agreement_prob == honest(psi, tol)[1], label
            else:
                if tol == approx.AGREEMENT_TOL and label in pinned:
                    assert scans == [pinned[label]], label
                assert report.agreement_prob == agreement, (label, tol)
            assert report.defect == pytest.approx(defect, rel=1e-7, abs=1e-24), (label, tol)
            if label.startswith("genuine"):
                assert agreement == 1.0 or tol == 0.0
            elif label == "perturbed f=0.1" and tol == approx.AGREEMENT_TOL:
                assert 0.0 < agreement < 1.0
        assert report.triple_trace == pytest.approx(triple, abs=1e-12), label


@pytest.mark.parametrize("spec,dim", [(("alternating", 6), 8), (("psl2", 7), 6)])
def test_multi_chunk_scans_match_a_row_reference(spec, dim):
    # chunks of 11 rows (A6, d = 8) and 43 rows (psl2(7), d = 6), so both
    # scans' chunk loops and row offsets meet the reference
    g = groups.named(*spec)
    rho = irrep_of_dim(irreps.decompose(g), dim)
    t, n2 = g.table, g.order ** 2
    assert approx._chunk_rows(g.order, dim - 1) < g.order
    inputs = [approx.MatrixFunction(g, dim, rho.matrices),
              approx.perturbed_irrep(rho, 0.1, seed=1),
              approx.polar_construction(rho, dim - 1, seed=2)]
    for psi in inputs:
        m = psi.matrices
        sq = np.array([(np.abs(m[t[x]] - m[x] @ m) ** 2).sum(axis=(1, 2))
                       for x in range(g.order)])
        for tol in (approx.AGREEMENT_TOL, 0.5):
            agreement = int((sq <= tol * tol).sum()) / n2
            defect, full = approx._full_scan(psi, tol)
            assert full == agreement, (psi.dim, tol)
            assert approx._screened_agreement(psi, tol) == agreement, (psi.dim, tol)
            # the genuine irrep's defect is roundoff, hence the absolute floor
            assert defect == pytest.approx(float(sq.sum()) / n2, rel=1e-9, abs=1e-24)


def test_screen_vectors_do_not_change_the_report(monkeypatch, a5_table):
    rho = irrep_of_dim(a5_table, 5)
    inputs = [approx.polar_construction(rho, 4, seed=1),
              approx.minor_construction(rho, 2, subspace="haar", seed=2),
              approx.perturbed_irrep(rho, 0.1, seed=3),
              approx.haar_baseline(a5_table.group, 3, seed=4)]
    tolerances = (approx.AGREEMENT_TOL, 0.5, 2.0)
    reports = [approx.defect_direct(psi, a5_table, tol) for psi in inputs for tol in tolerances]
    for seed in (1, 2, 3):
        monkeypatch.setattr(approx, "_SCREEN_SEED", seed)
        assert reports == [approx.defect_direct(psi, a5_table, tol)
                           for psi in inputs for tol in tolerances]


def test_spectral_route_skips_the_pair_scan(monkeypatch, a5_table):
    def refuse(*args):
        raise AssertionError("defect_via_fourier ran the pair scan")

    psi = approx.minor_construction(irrep_of_dim(a5_table, 5), 3)
    monkeypatch.setattr(approx, "_full_scan", refuse)
    monkeypatch.setattr(approx, "_screened_agreement", refuse)
    report = approx.defect_via_fourier(psi, a5_table)
    assert report.agreement_prob is None
    assert report.defect == pytest.approx(approx.thm4_defect(3, 5), abs=1e-10)


def test_report_bounds_are_consistent(a5, a5_table):
    psi = approx.random_admissible(a5, 2, seed=9)
    report = approx.defect_direct(psi, a5_table)
    m = report.mean_opnorm
    root = math.sqrt(psi.dim / a5_table.d_min)
    assert report.thm1_bound == pytest.approx(
        max(0.0, 2 * psi.dim * (1 - m**3 - root)))
    assert report.cor1_bound == pytest.approx(min(1.0, 0.5 * (1 + m**3 + root)))
    assert report.normalized_defect == pytest.approx(report.defect / (2 * psi.dim))


def test_pointwise_unitary_defect_identity(s3, s3_table):
    # for pointwise-unitary psi both squared-norm moments equal d, so the
    # defect collapses to 2d - 2 Re E tr psi(xy)' psi(x) psi(y)
    psi = approx.haar_baseline(s3, 2, seed=12)
    report = approx.defect_direct(psi, s3_table)
    assert report.defect == pytest.approx(
        2 * psi.dim - 2 * report.triple_trace.real, abs=1e-10)


def test_polar_unitary_factor():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = approx.polar_unitary(a)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
    # the remaining factor u' a must be the positive-semidefinite part
    p = u.conj().T @ a
    assert np.allclose(p, p.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh((p + p.conj().T) / 2).min() > -1e-12


def test_polar_unitary_rejects_singular():
    with pytest.raises(RankDeficient):
        approx.polar_unitary(np.diag([1.0, 1.0, 0.0]).astype(complex))


def test_polar_construction(a5_table):
    psi = approx.polar_construction(irrep_of_dim(a5_table, 4), 2, seed=6)
    gram = np.einsum("xba,xbc->xac", psi.matrices.conj(), psi.matrices)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10
    assert isinstance(psi.parent_minor, approx.MatrixFunction)
    diff = psi.parent_minor.matrices - psi.matrices
    manual = float(np.mean(np.einsum("xab,xab->x", diff, diff.conj()).real))
    assert approx.polar_residual(psi) == pytest.approx(manual)


def test_sign_function_balanced(a6):
    psi = approx.random_sign_function(a6, seed=1)
    assert psi.dim == 1
    values = psi.matrices[:, 0, 0].real
    assert set(np.unique(values)) == {-1.0, 1.0}
    assert values.sum() == 0.0
    with pytest.raises(OddOrder):
        approx.random_sign_function(groups.named("cyclic", 5), seed=1)


def test_haar_baseline_admissible(s3):
    psi = approx.haar_baseline(s3, 3, seed=8)
    assert psi.admissibility_residual() <= 1e-8
    gram = np.einsum("xba,xbc->xac", psi.matrices.conj(), psi.matrices)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_perturbed_irrep(a5_table):
    rho = irrep_of_dim(a5_table, 3)
    unchanged = approx.perturbed_irrep(rho, 0.0, seed=4)
    assert np.array_equal(unchanged.matrices, rho.matrices)
    noisy = approx.perturbed_irrep(rho, 0.5, seed=4)
    assert not np.allclose(noisy.matrices, rho.matrices)
    assert noisy.admissibility_residual() <= 1e-8  # replacements are still unitary
    with pytest.raises(ValueError):
        approx.perturbed_irrep(rho, 1.5, seed=4)


def test_matrix_function_shape_check(s3):
    with pytest.raises(ValueError):
        approx.MatrixFunction(s3, 1, np.ones(5))
    with pytest.raises(ValueError):
        approx.MatrixFunction(s3, 2, np.ones((s3.order, 1, 1)))


def test_inadmissible_input_warns(s3, s3_table):
    psi = approx.MatrixFunction(s3, 1, np.full((6, 1, 1), 2.0 + 0.0j))
    for route in (approx.defect_direct, approx.defect_via_fourier):
        with pytest.warns(RuntimeWarning) as record:
            route(psi, s3_table)
        # one warning per call, attributed to the caller's line
        assert len(record) == 1, route.__name__
        assert record[0].filename == __file__, route.__name__


def test_missing_or_mismatched_table(s3, s3_table, a5_table):
    psi = approx.random_sign_function(s3, seed=2)
    with pytest.raises(MissingIrrepTable):
        approx.defect_direct(psi, None)
    with pytest.raises(ValueError):
        approx.defect_direct(psi, a5_table)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), dim=st.integers(1, 3))
def test_random_admissible_is_admissible(s3, seed, dim):
    psi = approx.random_admissible(s3, dim, seed)
    assert psi.admissibility_residual() < 1e-9


def test_thresholds():
    assert approx.thm5_normalized_bound(0.9) == pytest.approx(
        4 * (1 - math.sqrt(0.9)) + 0.6)
    assert approx.thm5_bound(9, 0.9) == pytest.approx(
        18 * approx.thm5_normalized_bound(0.9))
    r = approx.beating_random_threshold()
    assert r == pytest.approx(0.8760252104595657, abs=1e-12)
    assert 4 * (1 - math.sqrt(r)) + 6 * (1 - r) == pytest.approx(1.0, abs=1e-12)
