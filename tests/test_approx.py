"""Defect measurement, minor and polar constructions, and the bounds."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import approx, groups, homs, irreps
from quasirep.errors import (DimensionError, MissingIrrepTable, OddOrder, RankDeficient,
                             ToleranceViolation)
from quasirep.sampling import haar_basis


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


def test_minor_refuses_a_parent_that_breaks_its_guarantees(a5_table):
    # 1e-3 added to every (0, 1) entry keeps every trace, so the parent still
    # reads as irreducible; E rho = 0, so E psi' psi - 1 is (1e-3)^2 in its
    # (1, 1) entry alone
    rho = irrep_of_dim(a5_table, 3)
    mats = rho.matrices.copy()
    mats[:, 0, 1] += 1e-3
    bent = irreps.UnitaryRep(rho.group, mats)
    assert bent.is_irreducible
    with pytest.raises(ToleranceViolation,
                       match=r"^minor violates its guarantees: mean error 0\.000e\+00, "
                             r"admissibility residual 1\.000e-06$"):
        approx.minor_construction(bent, 3)


@pytest.mark.parametrize("count", [0, 4])
def test_haar_basis_refuses_a_count_out_of_range(count):
    with pytest.raises(ValueError, match=f"^need 1 <= count <= dim, got count={count} dim=3$"):
        haar_basis(np.random.default_rng(0), 3, count)


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
    """Inputs for all three of defect_direct's pair scans.

    Sign functions and the 1-dim irreps, whose values repeat bitwise, take
    the histogram scan. Faithful genuine irreps and irreps plus small noise,
    where the spectral defect would cancel, take the agreement certificate,
    and the full scan when the certificate fails; minors, polar minors, Haar
    baselines and perturbed irreps take the screened scan, perturbed irreps
    with most pairs surviving it.
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


def spy_scans(monkeypatch):
    """Record the name of each of defect_direct's scans, and of the agreement
    certificate, as it runs."""
    scans = []
    for name in ("_full_scan", "_screened_agreement", "_histogram_scan",
                 "_agreement_bound"):
        def traced(*args, _name=name, _scan=getattr(approx, name)):
            scans.append(_name)
            return _scan(*args)
        monkeypatch.setattr(approx, name, traced)
    return scans


SCAN_TOLERANCES = (1e-9, 1e-6, 1e-3, 0.5, 10.0)


@pytest.mark.parametrize("spec", [("symmetric", 3), ("quaternion8",), ("alternating", 4),
                                  ("alternating", 5)])
def test_pair_scan_matches_brute_force(spec, monkeypatch):
    g = groups.named(*spec)
    table = irreps.decompose(g)
    scans = spy_scans(monkeypatch)
    # the scan each input must take, which no tolerance changes. The
    # few-valued inputs take the histogram: sign functions (k = 2) and, in
    # these four groups, the 1-dim irreps (k <= 3, so k^3 <= n^2), while
    # every higher irrep is faithful (k = n) and is certified from its
    # generators. Irreps plus 1e-7 or 1e-5 noise are not certified at any
    # tolerance, however loose, and take the full scan. Many-valued
    # functions away from a representation, at d = 1 too, take the
    # screened scan
    top = max(r.dim for r in table)
    pinned = {"sign": ["_histogram_scan"], "perturbed f=0.1": ["_screened_agreement"]}
    pinned.update({f"genuine irrep {i}": ["_histogram_scan" if r.dim == 1
                                          else "_agreement_bound"]
                   for i, r in enumerate(table)})
    pinned.update({f"irrep + {eps} noise": ["_agreement_bound", "_full_scan"]
                   for eps in (1e-7, 1e-5)})
    pinned.update({f"haar d{d}": ["_screened_agreement"] for d in (1, 2, 3, 4)})
    if top > 2:
        pinned.update({f"{kind} minor {top - 1}": ["_screened_agreement"]
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
            if label in pinned:
                assert scans == pinned[label], (label, tol)
            assert report.agreement_prob == agreement, (label, tol)
            if scans == ["_agreement_bound"]:
                # certified: B is within 1e-9, so the defect reads 0 and the
                # true one is at most B^2 <= 1e-18
                assert report.defect == 0.0
                assert defect <= approx._agreement_bound(psi) ** 2 <= 1e-18, (label, tol)
            else:
                assert report.defect == pytest.approx(defect, rel=1e-7, abs=1e-24), (label, tol)
            if label.startswith("genuine"):
                assert agreement == 1.0
            elif label == "perturbed f=0.1" and tol == approx.AGREEMENT_TOL:
                assert 0.0 < agreement < 1.0
        assert report.triple_trace == pytest.approx(triple, abs=1e-12), label


def test_the_tolerance_floor_sits_above_roundoff_and_still_discriminates():
    # genuine irreps agree on every pair at the floor: those of dim >= 2 of
    # psl2(7), in their own basis and Haar-rotated as a sweep's d_psi =
    # d_rho rows are, psl2(11)'s 5-dim pair, and 2-dim irreps of dihedral
    # 350, whose Cayley tree is the deepest
    p7 = irreps.decompose(groups.named("psl2", 7))
    p11 = irreps.decompose(groups.named("psl2", 11))
    d350 = irreps.decompose(groups.named("dihedral", 350))
    genuine = [r for r in p7 if r.dim >= 2] + [r for r in p11 if r.dim == 5]
    genuine += [r for r in d350 if r.dim == 2][:8]
    inputs = [approx.MatrixFunction(r.group, r.dim, r.matrices) for r in genuine]
    inputs += [approx.minor_construction(r, r.dim, subspace="haar", seed=[0, r.dim])
               for r in p7 if r.dim >= 2]
    assert len(inputs) == 20
    for psi in inputs:
        assert approx._full_scan(psi, approx._TOL_FLOOR)[1] == 1.0, psi.dim
    # one matrix shifted by 1e-10 breaks the pairs through it
    rho = irrep_of_dim(p7, 3)
    mats = rho.matrices.copy()
    mats[1] += 1e-10
    shifted = approx.MatrixFunction(rho.group, 3, mats)
    assert approx._full_scan(shifted, approx._TOL_FLOOR)[1] < 1.0 - 2.0 / rho.group.order


CERTIFIED_GROUPS = [("alternating", 5), ("psl2", 7), ("sl2", 7), ("alternating", 6),
                    ("psl2", 11), ("dihedral", 350)]


@pytest.mark.parametrize("spec", CERTIFIED_GROUPS, ids=lambda spec: " ".join(map(str, spec)))
def test_the_certificate_agrees_with_the_full_scan(spec, monkeypatch):
    # every irrep of dim >= 2 of the ladder groups, and the first 8 of
    # dihedral 350, whose Cayley tree is the deepest (176 layers), in its
    # own basis and Haar-rotated as a sweep's d_psi = d_rho rows are: each
    # is certified at the default tolerance, and the full scan confirms
    # every pair agrees with a defect within B^2
    table = irreps.decompose(groups.named(*spec))
    genuine = [r for r in table if r.dim >= 2][:8]
    scans = spy_scans(monkeypatch)
    for i, rho in enumerate(genuine):
        for psi in (approx.MatrixFunction(rho.group, rho.dim, rho.matrices),
                    approx.minor_construction(rho, rho.dim, subspace="haar", seed=[7, i])):
            scans.clear()
            report = approx.defect_direct(psi, table)
            assert scans == ["_agreement_bound"], (i, rho.dim)
            bound = approx._agreement_bound(psi)
            defect, agreement = approx._full_scan(psi, approx.AGREEMENT_TOL)
            assert (report.agreement_prob, report.defect) == (agreement, 0.0) == (1.0, 0.0)
            assert 0.0 < bound <= 1e-10, (i, rho.dim)
            assert defect <= bound ** 2, (i, rho.dim)


def test_at_the_floor_dihedral_350_falls_back_to_the_full_scan(monkeypatch):
    # B grows with the depth of the Cayley tree: up to about 1e-10 at
    # dihedral 350's 176 layers, mostly above the 1e-11 floor, where the
    # full scan decides. Below B the certificate still stands
    table = irreps.decompose(groups.named("dihedral", 350))
    scans = spy_scans(monkeypatch)
    fallbacks = 0
    for rho in [r for r in table if r.dim == 2][:8]:
        psi = approx.MatrixFunction(rho.group, 2, rho.matrices)
        bound = approx._agreement_bound(psi)
        assert bound <= approx.AGREEMENT_TOL
        scans.clear()
        report = approx.defect_direct(psi, table, agreement_tol=approx._TOL_FLOOR)
        assert report.agreement_prob == 1.0
        if bound > approx._TOL_FLOOR:
            fallbacks += 1
            assert scans == ["_agreement_bound", "_full_scan"]
            assert 0.0 < report.defect <= bound ** 2
        else:
            assert scans == ["_agreement_bound"] and report.defect == 0.0
    assert fallbacks >= 5


def test_a_shifted_element_is_not_certified(a5_table, monkeypatch):
    # negative control: one matrix moved by 1e-6 breaks the pairs through it,
    # the certificate fails, and the full scan that follows counts them
    rho = irrep_of_dim(a5_table, 5)
    mats = rho.matrices.copy()
    mats[7] += 1e-6
    psi = approx.MatrixFunction(rho.group, 5, mats)
    assert approx._agreement_bound(psi) > approx.AGREEMENT_TOL
    scans = spy_scans(monkeypatch)
    with warnings.catch_warnings():
        # the shift also moves E psi' psi off the identity
        warnings.simplefilter("ignore", RuntimeWarning)
        report = approx.defect_direct(psi, a5_table)
    assert scans == ["_agreement_bound", "_full_scan"]
    defect, agreement = approx._full_scan(psi, approx.AGREEMENT_TOL)
    assert (report.defect, report.agreement_prob) == (defect, agreement)
    assert agreement < 1.0


def test_the_certificate_on_the_trivial_group():
    # no generators and one tree layer fewer than any other group: B is
    # c ||psi(e) - 1||_F, the roundoff margin alone at psi(e) = 1
    g = groups.named("cyclic", 1)
    assert g.generators == ()
    one = approx.MatrixFunction(g, 1, np.ones((1, 1, 1)))
    assert 0.0 < approx._agreement_bound(one) <= 1e-14
    two = approx.MatrixFunction(g, 1, np.full((1, 1, 1), 2.0))
    assert approx._agreement_bound(two) >= 1.0


def test_an_ill_conditioned_representation_overflows_the_bound(monkeypatch):
    # a genuine representation in a basis of condition number 100: the
    # spectral defect cancels, c is about 100 and c^177 overflows, so B is
    # inf, without a warning, and the full scan finds every pair agreeing
    table = irreps.decompose(groups.named("dihedral", 350))
    rho = irrep_of_dim(table, 2)
    a = np.diag([100.0, 1.0])
    psi = approx.MatrixFunction(rho.group, 2, a @ rho.matrices @ np.linalg.inv(a))
    assert approx._agreement_bound(psi) == np.inf
    scans = spy_scans(monkeypatch)
    with warnings.catch_warnings():
        # psi is far from admissible; the bound itself must not warn
        warnings.filterwarnings("ignore", "psi is not admissible", RuntimeWarning)
        report = approx.defect_direct(psi, table)
    assert scans == ["_agreement_bound", "_full_scan"]
    assert report.agreement_prob == 1.0


@pytest.mark.parametrize("tol", [0.0, 1e-12])
def test_tolerances_below_the_floor_are_refused(a5_table, tol):
    psi = approx.random_sign_function(a5_table.group, seed=1)
    with pytest.raises(ValueError, match="at least 1e-11"):
        approx.defect_direct(psi, a5_table, agreement_tol=tol)
    assert approx.defect_direct(psi, a5_table, agreement_tol=1e-11).agreement_prob > 0.0


def few_valued_cases(a6_table):
    """(label, psi, table) for functions that take k^3 <= n^2 distinct matrices."""
    s3_table = irreps.decompose(groups.named("symmetric", 3))
    sigma = irrep_of_dim(s3_table, 2)
    p11_table = irreps.decompose(groups.named("psl2", 11))
    s4_table = irreps.decompose(groups.named("symmetric", 4))
    # S4's 2-dim irrep factors through S3, but the decomposition's matrices
    # differ by roundoff within a coset of its kernel: give each coset the
    # matrix of its first member, so that it takes exactly k = 6 values
    rho = irrep_of_dim(s4_table, 2)
    _, first, coset = np.unique(np.round(rho.matrices, 6).reshape(24, -1), axis=0,
                                return_index=True, return_inverse=True)
    assert len(first) == 6
    kernel_constant = approx.MatrixFunction(rho.group, 2, rho.matrices[first[coset.ravel()]])
    return [
        ("A6 sign", approx.random_sign_function(a6_table.group, seed=1), a6_table),
        ("psl2(11) sign", approx.random_sign_function(p11_table.group, seed=2), p11_table),
        ("A6 -> S3 lift", homs.lift_through_irrep(
            homs.balanced_random_map(a6_table.group, sigma.group, seed=3), sigma), a6_table),
        ("psl2(11) -> S3 lift", homs.lift_through_irrep(
            homs.random_map(p11_table.group, sigma.group, seed=4), sigma), p11_table),
        ("S4 2-dim irrep, k = 6", kernel_constant, s4_table),
    ]


def test_histogram_scan_matches_the_full_scan(monkeypatch, a6_table):
    scans = spy_scans(monkeypatch)
    for label, psi, table in few_valued_cases(a6_table):
        for tol in (approx.AGREEMENT_TOL, 0.5):
            scans.clear()
            report = approx.defect_direct(psi, table, agreement_tol=tol)
            assert scans == ["_histogram_scan"], (label, tol)
            defect, agreement = approx._full_scan(psi, tol)
            assert report.agreement_prob == agreement, (label, tol)
            assert report.defect == pytest.approx(defect, abs=1e-12), (label, tol)
            assert report.normalized_defect == report.defect / (2 * psi.dim)


def test_histogram_cutoff_is_k_cubed_at_most_n_squared(monkeypatch, a6_table):
    # n = 360: 50^3 = 125000 <= 360^2 = 129600 < 51^3; every value is
    # unitary, so psi stays admissible
    scans = spy_scans(monkeypatch)
    a6, table = a6_table.group, a6_table
    values = approx.haar_baseline(a6, 2, seed=5).matrices
    for k, route in ((50, "_histogram_scan"), (51, "_screened_agreement")):
        psi = approx.MatrixFunction(a6, 2, values[np.arange(a6.order) % k])
        scans.clear()
        report = approx.defect_direct(psi, table, agreement_tol=0.5)
        assert scans == [route], k
        assert report.agreement_prob == approx._full_scan(psi, 0.5)[1], k
    # labels come from a projection of the bits; when it merges distinct
    # matrices the bitwise check refuses them and the other scans run
    monkeypatch.setattr(approx, "_BIT_MIX", np.uint64(0))
    sign = approx.random_sign_function(a6, seed=1)
    scans.clear()
    report = approx.defect_direct(sign, table)
    assert scans == ["_screened_agreement"]
    assert report.agreement_prob == approx._full_scan(sign, approx.AGREEMENT_TOL)[1]


@pytest.mark.parametrize("spec,dim", [(("alternating", 6), 8), (("psl2", 11), 5)])
def test_multi_chunk_scans_match_a_row_reference(spec, dim):
    # both scans take several blocks, so their block loops and offsets meet
    # the reference: full-scan blocks of 1 column (A6, d = 7 and 8;
    # psl2(11), d = 5) or 3 columns (psl2(11), d = 4), fingerprint blocks of
    # 91 (A6) and 49 rows (psl2(11))
    g = groups.named(*spec)
    rho = irrep_of_dim(irreps.decompose(g), dim)
    t, n2 = g.table, g.order ** 2
    columns = {"alternating": (1, 1), "psl2": (1, 3)}[spec[0]]
    assert tuple(irreps._block_rows(g.order * d * d) for d in (dim, dim - 1)) == columns
    assert irreps._block_rows(g.order) < g.order
    # every pair of the genuine irrep survives the screen, so one chunk's
    # survivors take several blocks of _product_residuals
    assert irreps._block_rows(g.order) * g.order > irreps._block_rows(dim * dim)
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


@pytest.mark.parametrize("spec", [("alternating", 5), ("alternating", 6)])
def test_complement_polar_matches_the_svd(spec, monkeypatch):
    table = irreps.decompose(groups.named(*spec))
    routes = []
    complement = approx._complement_polar
    monkeypatch.setattr(approx, "_complement_polar",
                        lambda *args: routes.append(args[2].shape) or complement(*args))
    for ri, rho in enumerate(table):
        for d_psi in range(1, rho.dim + 1):
            for seed in range(3):
                routes.clear()
                psi = approx.polar_construction(rho, d_psi, seed=[seed, ri])
                # the complement is the narrower side exactly when r < d_psi
                assert len(routes) == (rho.dim - d_psi < d_psi), (ri, d_psi)
                svd = approx.polar_unitary(psi.parent_minor.matrices)
                assert np.abs(psi.matrices - svd).max() <= 1e-11, (ri, d_psi, seed)


def test_thin_elements_fall_back_to_the_svd(monkeypatch):
    # the minor that `sweep --group psl2 11 --construction polar --rho-dim 12
    # --dpsi 11` draws for irrep 7 at seed 0 has one element with
    # sigma_min = 1.0e-5, where the complement formula loses digits
    rho = irreps.decompose(groups.named("psl2", 11)).irreps[7]
    assert rho.dim == 12
    minor, basis = approx._minor(rho, 11, "haar", [0, 7, 11, 0])
    sigma = np.linalg.svd(minor.matrices, compute_uv=False)[:, -1] / math.sqrt(12 / 11)
    thin = np.flatnonzero(sigma < 1e-3)
    assert len(thin) == 1 and 5e-6 < sigma[thin[0]] < 2e-5
    served = []
    svd = approx.polar_unitary
    monkeypatch.setattr(approx, "polar_unitary",
                        lambda m: served.append(len(m)) or svd(m))
    mats = approx._complement_polar(rho, minor, basis)
    assert served == [1]
    reference = svd(minor.matrices)
    assert np.array_equal(mats[thin], reference[thin])
    assert np.abs(mats - reference).max() <= 1e-11


def test_complement_polar_rejects_and_retries(monkeypatch, a6_table):
    rho = irrep_of_dim(a6_table, 10)

    def smallest(seed, attempt):
        minor = approx.minor_construction(rho, 9, subspace="haar", seed=[seed, attempt])
        return np.linalg.svd(minor.matrices, compute_uv=False).min()

    # a seed whose first minor is thinner than its second: a singular-value
    # floor between the two rejects the first draw and accepts the second
    seed = next(s for s in range(20) if smallest(s, 0) < smallest(s, 1))
    monkeypatch.setattr(approx, "_MIN_SINGULAR", (smallest(seed, 0) + smallest(seed, 1)) / 2)
    psi = approx.polar_construction(rho, 9, seed=seed)
    retry = approx.minor_construction(rho, 9, subspace="haar", seed=[seed, 1])
    assert np.array_equal(psi.parent_minor.matrices, retry.matrices)
    assert np.abs(psi.matrices - approx.polar_unitary(retry.matrices)).max() <= 1e-11
    monkeypatch.setattr(approx, "_MIN_SINGULAR", 2.0)
    with pytest.raises(RankDeficient, match="over 8 seeds"):
        approx.polar_construction(rho, 9, seed=seed)


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
