"""Decomposition into unitary irreducibles and the checks on the result."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import groups, irreps
from quasirep.errors import (DecompositionFailed, OrderCapExceeded,
                             ToleranceViolation)


def class_by_size(group, size):
    """Index of the unique conjugacy class with the given size."""
    hits = [i for i, c in enumerate(group.classes) if len(c) == size]
    assert len(hits) == 1
    return hits[0]


def test_decompose_order_cap():
    big = groups.product(groups.named("cyclic", 27), groups.named("cyclic", 27))
    with pytest.raises(OrderCapExceeded):
        irreps.decompose(big)


def test_s3_table(s3, s3_table):
    assert s3_table.dims == (1, 1, 2)
    assert s3_table.irreps[0].is_trivial()
    assert s3_table.d_min == 1  # the sign representation
    swaps = class_by_size(s3, 3)
    cycles = class_by_size(s3, 2)
    sign = s3_table.irreps[1]
    assert sign.character[swaps] == pytest.approx(-1.0)
    assert sign.character[cycles] == pytest.approx(1.0)
    std = s3_table.irreps[2]
    assert std.character[0] == pytest.approx(2.0)
    assert std.character[swaps] == pytest.approx(0.0)
    assert std.character[cycles] == pytest.approx(-1.0)


def test_cyclic_twelve_all_linear():
    table = irreps.decompose(groups.named("cyclic", 12))
    assert table.dims == (1,) * 12
    assert table.d_min == 1


def test_quaternion_table(q8_table):
    assert q8_table.dims == (1, 1, 1, 1, 2)
    assert irreps.frobenius_schur(q8_table.irreps[4]) == -1


def test_frobenius_schur_values(a5_table):
    # A5 is totally orthogonal
    assert [irreps.frobenius_schur(r) for r in a5_table] == [1, 1, 1, 1, 1]
    z3 = irreps.decompose(groups.named("cyclic", 3))
    indicators = sorted(irreps.frobenius_schur(r) for r in z3)
    assert indicators == [0, 0, 1]


def test_frobenius_schur_rejects_reducible(s3_reducible):
    s3_reducible.validate()
    assert not s3_reducible.is_irreducible
    with pytest.raises(ValueError):
        irreps.frobenius_schur(s3_reducible)


def test_a5_dimensions(a5_table):
    assert sorted(a5_table.dims) == [1, 3, 3, 4, 5]
    assert a5_table.dims[0] == 1
    assert a5_table.d_min == 3


def test_a6_dimensions(a6_table):
    assert sorted(a6_table.dims) == [1, 5, 5, 8, 8, 9, 10]
    assert a6_table.d_min == 5


def test_character_rows_orthonormal(a5, a5_table):
    sizes = np.array([len(c) for c in a5.classes], dtype=float)
    chars = a5_table.character_table
    gram = (chars * sizes) @ chars.conj().T / a5.order
    assert np.max(np.abs(gram - np.eye(len(chars)))) < 1e-10


def test_sum_of_squared_dims(a6, a6_table):
    assert sum(d * d for d in a6_table.dims) == a6.order
    assert len(a6_table) == len(a6.classes)


def test_seed_independence(s3):
    t0 = irreps.decompose(s3, seed=0)
    t1 = irreps.decompose(s3, seed=1)
    assert t0.dims == t1.dims
    assert np.max(np.abs(t0.character_table - t1.character_table)) < 1e-10


def assert_same_table(table, ref):
    assert table.dims == ref.dims
    assert np.max(np.abs(table.character_table - ref.character_table)) < 1e-10


@pytest.mark.parametrize("spec,eigengap", [
    (("alternating", 5), 0.3),
    (("cyclic", 12), 0.3),
    (("quaternion8",), 0.3),
    (("alternating", 6), 0.05),
])
def test_coarse_clusters_are_refined(monkeypatch, spec, eigengap):
    # a wide merge width puts several irreducible pieces in one cluster, so
    # the refine step must split them with compressed probes
    g = groups.named(*spec)
    ref = irreps.decompose(g)
    compressed = []
    split = irreps._split

    def recording(group, left, rng, basis=None):
        compressed.append(basis is not None)
        return split(group, left, rng, basis)

    monkeypatch.setattr(irreps, "_split", recording)
    monkeypatch.setattr(irreps, "_EIGENGAP", eigengap)
    assert_same_table(irreps.decompose(g), ref)
    assert any(compressed)


SMALL_GROUPS = [("symmetric", 3), ("quaternion8",), ("dihedral", 4),
                ("alternating", 4), ("cyclic", 5)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.integers(min_value=0, max_value=2**32 - 1))
def test_decomposition_is_seed_independent(spec, seed):
    g = groups.named(*spec)
    assert_same_table(irreps.decompose(g, seed=seed), irreps.decompose(g))


SMALL_FACTORS = st.one_of(
    st.sampled_from(SMALL_GROUPS),
    st.builds(lambda n: ("cyclic", n), st.integers(min_value=1, max_value=12)),
    st.builds(lambda n: ("dihedral", n), st.integers(min_value=1, max_value=6)))


@settings(max_examples=15, deadline=None)
@given(SMALL_FACTORS, SMALL_FACTORS, st.integers(min_value=0, max_value=2**32 - 1))
def test_direct_product_irreps_are_tensor_products(spec1, spec2, seed):
    # the irreps of G1 x G2 are the rho1 (x) rho2: dims multiply, indicators
    # multiply and characters are Kronecker products on elements (the product
    # indexes (a1, a2) as a1 |G2| + a2)
    g1, g2 = groups.named(*spec1), groups.named(*spec2)
    t1, t2 = irreps.decompose(g1), irreps.decompose(g2)
    table = irreps.decompose(groups.product(g1, g2), seed=seed)
    assert len(table) == len(t1) * len(t2)
    rows = np.array([r.character_on_elements() for r in table])
    unmatched = set(range(len(table)))
    for r1 in t1:
        for r2 in t2:
            want = np.kron(r1.character_on_elements(), r2.character_on_elements())
            hits = [i for i in unmatched if np.max(np.abs(rows[i] - want)) <= 1e-8]
            assert len(hits) == 1
            rep = table.irreps[hits[0]]
            unmatched.discard(hits[0])
            assert rep.dim == r1.dim * r2.dim
            assert (irreps.frobenius_schur(rep)
                    == irreps.frobenius_schur(r1) * irreps.frobenius_schur(r2))
    assert not unmatched


@pytest.mark.parametrize("spec", [("alternating", 5), ("quaternion8",), ("cyclic", 6)])
def test_non_invariant_piece_is_rejected(monkeypatch, spec):
    # the first probe of every attempt cuts its first wide cluster in two;
    # half of a probe eigenspace is not invariant, no compressed probe splits
    # it into irreducible pieces, so no table may come back
    g = groups.named(*spec)
    cut = irreps._cluster_slices

    def cutting(eigenvalues, width):
        slices = cut(eigenvalues, width)
        if len(eigenvalues) == g.order:
            i = next(i for i, sl in enumerate(slices) if sl.stop - sl.start > 1)
            a, b = slices[i].start, slices[i].stop
            slices[i:i + 1] = [slice(a, a + 1), slice(a + 1, b)]
        return slices

    monkeypatch.setattr(irreps, "_cluster_slices", cutting)
    with pytest.raises((ToleranceViolation, DecompositionFailed)):
        irreps.decompose(g)


def test_tilted_basis_is_rejected_by_the_final_reps(monkeypatch):
    # a kept basis tilted out of its invariant subspace after refinement
    # reaches the final reps, whose traces are no longer class functions
    g = groups.named("alternating", 5)
    fix = irreps._gauge_fix
    rng = np.random.default_rng(0)

    def tilting(basis, anchor):
        basis = fix(basis, anchor)
        if basis.shape[1] == 5:
            basis, _ = np.linalg.qr(basis + 1e-3 * rng.standard_normal(basis.shape))
        return basis

    monkeypatch.setattr(irreps, "_gauge_fix", tilting)
    with pytest.raises(ToleranceViolation, match="character varies within class"):
        irreps.decompose(g)


def test_gauge_fix_ignores_the_basis_choice():
    # B polar(B' E) is a function of span(B): any unitary change of basis
    # inside the span gives the same result
    rng = np.random.default_rng(1)
    basis, _ = np.linalg.qr(rng.standard_normal((60, 4)) + 1j * rng.standard_normal((60, 4)))
    anchor = rng.standard_normal((60, 7)) + 1j * rng.standard_normal((60, 7))
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    fixed = irreps._gauge_fix(basis, anchor)
    assert np.max(np.abs(irreps._gauge_fix(basis @ u, anchor) - fixed)) < 1e-12
    assert np.max(np.abs(fixed.conj().T @ fixed - np.eye(4))) < 1e-12
    with pytest.raises(ToleranceViolation, match="gauge anchor"):
        irreps._gauge_fix(basis, np.zeros_like(anchor))


_DECOMPOSE_AND_SAVE = """
import sys
import numpy as np
from quasirep import groups, irreps
out = {}
for spec in (("psl2", 7), ("alternating", 6), ("psl2", 11)):
    for i, rep in enumerate(irreps.decompose(groups.named(*spec))):
        out[f"{spec[0]}{spec[1]}_{i}"] = rep.matrices
np.savez(sys.argv[1], **out)
"""


def test_bases_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each irrep basis is gauge fixed against a seeded anchor, so BLAS
    # summation order moves the matrices by roundoff only
    src = os.path.dirname(os.path.dirname(os.path.abspath(irreps.__file__)))
    saved = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}.npz"
        done = subprocess.run([sys.executable, "-c", _DECOMPOSE_AND_SAVE, str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        saved.append(np.load(path))
    one, two = saved
    assert sorted(one.files) == sorted(two.files)
    assert len(one.files) == 6 + 7 + 8
    for key in one.files:
        assert np.max(np.abs(one[key] - two[key])) <= 1e-10, key


@pytest.mark.parametrize("tamper,match", [
    pytest.param("entry", None, id="entry"),
    pytest.param("sign flip", "product law", id="sign-flip"),
])
def test_validate_catches_tampering(s3_table, tamper, match):
    g = s3_table.group
    rep = s3_table.irreps[2]
    mats = rep.matrices.copy()
    if tamper == "entry":
        mats[1, 0, 0] += 0.01
    else:
        # still unitary, at an element that is not a generator: only the
        # product law on the (x, s) pairs can see it
        z = max(set(range(g.order)) - {g.identity} - set(g.generators))
        mats[z] *= -1.0
    bad = irreps.UnitaryRep(g, mats, character=rep.character,
                            is_irreducible=True)
    with pytest.raises(ToleranceViolation, match=match):
        bad.validate()


def test_validate_reaches_every_element_above_the_pair_cap():
    # one sign-flipped matrix, a unitary, at an element that 1000 seeded
    # random pairs (seed 0) never touch as x, y or x*y: only a product law
    # checked against every x and a generating set must see it
    g = groups.named("psl2", 11)
    rep = next(r for r in irreps.decompose(g) if r.dim == 5)
    rep.validate()
    rng = np.random.default_rng(0)
    xs = rng.integers(0, g.order, 1000)
    ys = rng.integers(0, g.order, 1000)
    untouched = set(range(g.order)) - set(xs) - set(ys) - set(g.table[xs, ys])
    z = min(untouched - {g.identity})
    mats = rep.matrices.copy()
    mats[z] *= -1.0
    bad = irreps.UnitaryRep(g, mats, character=rep.character, is_irreducible=True)
    with pytest.raises(ToleranceViolation, match="product law"):
        bad.validate()
