"""Decomposition into unitary irreducibles and the checks on the result."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import groups, irreps
from quasirep.errors import (DecompositionFailed, OrderCapExceeded,
                             ToleranceViolation)
from quasirep.sampling import haar_basis


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


def test_frobenius_schur_refuses_an_average_off_the_indicator_values():
    # x -> 1, i, i on cyclic(3) has |chi| = 1, so it reads as irreducible,
    # but it is no representation: E chi(x^2) = (1 + 2i) / 3
    z3 = groups.named("cyclic", 3)
    rho = irreps.UnitaryRep(z3, np.array([1, 1j, 1j]).reshape(3, 1, 1))
    assert rho.is_irreducible
    with pytest.raises(ToleranceViolation,
                       match=r"^indicator average \(0\.333\d*\+0\.666\d*j\) is not "
                             r"near -1, 0, or \+1$"):
        irreps.frobenius_schur(rho)


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


# every pinned spec of order <= 700 (symmetric 6 has order 720)
DECOMPOSABLE = ([("dihedral", n) for n in range(1, 13)]
                + [("symmetric", n) for n in range(1, 6)]
                + [("alternating", n) for n in range(1, 7)]
                + [("quaternion8",), ("heisenberg", 3), ("heisenberg", 5),
                   ("sl2", 3), ("sl2", 5), ("sl2", 7), ("psl2", 5), ("psl2", 7),
                   ("psl2", 11), ("cyclic", 1), ("cyclic", 2), ("cyclic", 12),
                   ("cyclic", 700)])


@pytest.mark.parametrize("spec", DECOMPOSABLE + [("dihedral", 350)])
def test_character_table_has_the_decomposition_degrees(spec):
    # hom reads only the degrees: they must be decompose's, in its order
    g = groups.named(*spec)
    degrees, ref = irreps.degrees(g), irreps.decompose(g)
    assert degrees.group is g and isinstance(ref, irreps.IrrepDegrees)
    assert (degrees.dims, degrees.d_min) == (ref.dims, ref.d_min)


@pytest.mark.parametrize("spec", DECOMPOSABLE)
def test_character_table_matches_the_traces(spec):
    # the class-algebra table and the traces of the decomposed reps are two
    # routes to the same characters; rows pair up by orthogonality
    g = groups.named(*spec)
    a = irreps._central_element(g, np.random.default_rng(0))
    omega, characters, conjugate = irreps._character_table(g, a)
    ref = irreps.decompose(g).character_table
    sizes = np.bincount(g.class_of)
    match = np.abs((characters * sizes) @ ref.conj().T).argmax(axis=1)
    assert sorted(match) == list(range(len(ref)))
    assert np.max(np.abs(characters - ref[match])) <= 1e-10
    assert np.max(np.abs(characters[conjugate] - characters.conj())) <= 1e-10
    assert np.all(np.diff(omega) > 0)


def test_a_corrupted_table_entry_fails_the_trace_check(monkeypatch):
    table = irreps._character_table

    def corrupted(group, a):
        omega, characters, conjugate = table(group, a)
        characters[characters[:, 0].real.argmax(), 1] += 1e-3
        return omega, characters, conjugate

    monkeypatch.setattr(irreps, "_character_table", corrupted)
    with pytest.raises(ToleranceViolation,
                       match="traces differ from its class character"):
        irreps.decompose(groups.named("alternating", 5))


def merge_clusters(monkeypatch, calls):
    """Makes _cluster_slices put everything in one cluster on its first
    `calls` calls; returns the lengths it is called with."""
    chain = irreps._cluster_slices
    lengths = []

    def merging(eigenvalues, width):
        lengths.append(len(eigenvalues))
        if len(lengths) <= calls:
            return [slice(0, len(eigenvalues))]
        return chain(eigenvalues, width)

    monkeypatch.setattr(irreps, "_cluster_slices", merging)
    return lengths


MERGED = [("alternating", 5), ("quaternion8",), ("sl2", 3), ("alternating", 6)]


@pytest.mark.parametrize("spec", MERGED)
def test_merged_clusters_are_retried(monkeypatch, spec):
    # one cluster of the whole space is no whole copy of any irrep, so
    # attempt 0 fails and attempt 1 draws a fresh central element and probe
    g = groups.named(*spec)
    ref = irreps.decompose(g)
    lengths = merge_clusters(monkeypatch, calls=1)
    assert_same_table(irreps.decompose(g), ref)
    assert lengths[1] == lengths[0]


@pytest.mark.parametrize("spec", MERGED)
def test_clusters_merged_on_every_attempt_fail(monkeypatch, spec):
    lengths = merge_clusters(monkeypatch, calls=irreps._RETRY_BUDGET)
    with pytest.raises(DecompositionFailed, match="no whole copy of an irrep"):
        irreps.decompose(groups.named(*spec))
    assert len(lengths) == irreps._RETRY_BUDGET


def zero_draws(monkeypatch, name, calls):
    """Makes the helper `name` (_central_element or _probe_function) return
    zeros on its first `calls` calls, counting only compressed probes for
    _probe_function; returns one entry per counted call."""
    draw = getattr(irreps, name)
    made = []

    def zeroing(group, rng, **compressed):
        drawn = draw(group, rng, **compressed)
        if compressed.get("compressed", True):
            made.append(len(drawn))
            if len(made) <= calls:
                return np.zeros_like(drawn)
        return drawn

    monkeypatch.setattr(irreps, name, zeroing)
    return made


# a zero central element gives every irrep the eigenvalue 0, and a zero
# compressed probe cannot split the two copies of quaternion8's 2-dim irrep
ZERO_DRAWS = [
    pytest.param("_central_element", ("alternating", 5),
                 "two irreps share an eigenvalue of the central element", id="central"),
    pytest.param("_probe_function", ("quaternion8",),
                 "two copies of an irrep of dim 2 would not split", id="compressed"),
]


@pytest.mark.parametrize("name,spec,cause", ZERO_DRAWS)
def test_a_zero_draw_is_retried(monkeypatch, name, spec, cause):
    g = groups.named(*spec)
    ref = irreps.decompose(g)
    made = zero_draws(monkeypatch, name, calls=1)
    assert_same_table(irreps.decompose(g), ref)
    assert len(made) == 2


@pytest.mark.parametrize("name,spec,cause", ZERO_DRAWS)
def test_a_zero_draw_on_every_attempt_fails(monkeypatch, name, spec, cause):
    g = groups.named(*spec)
    made = zero_draws(monkeypatch, name, calls=irreps._RETRY_BUDGET)
    with pytest.raises(DecompositionFailed,
                       match=rf"^no complete decomposition of {re.escape(g.name)} after "
                             rf"{irreps._RETRY_BUDGET} reseeded attempts: {cause}$"):
        irreps.decompose(g)
    assert len(made) == irreps._RETRY_BUDGET


OFF_INTEGER = r"^irrep degree {} is {} from an integer$"


# decompose's sum-of-squares refusal has its own test below
@pytest.mark.parametrize("build,shift,match", [
    (irreps.degrees, 0.25, OFF_INTEGER.format(r"5\.25", r"2\.500e-01")),
    (irreps.decompose, 0.25, OFF_INTEGER.format(r"5\.25", r"2\.500e-01")),
    (irreps.degrees, 2e-6, OFF_INTEGER.format(r"5\.000002", r"2\.000e-06")),
    (irreps.degrees, 1.0,
     r"^irrep dimensions \[1, 3, 3, 4, 6\] do not satisfy sum d\^2 = 60$"),
], ids=["off by 0.25", "off by 0.25 in decompose", "off by 2e-6", "sum of squares"])
def test_a_wrong_degree_is_refused(monkeypatch, build, shift, match):
    # a degree off an integer, or integral degrees whose squares do not sum
    # to |G|, stops both routines before any probe is drawn
    table = irreps._character_table

    def shifted(group, a):
        omega, characters, conjugate = table(group, a)
        characters[characters[:, 0].real.argmax(), 0] += shift
        return omega, characters, conjugate

    monkeypatch.setattr(irreps, "_character_table", shifted)
    monkeypatch.setattr(irreps, "_probe_bases", None)
    with pytest.raises(ToleranceViolation, match=match):
        build(groups.named("alternating", 5))


def test_a_wrong_degree_fails_the_sum_of_squares(monkeypatch):
    table = irreps._character_table

    def widened(group, a):
        omega, characters, conjugate = table(group, a)
        characters[characters[:, 0].real.argmax(), 0] += 1.0
        return omega, characters, conjugate

    monkeypatch.setattr(irreps, "_character_table", widened)
    with pytest.raises(ToleranceViolation,
                       match=r"^irrep dimensions \[1, 3, 3, 4, 6\] do not satisfy "
                             r"sum d\^2 = 60$"):
        irreps.decompose(groups.named("alternating", 5))


def test_a_reducible_piece_is_refused(monkeypatch):
    # R(x) = 1 for every x: chi = d everywhere, so E|chi|^2 = d^2
    monkeypatch.setattr(irreps, "_restrict", lambda group, basis, tree: np.tile(
        np.eye(basis.shape[1], dtype=np.complex128), (group.order, 1, 1)))
    with pytest.raises(ToleranceViolation, match="^piece of dim 2 is reducible$"):
        irreps.decompose(groups.named("symmetric", 3))


def test_a_second_trivial_irrep_is_refused(monkeypatch):
    # S3's sign character replaced by the trivial one: every piece matches
    # its row, and two trivial irreps reach the final count
    table = irreps._character_table

    def doubled(group, a):
        omega, characters, conjugate = table(group, a)
        linear = np.flatnonzero(np.abs(characters[:, 0] - 1) < 1e-9)
        characters[linear] = 1.0
        return omega, characters, conjugate

    monkeypatch.setattr(irreps, "_character_table", doubled)
    with pytest.raises(ToleranceViolation,
                       match="^expected exactly one trivial irrep, got 2$"):
        irreps.decompose(groups.named("symmetric", 3))


@pytest.fixture
def draws(monkeypatch):
    """Counts the whole-space probes, compressed probes and splits of two
    copies that a decomposition draws."""
    counts = {"whole": 0, "compressed": 0, "split": 0}
    draw, split = irreps._probe_function, irreps._split_copies

    def drawing(group, rng, compressed):
        counts["compressed" if compressed else "whole"] += 1
        return draw(group, rng, compressed)

    def splitting(*args):
        counts["split"] += 1
        return split(*args)

    monkeypatch.setattr(irreps, "_probe_function", drawing)
    monkeypatch.setattr(irreps, "_split_copies", splitting)
    return counts


@pytest.mark.parametrize("spec,compressed", [
    (("psl2", 11), 0),
    (("sl2", 7), 3),
    (("psl2", 7), 0),
    (("sl2", 5), 4),
    (("quaternion8",), 1),
    (("alternating", 6), 0),
    (("sl2", 3), 1),
    (("heisenberg", 3), 0),
    (("cyclic", 12), 0),
])
def test_one_compressed_split_per_reducible_character(draws, spec, compressed):
    # the real probe gives d_rho eigen-clusters per irrep type: a cluster
    # holds an irrep of real type, a complex-conjugate pair or two copies of
    # a quaternionic irrep. The central element separates a complex pair, so
    # a compressed probe is drawn for, and splits, only the first cluster of
    # each quaternionic irrep; an abelian group draws no probe at all
    table = irreps.decompose(groups.named(*spec))
    indicators = [irreps.frobenius_schur(r) for r in table]
    assert draws["whole"] == (max(table.dims) > 1)
    assert draws["split"] == compressed == indicators.count(-1)
    assert draws["compressed"] == compressed


def lifted_probe(group, seed):
    """The typed probe's eigenvectors lifted to the whole space, as columns,
    for a probe, central element and table drawn from the stream seed."""
    rng = np.random.default_rng(seed)
    f = irreps._probe_function(group, rng, compressed=False)
    a = irreps._central_element(group, rng)
    omega, _, conjugate = irreps._character_table(group, a)
    z = a[group.class_of[group.inverses]]
    orbits, block, vectors, cluster, irrep = irreps._typed_probe(group, f, z, omega,
                                                                 conjugate)
    return f, z, omega, irreps._lift(orbits, block, vectors), cluster, irrep


@pytest.mark.parametrize("spec", [
    ("cyclic", 1), ("cyclic", 2), ("dihedral", 2), ("cyclic", 12),
    ("heisenberg", 3), ("quaternion8",), ("sl2", 7), ("psl2", 11)])
def test_blocked_probe_solve_matches_the_dense_solve(spec):
    # blocks under the cyclic subgroup of the first element of largest order
    # k: k = 1 (trivial group), k = 2 (exponent 2), k = n (cyclic), odd and
    # even k with several orbits. Lifted, the block eigenvectors with their
    # conjugates are an orthonormal eigenbasis of the dense probe, clustered
    # in ascending order, and each is an eigenvector of the central element
    # with the eigenvalue of its irrep
    g = groups.named(*spec)
    f, z, omega, v, cluster, types = lifted_probe(g, 3)
    probe = f[g.table[g.inverses]]
    assert v.shape == (g.order, g.order)
    assert np.max(np.abs(v.conj().T @ v - np.eye(g.order))) <= 1e-12
    rayleigh = v.conj().T @ probe @ v
    w = rayleigh.diagonal().real
    scale = np.max(np.abs(w))
    assert np.max(np.abs(rayleigh - np.diag(w))) <= 1e-11 * scale
    assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(probe))) <= 1e-12 * scale
    assert np.all(np.diff(w[np.argsort(cluster, kind="stable")]) >= -1e-12 * scale)
    assert np.all(types < len(omega))
    central = z[g.table[g.inverses]]
    assert np.max(np.abs(central @ v - v * omega[types])) <= 1e-11 * np.max(np.abs(omega))


def test_bases_are_the_dense_solves(monkeypatch):
    # each probe eigenspace is the sum of its parts in the eigenspaces of
    # left translation by <h>; with h the identity there is one orbit per
    # element and a single block, the dense n x n solve, whose clusters and
    # spans the gauge fix turns into the same bases
    cases = [(groups.named(*spec), seed)
             for spec in [("alternating", 5), ("psl2", 7), ("sl2", 7),
                          ("alternating", 6), ("psl2", 11)]
             for seed in range(3)]
    blocked = [irreps.decompose(g, seed) for g, seed in cases]
    monkeypatch.setattr(irreps, "_cyclic_orbits",
                        lambda group: np.arange(group.order)[:, None])
    for (g, seed), table in zip(cases, blocked):
        dense = irreps.decompose(g, seed)
        assert dense.dims == table.dims, (g.name, seed)
        for a, b in zip(dense, table):
            assert np.max(np.abs(a.matrices - b.matrices)) <= 1e-10, (g.name, seed)


# heisenberg(3) has complex pairs of dim 3, sl2(3) a complex pair and a
# quaternionic irrep of dim 2
SMALL_GROUPS = [("symmetric", 3), ("quaternion8",), ("dihedral", 4),
                ("alternating", 4), ("cyclic", 5), ("heisenberg", 3), ("sl2", 3)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.integers(min_value=0, max_value=2**32 - 1))
def test_decomposition_is_seed_independent(spec, seed):
    g = groups.named(*spec)
    assert_same_table(irreps.decompose(g, seed=seed), irreps.decompose(g))


# the first five: two of the wider groups would multiply past the order cap
SMALL_FACTORS = st.one_of(
    st.sampled_from(SMALL_GROUPS[:5]),
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


def cut_clusters(monkeypatch, calls, first_only):
    """Makes _cluster_slices cut the first, or every, cluster of more than
    one eigenvalue after its first eigenvalue, on its first `calls` calls."""
    chain = irreps._cluster_slices
    made = []

    def cutting(eigenvalues, width):
        made.append(len(eigenvalues))
        slices = chain(eigenvalues, width)
        if len(made) <= calls:
            wide = [i for i, sl in enumerate(slices) if sl.stop - sl.start > 1]
            for i in reversed(wide[:1] if first_only else wide):
                a, b = slices[i].start, slices[i].stop
                slices[i:i + 1] = [slice(a, a + 1), slice(a + 1, b)]
        return slices

    monkeypatch.setattr(irreps, "_cluster_slices", cutting)


@pytest.mark.parametrize("spec", [("alternating", 5), ("quaternion8",), ("sl2", 3)])
def test_non_invariant_piece_is_rejected(monkeypatch, spec):
    # the first probe of every attempt cuts each of its clusters of several
    # block eigenvectors in two. A part of a probe eigenspace is not
    # invariant: it is no whole copy of an irrep, or its reps fail the final
    # checks, so no basis of a cut piece reaches a table
    cut_clusters(monkeypatch, calls=irreps._RETRY_BUDGET, first_only=False)
    with pytest.raises((ToleranceViolation, DecompositionFailed)):
        irreps.decompose(groups.named(*spec))


@pytest.mark.parametrize("spec", [("alternating", 5), ("sl2", 7)])
def test_a_cut_copy_is_replaced_by_another(monkeypatch, spec):
    # an irrep of dim d >= 2 fills several clusters; when the first probe cuts
    # the first of them, the next whole copy supplies that irrep
    g = groups.named(*spec)
    ref = irreps.decompose(g)
    cut_clusters(monkeypatch, calls=1, first_only=True)
    assert_same_table(irreps.decompose(g), ref)


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
for spec in (("alternating", 5), ("psl2", 7), ("alternating", 6), ("psl2", 11)):
    for i, rep in enumerate(irreps.decompose(groups.named(*spec))):
        out[f"{spec[0]}{spec[1]}_{i}"] = rep.matrices
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def thread_runs(tmp_path_factory):
    """Every irrep of A5, psl2(7), A6 and psl2(11) at seed 0, decomposed in
    fresh interpreters at 1 and at 2 BLAS threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(irreps.__file__)))
    tmp = tmp_path_factory.mktemp("threads")
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        path = tmp / f"threads{threads}.npz"
        done = subprocess.run([sys.executable, "-c", _DECOMPOSE_AND_SAVE, str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        with np.load(path) as saved:
            runs[threads] = {key: saved[key] for key in saved.files}
    return runs


def test_bases_do_not_depend_on_the_blas_thread_count(thread_runs):
    # each irrep basis is gauge fixed against a seeded anchor, so BLAS
    # summation order moves the matrices by roundoff only
    one, two = thread_runs["1"], thread_runs["2"]
    assert sorted(one) == sorted(two)
    assert len(one) == 5 + 6 + 7 + 8
    for key in one:
        assert np.max(np.abs(one[key] - two[key])) <= 1e-10, key


# rho(s)[0, 0] of every irrep at seed 0, in table order, for the first
# generator s (element 1 in all three groups): the bases a seed gives do not
# depend on how many copies of an irrep the decomposition refines
PINNED_ENTRIES = {
    "alternating5": [
        1 + 0j, -0.422901743585973 - 0.38738830473195907j,
        -0.19405178024867112 + 0.48484277134377973j,
        -0.0038150285300861952 - 0.12102680446964534j,
        -0.4973644091754582 + 0.7706975558479281j],
    "psl27": [
        1 + 0j, -0.21985685099638821 - 0.19213407433269747j,
        0.11292365628531525 + 0.7197747907241021j,
        -0.40433058386719717 + 0.008572500449131173j,
        0.014479213796434172 + 0.19425904950413747j,
        0.052418975798738984 - 0.2710012238096235j],
    "psl211": [
        1 + 0j, 0.17933095659182224 - 0.4613309683887811j,
        -0.23618951926050308 - 0.10756971230152859j,
        -0.5873700487500249 + 0.2492145514611973j,
        -0.17844947169644654 - 0.010207393733847676j,
        0.1473652601710649 + 0.4400546924803408j,
        -0.10027700432530492 + 0.0848219528910937j,
        0.06961399753860809 - 0.009680340626458676j],
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name,spec", [("alternating5", ("alternating", 5)),
                                       ("psl27", ("psl2", 7)),
                                       ("psl211", ("psl2", 11))])
def test_bases_are_pinned(thread_runs, threads, name, spec):
    s = groups.named(*spec).generators[0]
    assert s == 1
    entries = [thread_runs[threads][f"{name}_{i}"][s, 0, 0]
               for i in range(len(PINNED_ENTRIES[name]))]
    assert f"{name}_{len(entries)}" not in thread_runs[threads]
    assert np.max(np.abs(np.array(entries) - PINNED_ENTRIES[name])) <= 1e-9


def test_quaternionic_bases_are_pinned():
    # rho(s)[0, 0] of sl2(7)'s quaternionic irreps at seed 0, for its first
    # generator s: each is split off by a compressed probe, drawn after one
    # draw per earlier cluster of two copies and no other, so these pin the
    # draw order
    g = groups.named("sl2", 7)
    s = g.generators[0]
    assert s == 1
    entries = [r.matrices[s, 0, 0] for r in irreps.decompose(g)
               if irreps.frobenius_schur(r) == -1]
    want = [-0.14663153464260295 - 0.26380052424182526j,
            -0.02337871437517378 - 0.055435104842537955j,
            0.3949110728996536 - 0.07169141013935598j]
    assert np.max(np.abs(np.array(entries) - want)) <= 1e-9


def _regular(group):
    """The left regular representation: exact 0/1 matrices, trace 0 off the
    identity, so a tamper that ties several pairs ties them exactly."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    mats[np.arange(n)[:, None], group.table, np.arange(n)] = 1.0
    return mats


@pytest.mark.parametrize("tamper,match", [
    # a moved trace is refused when the rep is constructed
    pytest.param("entry", r"^character varies within class 1 by 6\.667e-03$", id="entry"),
    # every class character but the identity's is 0, so scaling a matrix
    # keeps every trace constant on its class. By -1 it stays unitary, at an
    # element that is not a generator: only the product law on the (x, s)
    # pairs can see it
    pytest.param("sign flip", r"^product law fails at pair \(2, 2\): residual 4\.899e\+00$",
                 id="sign-flip"),
    pytest.param("scale", r"^unitarity residual 4\.923e-02 above 1e-08$", id="scale"),
])
def test_validate_catches_tampering(s3, tamper, match):
    mats = _regular(s3)
    if tamper == "entry":
        mats[1, 0, 0] += 0.01
    elif tamper == "sign flip":
        z = max(set(range(s3.order)) - {s3.identity} - set(s3.generators))
        mats[z] *= -1.0
    else:
        mats[1] *= 1.01
    with pytest.raises(ToleranceViolation, match=match):
        irreps.UnitaryRep(s3, mats).validate()


def test_validate_reaches_every_element_above_the_pair_cap():
    # one matrix conjugated by a diagonal unitary, keeping its trace, at an
    # element that 1000 seeded random pairs (seed 0) never touch as x, y or
    # x*y: only a product law checked against every x and a generating set
    # must see it
    g = groups.named("psl2", 11)
    rep = next(r for r in irreps.decompose(g) if r.dim == 5)
    rep.validate()
    rng = np.random.default_rng(0)
    xs = rng.integers(0, g.order, 1000)
    ys = rng.integers(0, g.order, 1000)
    untouched = set(range(g.order)) - set(xs) - set(ys) - set(g.table[xs, ys])
    z = min(untouched - {g.identity})
    phase = np.exp(1j * np.arange(rep.dim))
    mats = rep.matrices.copy()
    mats[z] = phase[:, None] * mats[z] * phase.conj()
    with pytest.raises(ToleranceViolation) as caught:
        irreps.UnitaryRep(g, mats).validate()
    # every pair that touches z once fails by the same residual in exact
    # arithmetic, so roundoff picks which of them is named
    assert str(caught.value) in {f"product law fails at pair ({x}, {s}): residual 3.253e+00"
                                 for x in range(g.order) for s in g.generators
                                 if z in (x, g.table[x, s])}


def test_validate_names_the_worst_pair_first_in_x_major_order(a5, a5_table):
    # a5's generators are elements 1 and 2. The regular representation with
    # its sign flipped at element 7, which keeps that trace 0, fails at
    # (7, s) and at every (x, s) with x s = 7, all by exactly 2 sqrt(60):
    # the first of those in x-major order is named
    n = a5.order
    regular = _regular(a5)
    regular[7] *= -1.0
    bad = irreps.UnitaryRep(a5, regular)
    with pytest.raises(ToleranceViolation,
                       match=r"^product law fails at pair \(3, 2\): residual 1\.549e\+01$"):
        bad.validate()
    # the same flip on the trivial rep moves element 7's trace, and the rep
    # is refused when constructed: its class of 20 averages 0.9
    ones = np.ones((n, 1, 1), dtype=np.complex128)
    ones[7] = -1.0
    with pytest.raises(ToleranceViolation,
                       match=r"^character varies within class 1 by 1\.900e\+00$"):
        irreps.UnitaryRep(a5, ones)
    # R(2) times i is still unitary, and its class character is 0; (1, 2) is
    # the first pair to fail, by sqrt(2 d), but (2, 2) carries the corrupted
    # matrix twice and fails by 2 sqrt(d), the largest residual
    rep = a5_table.irreps[4]
    mats = rep.matrices.copy()
    mats[2] *= 1j
    bad = irreps.UnitaryRep(a5, mats)
    with pytest.raises(ToleranceViolation,
                       match=r"^product law fails at pair \(2, 2\): residual 4\.472e\+00$"):
        bad.validate()
    # element 4's class character is also 0
    mats = rep.matrices.copy()
    mats[4] *= 1.001
    bad = irreps.UnitaryRep(a5, mats)
    with pytest.raises(ToleranceViolation,
                       match=r"^unitarity residual 4\.474e-03 above 1e-08$"):
        bad.validate()


@pytest.mark.parametrize("shape", [(5, 2, 2), (6, 2, 3), (6, 4), (6,), ()])
def test_a_rep_refuses_matrices_of_the_wrong_shape(s3, shape):
    with pytest.raises(ValueError, match=r"^matrices must be \(\|G\|, d, d\), got "
                                         + re.escape(str(shape)) + "$"):
        irreps.UnitaryRep(s3, np.zeros(shape))


def test_validate_refuses_an_identity_that_is_not_the_identity_matrix(s3):
    # x -> -1 is unitary with a class character -1, but R(e) = -1
    with pytest.raises(ToleranceViolation,
                       match="^identity element is not the identity matrix$"):
        irreps.UnitaryRep(s3, -np.ones((s3.order, 1, 1))).validate()


def test_a_rep_owns_and_freezes_its_matrices(s3):
    # a C-contiguous complex128 stack is kept without a copy and made
    # read-only, the caller's array included; any other stack is converted
    mats = _regular(s3)
    rep = irreps.UnitaryRep(s3, mats)
    assert rep.matrices is mats and not mats.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mats[0, 0, 0] = 2.0
    real = _regular(s3).real
    rep = irreps.UnitaryRep(s3, real)
    assert real.flags.writeable and not rep.matrices.flags.writeable


def test_unitarity_residuals_match_the_per_matrix_norm():
    # 700 scaled unitaries of dim 8 take two blocks of 512 rows
    rng = np.random.default_rng(3)
    n, d = 700, 8
    scale = 1.0 + rng.uniform(0.0, 0.01, n)
    mats = haar_basis(rng, d, d, stack=(n,)) * scale[:, None, None]
    assert irreps._block_rows(d * d) < n
    expected = [np.linalg.norm(m.conj().T @ m - np.eye(d)) for m in mats]
    assert irreps._unitarity_residuals(mats) == pytest.approx(expected, rel=1e-12)


def _class_average_by_loop(group, values):
    out = np.empty(len(group.classes), dtype=np.complex128)
    for ci, cls in enumerate(group.classes):
        vals = values[list(cls)]
        out[ci] = vals.mean()
        if np.max(np.abs(vals - out[ci])) > irreps._CHARACTER_MATCH:
            raise ToleranceViolation(
                f"character varies within class {ci} by "
                f"{np.max(np.abs(vals - out[ci])):.3e}")
    return out


def test_class_average_matches_the_loop_over_classes(a5, a5_table):
    for rep in a5_table:
        traces = np.trace(rep.matrices, axis1=1, axis2=2)
        assert np.max(np.abs(irreps._class_average(a5, traces)
                             - _class_average_by_loop(a5, traces))) <= 1e-13
    # spreads in two classes: the lower class index is named, with its spread
    traces = np.trace(a5_table.irreps[3].matrices, axis1=1, axis2=2).copy()
    big, small = a5.classes[3], a5.classes[1]
    traces[big[-1]] += 0.5
    traces[small[0]] += 1e-3
    with pytest.raises(ToleranceViolation) as want:
        _class_average_by_loop(a5, traces)
    with pytest.raises(ToleranceViolation) as got:
        irreps._class_average(a5, traces)
    assert str(got.value) == str(want.value)
    assert "within class 1 by" in str(got.value)


def test_canonical_order_matches_the_rounded_tuple_key(a6_table):
    def key(rep):
        return (rep.dim, tuple((round(float(c.real), 6), round(float(c.imag), 6))
                               for c in rep.character))

    for reps in (list(a6_table.irreps[1:]), list(a6_table.irreps[:0:-1]),
                 list(irreps.decompose(groups.named("sl2", 7)).irreps[::-1])):
        assert irreps._canonical_order(reps) == sorted(reps, key=key)
