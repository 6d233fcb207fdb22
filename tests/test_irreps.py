"""Decomposition into unitary irreducibles and the checks on the result."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import groups, irreps
from quasirep.config import DEFAULT_TOLERANCES
from quasirep.errors import OrderCapExceeded, ToleranceViolation


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

    def recording(group, left, rng, eigengap, basis=None):
        compressed.append(basis is not None)
        return split(group, left, rng, eigengap, basis)

    monkeypatch.setattr(irreps, "_split", recording)
    tol = dataclasses.replace(DEFAULT_TOLERANCES, eigengap=eigengap)
    assert_same_table(irreps.decompose(g, tolerances=tol), ref)
    assert any(compressed)


SMALL_GROUPS = [("symmetric", 3), ("quaternion8",), ("dihedral", 4),
                ("alternating", 4), ("cyclic", 5)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.integers(min_value=0, max_value=2**32 - 1))
def test_decomposition_is_seed_independent(spec, seed):
    g = groups.named(*spec)
    assert_same_table(irreps.decompose(g, seed=seed), irreps.decompose(g))


def test_validate_catches_tampering(s3_table):
    rep = s3_table.irreps[2]
    mats = rep.matrices.copy()
    mats[1, 0, 0] += 0.01
    bad = irreps.UnitaryRep(s3_table.group, mats, character=rep.character,
                            is_irreducible=True)
    with pytest.raises(ToleranceViolation):
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
