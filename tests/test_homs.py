"""Maps between groups: agreement, pushforward statistics, ceilings."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import approx, groups, homs, irreps
from quasirep.errors import MissingIrrepTable, NotAHomomorphism


def test_make_group_map_validation(s3, z6):
    with pytest.raises(ValueError):
        homs.make_group_map(s3, z6, np.zeros(5, dtype=int))
    with pytest.raises(ValueError):
        homs.make_group_map(s3, z6, np.full(6, 6))
    with pytest.raises(ValueError):
        homs.make_group_map(s3, z6, np.full(6, -1))


@pytest.mark.parametrize("values, dtype", [
    pytest.param(np.array([0.0, 1.9, 0.2, 1.0]), "float64", id="float"),
    pytest.param(np.array([False, True, False, True]), "bool", id="bool"),
])
def test_make_group_map_refuses_values_without_an_integer_dtype(values, dtype):
    # a cast to int64 would load both as [0, 1, 0, 1]
    z4, z2 = groups.named("cyclic", 4), groups.named("cyclic", 2)
    with pytest.raises(ValueError, match=rf"^map values must be integers, got dtype {dtype}$"):
        homs.make_group_map(z4, z2, values)
    assert homs.make_group_map(z4, z2, [0, 1, 0, 1]).values.tolist() == [0, 1, 0, 1]


def test_identity_map(s3, s3_table):
    f = homs.make_group_map(s3, s3, np.arange(6))
    assert homs.agreement_probability(f) == 1.0
    assert f.epsilon == 0.0
    report = homs.evaluate(f, s3_table, s3_table)
    assert report.collision_prob == pytest.approx(1.0 / 6.0)


def test_hand_counted_agreement_on_z2():
    z2 = groups.named("cyclic", 2)
    cases = [([0, 0], 1.0), ([0, 1], 1.0), ([1, 0], 0.0)]
    for values, expected in cases:
        f = homs.make_group_map(z2, z2, values)
        assert homs.agreement_probability(f) == expected


@pytest.mark.parametrize("source, target, kind, width", [
    (("alternating", 5), ("cyclic", 256), "random", np.uint8),
    (("alternating", 5), ("cyclic", 257), "random", np.uint16),
    (("sl2", 7), ("sl2", 7), "identity", np.uint16),
])
def test_agreement_matches_a_double_loop_over_pairs(source, target, kind, width):
    # labels of 256 elements fit one byte and of 257 or 336 two; the count
    # divided by n^2 must be the same float
    g, h = groups.named(*source), groups.named(*target)
    assert np.min_scalar_type(h.order - 1) == width
    f = (homs.random_map(g, h, seed=3) if kind == "random"
         else homs.make_group_map(g, h, np.arange(g.order)))
    fv, gt, ht = f.values.tolist(), g.table.tolist(), h.table.tolist()
    count = sum(fv[gt[x][y]] == ht[fv[x]][fv[y]]
                for x in range(g.order) for y in range(g.order))
    assert homs.agreement_probability(f) == count / g.order ** 2
    assert kind == "random" or count == g.order ** 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_collision_identity(s3, seed):
    target = groups.named("cyclic", 4)
    f = homs.random_map(s3, target, seed)
    collision = float(np.sum(f.p_f ** 2))
    assert abs(collision - (1.0 + f.epsilon) / target.order) < 1e-12
    assert f.epsilon >= 0.0
    assert f.values.min() >= 0 and f.values.max() < target.order


def test_genuine_hom_mod_reduction(z6):
    z3 = groups.named("cyclic", 3)
    f = homs.genuine_hom(z6, z3, {1: 1})
    assert np.array_equal(f.values, np.arange(6) % 3)
    assert homs.agreement_probability(f) == 1.0


def test_genuine_hom_rejects_partial_generation(z6):
    z3 = groups.named("cyclic", 3)
    with pytest.raises(NotAHomomorphism, match="generate"):
        homs.genuine_hom(z6, z3, {2: 0})


def test_genuine_hom_rejects_inconsistent_images():
    # the witness is a pair (x, s) with s a generator: f(3 * 1) = f(0) = 0
    # but f(3) f(1) = 1, and an identity's image must be the identity
    z4 = groups.named("cyclic", 4)
    z3 = groups.named("cyclic", 3)
    for images, (x, s) in (({1: 1}, (3, 1)), ({0: 1, 1: 0}, (0, 0))):
        with pytest.raises(NotAHomomorphism,
                           match=rf"inconsistent: f\({x}\*{s}\) = \d+ but f\({x}\)f\({s}\)"):
            homs.genuine_hom(z4, z3, images)


@pytest.mark.parametrize("images, match", [
    ({7: 0}, "generator 7 outside the source index range 0..3"),
    ({-1: 0}, "generator -1 outside the source index range 0..3"),
    ({1: 5}, "image 5 of generator 1 outside the target index range 0..2"),
    ({1: -1}, "image -1 of generator 1 outside the target index range 0..2"),
])
def test_genuine_hom_rejects_out_of_range_indices(images, match):
    # numpy would read -1 as the last element and fail on 7 with IndexError
    z4 = groups.named("cyclic", 4)
    z3 = groups.named("cyclic", 3)
    with pytest.raises(ValueError, match=match):
        homs.genuine_hom(z4, z3, images)


@pytest.mark.parametrize("images, match", [
    pytest.param({1.0: 1}, r"^generator 1\.0 is not an integer index$", id="float-key"),
    pytest.param({1: 1.0}, r"^image 1\.0 of generator 1 is not an integer index$",
                 id="float-image"),
])
def test_genuine_hom_refuses_non_integer_indices(images, match):
    # a float key used to fail as a bare IndexError, a float image was cast
    z4 = groups.named("cyclic", 4)
    z2 = groups.named("cyclic", 2)
    with pytest.raises(ValueError, match=match):
        homs.genuine_hom(z4, z2, images)


def test_balanced_map_has_equal_fibers(a6):
    f = homs.balanced_random_map(a6, groups.named("symmetric", 3), seed=5)
    assert f.epsilon == 0.0
    counts = np.bincount(f.values, minlength=6)
    assert np.all(counts == 60)
    with pytest.raises(ValueError):
        homs.balanced_random_map(groups.named("cyclic", 10),
                                 groups.named("cyclic", 4), seed=5)


def test_r_h_frozen_values(s3_table):
    assert homs.r_h(s3_table, 3) == pytest.approx(0.7367811436816926, abs=1e-12)
    assert homs.r_h(s3_table, 5) == pytest.approx(0.5707082198557698, abs=1e-12)
    # recompute from scratch for dims (1, 1, 2) against d_min = 3
    expected = (2 / 6) * math.sqrt(1 / 3) + (4 / 6) * math.sqrt(2 / 3)
    assert homs.r_h(s3_table, 3) == pytest.approx(expected)
    with pytest.raises(ValueError):
        homs.r_h(s3_table, 0)


def test_evaluate_identity_on_a5(a5, a5_table):
    f = homs.make_group_map(a5, a5, np.arange(60))
    report = homs.evaluate(f, a5_table, a5_table)
    assert report.agreement_prob == 1.0
    assert report.thm2_bound == pytest.approx(1.0, abs=1e-12)
    # the binding irrep is the first 3-dimensional one
    assert report.thm2_sigma_index == 1
    assert report.thm2_sigma_dim == 3
    assert report.thm3_bound == 1.0


def test_evaluate_recomputes_thm2(a5, a5_table, z6, z6_table):
    f = homs.random_map(a5, z6, seed=3)
    report = homs.evaluate(f, a5_table, z6_table)
    # every nontrivial irrep of a cyclic target is 1-dimensional and the
    # source d_min is 3, so the ceiling stays away from the trivial value 1
    expected = 0.5 * (1 + math.sqrt(report.epsilon) + math.sqrt(1 / 3))
    assert expected < 1.0
    assert report.thm2_bound == pytest.approx(expected)
    assert report.thm2_sigma_dim == 1
    assert report.r_h == pytest.approx(homs.r_h(z6_table, 3))


@pytest.mark.parametrize("kind", ["identity", "random"])
def test_a_character_table_serves_as_an_irrep_table(a5, a5_table, s3, s3_table, kind):
    # evaluate reads only each table's group, dims and d_min: the degrees
    # alone give the same report, field for field
    target, table = (a5, a5_table) if kind == "identity" else (s3, s3_table)
    f = (homs.make_group_map(a5, a5, np.arange(60)) if kind == "identity"
         else homs.random_map(a5, s3, seed=2))
    degrees = irreps.degrees(a5), irreps.degrees(target)
    assert homs.evaluate(f, *degrees) == homs.evaluate(f, a5_table, table)
    assert homs.r_h(degrees[1], 3) == homs.r_h(table, 3)
    assert repr(degrees[0]) == "IrrepDegrees(group='alternating(5)', dims=[1, 3, 3, 4, 5])"


def test_evaluate_requires_matching_tables(s3, s3_table, z6, z6_table, a5_table):
    f = homs.random_map(s3, z6, seed=1)
    with pytest.raises(MissingIrrepTable):
        homs.evaluate(f, None, z6_table)
    with pytest.raises(MissingIrrepTable):
        homs.evaluate(f, s3_table, None)
    with pytest.raises(ValueError):
        homs.evaluate(f, a5_table, z6_table)


def test_lift_through_irrep(z6, z6_table):
    z3 = groups.named("cyclic", 3)
    z3_table = irreps.decompose(z3)
    f = homs.genuine_hom(z6, z3, {1: 1})
    sigma = next(r for r in z3_table if not r.is_trivial())
    psi = homs.lift_through_irrep(f, sigma)
    assert psi.group is z6
    report = approx.defect_direct(psi, z6_table)
    assert report.defect < 1e-12
    assert report.agreement_prob == 1.0
    with pytest.raises(ValueError):
        homs.lift_through_irrep(f, z6_table.irreps[1])
