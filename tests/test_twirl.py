"""Fourth-moment twirl coefficients, tableau counts, and the audit contraction."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from quasirep import twirl
from quasirep.errors import DegenerateDimension


def brute_force_tableau_count(shape, dim):
    """Enumerate semistandard tableaux row by row: rows weakly increase
    left to right, columns strictly increase downward."""
    def rec(r, above):
        if r == len(shape):
            return 1
        total = 0
        for row in combinations_with_replacement(range(1, dim + 1), shape[r]):
            if above is not None and any(row[c] <= above[c] for c in range(shape[r])):
                continue
            total += rec(r + 1, row)
        return total
    return rec(0, None)


def test_all_permutations_and_classes():
    perms = twirl.all_permutations()
    assert len(perms) == 24
    assert len(set(perms)) == 24
    counts = {}
    for p in perms:
        counts[twirl.class_name(p)] = counts.get(twirl.class_name(p), 0) + 1
    assert counts == {"e": 1, "(12)": 6, "(123)": 8, "(12)(34)": 3, "(1234)": 6}


def transposition_distances():
    """Fewest transpositions writing each permutation, by breadth-first search."""
    swaps = [tuple(j if k == i else i if k == j else k for k in range(4))
             for i in range(4) for j in range(i + 1, 4)]
    dist = {(0, 1, 2, 3): 0}
    frontier = [(0, 1, 2, 3)]
    while frontier:
        nxt = []
        for p in frontier:
            for t in swaps:
                q = tuple(p[k] for k in t)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def test_cycle_and_transposition_counts():
    expect = {"e": (4, 0), "(12)": (3, 1), "(123)": (2, 2),
              "(12)(34)": (2, 2), "(1234)": (1, 3)}
    distances = transposition_distances()
    for name, rep in twirl.CLASS_REPRESENTATIVES.items():
        cycles, distance = expect[name]
        assert twirl.cycle_count(rep) == cycles
        assert distances[rep] == distance
        assert twirl.class_name(rep) == name
    # the twirl's decay exponents rest on distance = 4 - cycle count
    assert len(distances) == 24
    for perm, distance in distances.items():
        assert distance == 4 - twirl.cycle_count(perm)


@pytest.mark.parametrize("shape", twirl.PARTITIONS)
def test_tableau_count_against_enumeration(shape):
    for dim in range(6):
        assert twirl.tableau_count(shape, dim) == brute_force_tableau_count(shape, dim)


def test_tableau_count_spot_values():
    assert twirl.tableau_count((2, 2), 2) == 1
    for d in range(8):
        assert twirl.tableau_count((4,), d) == comb(d + 3, 4)
        assert twirl.tableau_count((1, 1, 1, 1), d) == comb(d, 4)
    with pytest.raises(ValueError):
        twirl.tableau_count((1, 2), 3)
    with pytest.raises(ValueError):
        twirl.tableau_count((2, 1), -1)


def test_moment_trace():
    assert twirl.moment_trace((0, 1, 2, 3), 3) == 81
    assert twirl.moment_trace((1, 0, 2, 3), 3) == 27
    assert twirl.moment_trace((1, 2, 3, 0), 3) == 3
    with pytest.raises(ValueError):
        twirl.moment_trace((0, 1, 2, 3), -1)


def test_twirl_exact_frozen_rationals():
    expansion = twirl.twirl_exact(6, 3)
    expected = {
        "e": Fraction(131, 2520),
        "(12)": Fraction(13, 1260),
        "(123)": Fraction(1, 5040),
        "(12)(34)": Fraction(1, 504),
        "(1234)": Fraction(-1, 2520),
    }
    for name, frac in expected.items():
        assert expansion.coefficients[name] == float(frac)


@pytest.mark.parametrize("d_rho,d_psi", [(6, 3), (4, 1), (10, 7)])
def test_reconstruct_trace_identity(d_rho, d_psi):
    expansion = twirl.twirl_exact(d_rho, d_psi)
    for rep in twirl.CLASS_REPRESENTATIVES.values():
        assert expansion.reconstruct_trace(rep) == pytest.approx(
            twirl.moment_trace(rep, d_psi), rel=1e-10)


def test_full_rank_projector_is_trivial():
    expansion = twirl.twirl_exact(5, 5)
    assert expansion.coefficients["e"] == 1.0
    for name in twirl.CLASS_NAMES[1:]:
        assert expansion.coefficients[name] == 0.0


@pytest.mark.parametrize("d_rho", range(4, 15))
def test_gram_matches_exact(d_rho):
    for d_psi in range(1, d_rho + 1):
        exact = twirl.twirl_exact(d_rho, d_psi)
        gram = twirl.twirl_gram(d_rho, d_psi)
        for name in twirl.CLASS_NAMES:
            assert abs(gram.coefficients[name] - exact.coefficients[name]) <= 1e-12


def test_gram_is_well_conditioned_at_every_allowed_d_rho():
    # G[a, b] = sum over pi in class b of d_rho^{c(pi sigma_a^-1)}, column b
    # read off reconstruct_trace with the coefficient 1 on class b alone.
    # It depends on d_rho only; cond(G) is largest, about 41.5, at d_rho = 4,
    # so twirl_gram needs no conditioning guard
    for d_rho in range(4, twirl._MAX_DRHO + 1):
        columns = [twirl.TwirlExpansion(d_rho, 1, {name: float(name == col)
                                                   for name in twirl.CLASS_NAMES})
                   for col in twirl.CLASS_NAMES]
        gram = np.array([[c.reconstruct_trace(twirl.CLASS_REPRESENTATIVES[row])
                          for c in columns] for row in twirl.CLASS_NAMES])
        assert np.linalg.cond(gram) <= 100.0


def test_gram_holds_for_every_class_representative():
    # the Gram system pairs with one representative per class; its solution
    # must satisfy the pairing for all 24 permutations
    for d_rho, d_psi in [(6, 2), (9, 4), (14, 13)]:
        gram = twirl.twirl_gram(d_rho, d_psi)
        for sigma in twirl.all_permutations():
            assert gram.reconstruct_trace(sigma) == pytest.approx(
                twirl.moment_trace(sigma, d_psi), rel=1e-10)


def test_monte_carlo_matches_exact(a5_table):
    # the audit's Monte Carlo route against its exact twirl expansion, at
    # the case A8 runs, over a few seeds
    rho = next(r for r in a5_table if r.dim == 5)
    for seed in range(3):
        audit = twirl.error_term_audit(rho, 2, seed=[seed, 8])
        assert audit.monte_carlo_stderr > 0.0
        assert abs(audit.monte_carlo - audit.expansion) <= 5 * audit.monte_carlo_stderr


def test_dimension_validation():
    with pytest.raises(DegenerateDimension):
        twirl.twirl_exact(3, 1)
    with pytest.raises(ValueError):
        twirl.twirl_exact(15, 3)
    with pytest.raises(ValueError):
        twirl.twirl_exact(6, 0)
    with pytest.raises(ValueError):
        twirl.twirl_exact(6, 7)
    with pytest.raises(DegenerateDimension):
        twirl.twirl_gram(3, 1)
    with pytest.raises(ValueError):
        twirl.twirl_gram(15, 3)
    with pytest.raises(ValueError):
        twirl.twirl_gram(6, 0)


def test_error_term_audit(a5_table):
    rho = next(r for r in a5_table if r.dim == 5)
    audit = twirl.error_term_audit(rho, 3, seed=0)
    tol = 5 * audit.monte_carlo_stderr + 1e-9
    assert abs(audit.monte_carlo - audit.expansion) <= tol
    ratio = 3 / 5
    assert audit.leading_prediction == pytest.approx(5 * ratio**3 * (2 - ratio))
    assert audit.d_rho == 5 and audit.d_psi == 3


def test_expansion_json_round_trip():
    expansion = twirl.twirl_exact(8, 4)
    payload = json.loads(json.dumps(expansion.to_json_dict()))
    assert payload == expansion.to_json_dict()
    assert set(payload) == {"d_rho", "d_psi", "coefficients"}


def test_an_expansion_is_read_only_and_hashes_by_its_dimensions():
    expansion = twirl.twirl_exact(6, 3)
    with pytest.raises(TypeError):
        expansion.coefficients["e"] = 0.0
    assert expansion == twirl.twirl_exact(6, 3)
    # the coefficients are left out of the hash, so equal expansions hash alike
    assert hash(expansion) == hash((6, 3)) == hash(twirl.twirl_exact(6, 3))
    assert len({expansion, twirl.twirl_exact(6, 3)}) == 1
    # the expansion keeps a copy of the mapping it was built from
    coefficients = dict(expansion.coefficients)
    copy = twirl.TwirlExpansion(6, 3, coefficients)
    coefficients["e"] = 0.0
    assert copy == expansion and copy.coefficients["e"] == expansion.coefficients["e"]
    assert json.dumps(copy.to_json_dict()) == json.dumps(expansion.to_json_dict())
