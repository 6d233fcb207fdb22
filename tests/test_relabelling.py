"""Results that do not depend on how a group's elements are numbered.

A `file <path>` spec may number a group's elements in any order. The
degrees, the indicators, the characters as functions on elements, a map's
agreement, and a matrix function's defect and agreement are all invariant
under a relabelling pi, although the routes the code takes (Light's
generators, the tree depth, the certificate's bound) follow the labels.
A5, psl2(7) and S4 are relabelled by three fixed-seed permutations each;
psl2(11), the largest supported group, sl2(7), A6 and cyclic 12 by one;
and dihedral 350, whose named Cayley tree is the deepest, by two.
"""

from __future__ import annotations

import numpy as np
import pytest

from quasirep import approx, groups, homs, irreps

CASES = ([(spec, seed) for spec in [("alternating", 5), ("psl2", 7), ("symmetric", 4)]
          for seed in [0, 1, 2]]
         + [(spec, 0) for spec in [("psl2", 11), ("sl2", 7), ("alternating", 6),
                                   ("cyclic", 12)]])


class Relabelled:
    """A group G, its copy H with element x of G numbered pi[x], and both tables."""

    def __init__(self, spec, seed):
        self.g = groups.named(*spec)
        self.pi = np.random.default_rng([seed, 41]).permutation(self.g.order)
        self.back = np.argsort(self.pi)           # the element of G numbered y in H
        self.h = groups.from_table(self.pi[self.g.table[np.ix_(self.back, self.back)]])

    def transport(self, psi: irreps.MatrixFunction) -> irreps.MatrixFunction:
        """psi on H: the matrix of H's y is psi's of G's back[y]."""
        return irreps.MatrixFunction(self.h, psi.matrices[self.back])


@pytest.fixture(scope="module", params=CASES, ids=lambda p: f"{p[0][0]}{p[0][1]}-pi{p[1]}")
def case(request):
    spec, seed = request.param
    pair = Relabelled(spec, seed)
    return pair, irreps.decompose(pair.g), irreps.decompose(pair.h)


def assert_same_characters(pair, table_g, table_h):
    """Equal dims and indicators in the same order, and each character of G
    is one of H's composed with pi, a different one for each row."""
    assert table_h.dims == table_g.dims
    assert table_h.indicators == table_g.indicators
    on_g = table_g.character_table[:, pair.g.class_of]
    on_h = table_h.character_table[:, pair.h.class_of][:, pair.pi]
    gaps = np.abs(on_g[:, None, :] - on_h[None, :, :]).max(axis=2)
    match = gaps.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(len(on_g)))
    assert gaps[np.arange(len(on_g)), match].max() < 1e-9


def test_degrees_are_invariant(case):
    pair, _, _ = case
    assert_same_characters(pair, irreps.degrees(pair.g), irreps.degrees(pair.h))


def test_decompose_is_invariant(case):
    pair, table_g, table_h = case
    assert_same_characters(pair, table_g, table_h)


def test_a_transported_map_has_the_same_report(case):
    pair, _, _ = case
    target = groups.named("symmetric", 3)
    f = homs.balanced_random_map(pair.g, target, 7)
    moved = homs.GroupMap(pair.h, target, f.values[pair.back])
    tables = [irreps.degrees(x) for x in (pair.g, pair.h, target)]
    report = homs.evaluate(f, tables[0], tables[2])
    assert homs.evaluate(moved, tables[1], tables[2]) == report


def test_transported_functions_keep_their_defect_and_agreement(case):
    pair, table_g, table_h = case
    widest = table_g.irreps[-1]
    functions = [approx.random_sign_function(pair.g, 3),
                 approx.minor_construction(widest, max(widest.dim - 1, 1), "haar", 5),
                 approx.perturbed_irrep(widest, 0.1, 9),
                 *table_g.irreps]
    for psi in functions:
        before = approx.defect_direct(psi, table_g)
        after = approx.defect_direct(pair.transport(psi), table_h)
        assert after.agreement_prob == before.agreement_prob
        assert abs(after.defect - before.defect) <= 1e-12 * 2 * psi.dim


def test_genuine_dihedral_350_irreps_are_certified_in_every_labelling():
    # the certificate's bound grows with the Cayley tree's depth D, which
    # follows the labels: 176 on the named group, 16 and 350 on these two
    # relabellings. At every D each 2-dim irrep, the group's own and the
    # named ones transported along pi, reads agreement 1.0 and defect 0.0
    g = groups.named("dihedral", 350)
    table_g = irreps.decompose(g)
    named = [r for r in table_g if r.dim == 2]
    assert len(named) == 174 and len(g.tree) == 176
    cases = [(rho, table_g) for rho in named]
    for seed, depth in ((0, 16), (2, 350)):
        pair = Relabelled(("dihedral", 350), seed)
        assert len(pair.h.tree) == depth
        table_h = irreps.decompose(pair.h)
        own = [r for r in table_h if r.dim == 2]
        assert len(own) == 174
        cases += [(rho, table_h) for rho in own]
        cases += [(pair.transport(rho), table_h) for rho in named]
    for psi, table in cases:
        report = approx.defect_direct(psi, table)
        assert (report.agreement_prob, report.defect) == (1.0, 0.0)
