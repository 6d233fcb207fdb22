"""Every supported group, exhaustively: its degrees against the textbook
list, the hash round trip through the group file, and its Cayley tree.

Tier-1 runs the checks on every family member up to order 100, and there
also decomposes each group into irreps that the agreement certificate
bounds. Run as a script, `python tests/test_every_group.py`, the module
checks all 1,070 specs that `irreps` accepts (order at most
irreps.ORDER_CAP) through the installed package, and exits non-zero naming
each spec that fails. The script also

- decomposes each spec with an irrep of dim >= 2 (an abelian group has
  nothing beyond its degrees to decompose) and certifies every irrep: the
  certificate's bound B of approx._agreement_bound is within AGREEMENT_TOL;
- relabels every non-cyclic spec and every tenth cyclic one (cyclic 10, 20,
  ..., 700) by one permutation with a fixed seed per spec, and checks that
  the copy has the same degrees and indicators, in the same order. Cyclic
  degrees are most of the cost, so the other cyclic specs are not
  relabelled;
- prints the five largest B with the depth D of their group's Cayley tree,
  the margin a shallower generating set would widen. It printed, at one
  BLAS thread on a 2-core machine:

      dihedral 316     B = 2.70e-10  D = 159
      dihedral 306     B = 1.61e-10  D = 154
      dihedral 320     B = 1.52e-10  D = 161
      dihedral 308     B = 1.45e-10  D = 155
      dihedral 256     B = 1.34e-10  D = 129
"""

from __future__ import annotations

import math
import os
import sys
import tempfile

import numpy as np
import pytest

from quasirep import approx, groups, irreps


def partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most largest, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in shape if part > j) for j in range(shape[0]))


def hook_length_degree(shape: tuple[int, ...]) -> int:
    """The degree of the irrep of S_n labelled by shape: n! / prod hooks."""
    columns = conjugate(shape)
    hooks = math.prod(part - j + columns[j] - i - 1
                      for i, part in enumerate(shape) for j in range(part))
    return math.factorial(sum(shape)) // hooks


def textbook_degrees(family: str, *params) -> list[int]:
    """The irrep degrees of a family member, in ascending order, from the
    closed forms: the hook-length formula for S_n, its restriction to A_n
    (a self-conjugate shape splits in two, a conjugate pair of shapes
    restricts to one irrep), and Schur's lists for SL2(p) and PSL2(p)."""
    p = params[0] if params else 0
    if family == "cyclic":
        dims = [1] * p
    elif family == "dihedral":
        dims = [1] * 2 + [2] * ((p - 1) // 2) if p % 2 else [1] * 4 + [2] * (p // 2 - 1)
    elif family == "quaternion8":
        dims = [1] * 4 + [2]
    elif family == "heisenberg":
        dims = [1] * p * p + [p] * (p - 1)
    elif family == "symmetric":
        dims = [hook_length_degree(shape) for shape in partitions(p)]
    elif family == "alternating":
        dims = [1]
        if p >= 2:
            dims = []
            for shape in partitions(p):
                f = hook_length_degree(shape)
                if shape == conjugate(shape):
                    dims += [f // 2] * 2
                elif shape > conjugate(shape):
                    dims.append(f)
    elif family == "sl2":
        dims = ([1, p] + [p + 1] * ((p - 3) // 2) + [p - 1] * ((p - 1) // 2)
                + [(p + 1) // 2] * 2 + [(p - 1) // 2] * 2)
    elif family == "psl2" and p % 4 == 1:
        dims = ([1, p] + [p + 1] * ((p - 5) // 4) + [p - 1] * ((p - 1) // 4)
                + [(p + 1) // 2] * 2)
    elif family == "psl2":
        dims = ([1, p] + [p + 1] * ((p - 3) // 4) + [p - 1] * ((p - 3) // 4)
                + [(p - 1) // 2] * 2)
    return sorted(dims)


# every spec `irreps` accepts: symmetric 6 (order 720) is above the cap
ALL_SPECS = ([("cyclic", n) for n in range(1, irreps.ORDER_CAP + 1)]
             + [("dihedral", n) for n in range(1, irreps.ORDER_CAP // 2 + 1)]
             + [("symmetric", n) for n in range(1, 6)]
             + [("alternating", n) for n in range(1, 7)]
             + [("quaternion8",), ("heisenberg", 3), ("heisenberg", 5)]
             + [("sl2", p) for p in (3, 5, 7)] + [("psl2", p) for p in (5, 7, 11)])
SMALL_SPECS = [spec for spec in ALL_SPECS
               if sum(d * d for d in textbook_degrees(*spec)) <= 100]


def check_group(spec: tuple, folder: str) -> None:
    """Assert every exhaustive check on the group named by spec."""
    g = groups.named(*spec)
    table = irreps.degrees(g)
    dims = np.array(table.dims)
    assert dims @ dims == g.order, f"sum d^2 = {dims @ dims}, order {g.order}"
    # sum_chi nu(chi) chi(1) counts the solutions of x^2 = e
    involutions = np.count_nonzero(g.squares() == g.identity)
    assert np.dot(table.indicators, dims) == involutions, (
        f"sum nu(chi) chi(1) = {np.dot(table.indicators, dims)}, {involutions} "
        "solutions of x^2 = e")
    textbook = textbook_degrees(*spec)
    assert sorted(table.dims) == textbook, f"degrees {sorted(table.dims)}, not {textbook}"
    path = os.path.join(folder, "group.grp")
    groups.save_group(g, path)
    assert groups.group_hash(groups.load_group(path)) == groups.group_hash(g), (
        "the reloaded group has another hash")
    # the tree's layers and the identity list every element once, and no
    # layer is empty, so len(g.tree) is the tree's depth
    reached = np.concatenate([[g.identity], *(children for children, _, _ in g.tree)])
    assert np.array_equal(np.sort(reached), np.arange(g.order)), (
        "the Cayley tree does not list every element once")
    assert all(len(children) for children, _, _ in g.tree), "a tree layer is empty"


def check_decomposition(spec: tuple) -> tuple[float, int]:
    """Decompose the group named by spec, assert that the irreps keep
    degrees' dims and indicators and that the agreement certificate bounds
    every pair's residual of each; return the largest bound B and the depth
    D of the group's Cayley tree."""
    g = groups.named(*spec)
    table, expected = irreps.decompose(g), irreps.degrees(g)
    assert (table.dims, table.indicators) == (expected.dims, expected.indicators)
    bounds = [approx._agreement_bound(rho) for rho in table]
    worst = int(np.argmax(bounds))
    assert bounds[worst] <= approx.AGREEMENT_TOL, f"irrep {worst}: B = {bounds[worst]:.3e}"
    return bounds[worst], len(g.tree)


def check_relabelled(spec: tuple, seed: int) -> None:
    """Assert that a copy of the group named by spec, its elements numbered
    by a permutation drawn from seed, has the same degrees and indicators in
    the same order."""
    g = groups.named(*spec)
    pi = np.random.default_rng([seed, 21]).permutation(g.order)
    back = np.argsort(pi)
    h = groups.from_table(pi[g.table[np.ix_(back, back)]])
    before, after = irreps.degrees(g), irreps.degrees(h)
    assert (after.dims, after.indicators) == (before.dims, before.indicators), (
        "the relabelled copy has other degrees or indicators, or another order")


def test_the_spec_lists_have_their_sizes():
    assert (len(ALL_SPECS), len(SMALL_SPECS)) == (1070, 163)


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: " ".join(map(str, spec)))
def test_every_small_group(spec, tmp_path):
    check_group(spec, str(tmp_path))


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda spec: " ".join(map(str, spec)))
def test_every_small_group_decomposes_into_certified_irreps(spec):
    check_decomposition(spec)


def main() -> int:
    failed = []
    bounds = []                             # (B, D, spec) of each decomposed spec
    relabelled = 0
    with tempfile.TemporaryDirectory() as folder:
        for seed, spec in enumerate(ALL_SPECS):
            try:
                check_group(spec, folder)
                if max(textbook_degrees(*spec)) >= 2:
                    bounds.append((*check_decomposition(spec), spec))
                if spec[0] != "cyclic" or spec[1] % 10 == 0:
                    check_relabelled(spec, seed)
                    relabelled += 1
            except Exception as exc:        # report every failing spec, then fail
                failed.append(spec)
                print(f"{' '.join(map(str, spec))}: {type(exc).__name__} {exc}",
                      file=sys.stderr)
    print(f"{len(bounds)} specs decomposed and certified, {relabelled} relabelled")
    print("largest certificate bounds B, with the Cayley tree depth D:")
    for b, depth, spec in sorted(bounds, reverse=True)[:5]:
        print(f"  {' '.join(map(str, spec)):16s} B = {b:.2e}  D = {depth}")
    print(f"{len(ALL_SPECS) - len(failed)} of {len(ALL_SPECS)} specs pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
