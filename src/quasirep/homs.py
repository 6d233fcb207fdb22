"""Maps between groups and how far they are from homomorphisms.

A map f: G -> H is a GroupMap, stored by image index. It derives its
pushforward distribution p_f over H from its values, and from p_f the
nonuniformity parameter eps = |H| ||p_f - uniform||^2, which satisfies the
collision identity ||p_f||^2 = (1 + eps) / |H| exactly; neither is supplied. Reports
compare the exact agreement probability Pr[f(xy) = f(x) f(y)] against two
ceilings: a best-single-irrep bound through d_min of the source, and a
spectral-mass bound (1 + eps)/|H| + R_H. Both read only irrep degrees, so
irreps.degrees serves as well as a full IrrepTable. Lifting f through an
irrep sigma of H produces the matrix function sigma(f(x)) on G, which ties
map agreement to the defect machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingIrrepTable, NotAHomomorphism
from .groups import FiniteGroup, _cayley_tree
from .irreps import IrrepDegrees, MatrixFunction, UnitaryRep

__all__ = [
    "GroupMap",
    "HomReport",
    "agreement_probability",
    "evaluate",
    "r_h",
    "lift_through_irrep",
    "random_map",
    "balanced_random_map",
    "genuine_hom",
]


@dataclass(frozen=True, eq=False)
class GroupMap:
    """A function between groups, stored by image index, with its pushforward.

    values must have an integer dtype (a list of Python ints has one), shape
    (|G|,) and entries in the target's index range; anything else raises
    ValueError naming it rather than being cast. p_f and epsilon are derived
    from values at construction, never supplied. values is kept as an int64
    copy, and both arrays are read-only.
    """

    source: FiniteGroup
    target: FiniteGroup
    values: np.ndarray
    p_f: np.ndarray = field(init=False)
    epsilon: float = field(init=False)

    def __post_init__(self):
        source, target = self.source, self.target
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "iu":
            raise ValueError(f"map values must be integers, got dtype {vals.dtype}")
        vals = vals.astype(np.int64)
        if vals.shape != (source.order,):
            raise ValueError(f"values must have shape ({source.order},), got {vals.shape}")
        if len(vals) and (vals.min() < 0 or vals.max() >= target.order):
            raise ValueError("map values outside the target index range")
        p_f = np.bincount(vals, minlength=target.order) / source.order
        uniform = 1.0 / target.order
        vals.setflags(write=False)
        p_f.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "p_f", p_f)
        object.__setattr__(self, "epsilon",
                           float(target.order * np.sum((p_f - uniform) ** 2)))


@dataclass(frozen=True)
class HomReport:
    """Agreement statistics of a map and the ceilings they must respect."""

    agreement_prob: float
    collision_prob: float
    epsilon: float
    thm2_bound: float
    thm2_sigma_index: int
    thm2_sigma_dim: int
    thm3_bound: float
    r_h: float


def agreement_probability(f: GroupMap) -> float:
    """Exact Pr_{x,y}[f(x y) = f(x) f(y)] over all |G|^2 pairs.

    Labels take the narrowest unsigned type holding |H| - 1, so f(xy) and
    f(x) f(y), gathered from the (|H|, n) products h f(y), are n^2 bytes
    each (twice that when |H| > 256).
    """
    dtype = np.min_scalar_type(f.target.order - 1)
    labels = f.values.astype(dtype)
    products = f.target.table.astype(dtype)[:, labels]
    return float(np.count_nonzero(labels[f.source.table] == products[labels])
                 / f.source.order ** 2)


def r_h(target_table: IrrepDegrees, d_min: int) -> float:
    """Spectral mass term: sum over all sigma of (d^2/|H|) min(sqrt(d/d_min), 1)."""
    if d_min < 1:
        raise ValueError(f"d_min must be >= 1, got {d_min}")
    h = target_table.group.order
    return float(sum(
        (d ** 2 / h) * min(np.sqrt(d / d_min), 1.0) for d in target_table.dims
    ))


def evaluate(f: GroupMap, source_table: IrrepDegrees | None,
             target_table: IrrepDegrees | None) -> HomReport:
    """Full report: exact agreement, collision probability, both ceilings.

    The ceilings read only each table's group, dims and d_min, so the
    IrrepDegrees of irreps.degrees and a full IrrepTable serve alike.
    dims[0] is the trivial irrep's, and thm2_sigma_index counts from it.
    """
    if source_table is None or target_table is None:
        raise MissingIrrepTable("evaluate needs irrep tables for both groups")
    if source_table.group is not f.source or target_table.group is not f.target:
        raise ValueError("irrep tables do not match the map's groups")
    agreement = agreement_probability(f)
    collision = float(np.sum(f.p_f ** 2))
    d_min = source_table.d_min
    # the trivial target has no nontrivial sigma: every map is a homomorphism
    term, sigma_dim, sigma_index = min(
        ((0.5 * (1.0 + np.sqrt(f.epsilon / d) + np.sqrt(d / d_min)), d, idx)
         for idx, d in enumerate(target_table.dims) if idx),
        default=(1.0, 0, -1))
    thm2 = min(1.0, term)
    mass = r_h(target_table, d_min)
    thm3 = min(1.0, (1.0 + f.epsilon) / f.target.order + mass)
    return HomReport(
        agreement_prob=agreement,
        collision_prob=collision,
        epsilon=f.epsilon,
        thm2_bound=float(thm2),
        thm2_sigma_index=sigma_index,
        thm2_sigma_dim=sigma_dim,
        thm3_bound=float(thm3),
        r_h=mass,
    )


def lift_through_irrep(f: GroupMap, sigma: UnitaryRep) -> MatrixFunction:
    """psi(x) = sigma(f(x)) as a MatrixFunction on the source group."""
    if sigma.group is not f.target:
        raise ValueError("sigma must be an irrep of the map's target group")
    return MatrixFunction(f.source, sigma.matrices[f.values])


def random_map(source: FiniteGroup, target: FiniteGroup, seed) -> GroupMap:
    """Uniform independent image for every source element."""
    rng = np.random.default_rng(seed)
    return GroupMap(source, target, rng.integers(0, target.order, source.order))


def balanced_random_map(source: FiniteGroup, target: FiniteGroup, seed) -> GroupMap:
    """Random map with exactly equal fibers; needs |H| dividing |G|."""
    n, h = source.order, target.order
    if n % h:
        raise ValueError(f"balanced map needs |H| | |G|, got {h} and {n}")
    rng = np.random.default_rng(seed)
    values = np.repeat(np.arange(h), n // h)
    return GroupMap(source, target, values[rng.permutation(n)])


def genuine_hom(source: FiniteGroup, target: FiniteGroup,
                images: dict[int, int]) -> GroupMap:
    """Extend generator images to a homomorphism and validate it exhaustively.

    images maps source generator index -> target element index. The images
    are extended along a breadth-first Cayley-graph tree of the source, one
    gather per layer, f(x s) = f(x) f(s). The product law is then checked on
    every pair (x, s), s a generator, which is exhaustive: the y with
    f(x y) = f(x) f(y) for all x are closed under products (see
    UnitaryRep.validate). Raises NotAHomomorphism when the generators do not
    generate the source group or when the extension fails the product law
    (witness pair (x, s) in the message), and ValueError when a generator or
    an image is not an integer or lies outside its group's index range.
    """
    for s, t in images.items():
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
            raise ValueError(f"generator {s!r} is not an integer index")
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
            raise ValueError(f"image {t!r} of generator {s!r} is not an integer index")
        if not 0 <= s < source.order:
            raise ValueError(f"generator {s} outside the source index range "
                             f"0..{source.order - 1}")
        if not 0 <= t < target.order:
            raise ValueError(f"image {t} of generator {s} outside the target "
                             f"index range 0..{target.order - 1}")
    gens = list(images)
    targets = np.array(list(images.values()), dtype=np.int64)
    right = source.table[:, gens]
    values = np.full(source.order, -1, dtype=np.int64)
    values[source.identity] = target.identity
    for children, parents, steps in _cayley_tree(right, source.identity):
        values[children] = target.table[values[parents], targets[steps]]
    if (values < 0).any():
        missing = int(np.nonzero(values < 0)[0][0])
        raise NotAHomomorphism(
            f"generators {sorted(images)} do not generate the source group "
            f"(element {missing} unreached)")
    lhs = values[right]                             # f(x s)
    rhs = target.table[values[:, None], targets]    # f(x) f(s)
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        x, j = int(bad[0][0]), int(bad[0][1])
        raise NotAHomomorphism(
            f"images are inconsistent: f({x}*{gens[j]}) = {int(lhs[x, j])} but "
            f"f({x})f({gens[j]}) = {int(rhs[x, j])}")
    return GroupMap(source, target, values)
