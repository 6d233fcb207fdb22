"""Numerical unitary irreducible representations.

The decomposition works on the regular representation without materializing
it. A matrix that commutes with every left translation is a right convolution,
T[z, w] = f(z^-1 w), and it is Hermitian when f(x^-1) = conj f(x). The probe is
such a T for a random f (Dixon's random commutant element; J. D. Dixon,
"Computing irreducible representations of groups", Math. Comp. 24, 1970), an
index gather with no averaging. Its eigenspaces are invariant subspaces.

The first probe takes f real with f(x^-1) = f(x), so T is real symmetric and
its eigendecomposition is real. A real probe cannot tell an irrep rho of
complex type (Frobenius-Schur 0) from its conjugate, and gives irreps of
quaternionic type (-1) in doubled clusters, so some of its eigenspaces are
reducible, at most 2 dim(rho) wide. A reducible piece is refined recursively
by a fresh complex probe compressed to it, B' T B, which commutes with the
restricted representation.

On an invariant subspace with orthonormal basis B the character of
B' R(x) B is a class function, read at one representative c per class as
chi(c) = sum_z <B[c^-1 z], B[z]>, and the piece is irreducible when
sum_c |C| |chi(c)|^2 / |G| = 1. Pieces are deduplicated by this character.
Each kept basis is gauge fixed, B -> B polar(B' E) for one seeded matrix E,
which depends only on span(B): the matrices do not depend on the basis the
eigensolver returned, so BLAS summation order moves them by roundoff only.
The restriction B' R(s) B is computed for the generators s only; every other
element is reached along a breadth-first Cayley-graph tree, rho(x s) =
rho(x) rho(s), one batched product per layer.

The final representations are checked on every element: their traces must be
constant on classes, irreducible, and equal to the refine character, and the
product law is validated exhaustively. The table is ordered canonically
(trivial first, then by dimension and character) and checked for
completeness: the squared dimensions must sum to |G| and the count must equal
the number of conjugacy classes.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DecompositionFailed, OrderCapExceeded, ToleranceViolation
from .groups import FiniteGroup, _cayley_tree

__all__ = [
    "UnitaryRep",
    "IrrepTable",
    "decompose",
    "frobenius_schur",
    "ORDER_CAP",
]

ORDER_CAP = 700

_RETRY_BUDGET = 8

# cap on ||M' M - 1||_F for every matrix of a rep
_UNITARITY = 1e-8
# cap on ||R(x y) - R(x) R(y)||_F, and on ||R(e) - 1||_F
_PRODUCT_LAW = 1e-9
# |E|chi|^2 - 1| cutoff deciding irreducibility
_IRREDUCIBILITY = 1e-6
# two characters within this (per class, sup norm) are the same irrep; also
# the allowed spread of traces within one class
_CHARACTER_MATCH = 1e-6
# eigenvalue clustering width, relative to the largest |eigenvalue| of a probe
_EIGENGAP = 1e-7
# smallest singular value of B' E accepted by the gauge fix
_ANCHOR_MIN_SINGULAR = 1e-10


class UnitaryRep:
    """A unitary representation given by one matrix per group element.

    Attributes:
        group: the underlying FiniteGroup.
        dim: matrix dimension.
        matrices: (|G|, dim, dim) complex array.
        character: per-conjugacy-class character values.
        is_irreducible: whether E|chi|^2 = 1 held at construction.
    """

    def __init__(self, group: FiniteGroup, matrices: np.ndarray,
                 character: np.ndarray | None = None,
                 is_irreducible: bool | None = None):
        matrices = np.ascontiguousarray(matrices, dtype=np.complex128)
        if matrices.shape != (group.order, matrices.shape[1], matrices.shape[1]):
            raise ValueError(f"matrices must be (|G|, d, d), got {matrices.shape}")
        self.group = group
        self.dim = matrices.shape[1]
        self.matrices = matrices
        if character is None:
            traces = np.trace(matrices, axis1=1, axis2=2)
            character = _class_average(group, traces)
        self.character = np.asarray(character, dtype=np.complex128)
        if is_irreducible is None:
            chi = self.character_on_elements()
            is_irreducible = abs(np.mean(np.abs(chi) ** 2) - 1.0) <= _IRREDUCIBILITY
        self.is_irreducible = bool(is_irreducible)
        self.matrices.setflags(write=False)
        self.character.setflags(write=False)

    def character_on_elements(self) -> np.ndarray:
        """Character as a length-|G| vector, constant on classes."""
        return self.character[self.group.class_of]

    def is_trivial(self) -> bool:
        return self.dim == 1 and np.max(np.abs(self.character - 1.0)) < 1e-6

    def validate(self) -> None:
        """Check unitarity everywhere and the product law on pairs.

        The product law is checked on every pair (x, s), s in
        group.generators. That is exhaustive: the y with R(x y) = R(x) R(y)
        for all x are closed under products, so passing on the generators
        means passing everywhere. Raises ToleranceViolation.
        """
        g, m = self.group, self.matrices
        eye = np.eye(self.dim)
        uerr = np.linalg.norm(m.conj().transpose(0, 2, 1) @ m - eye, axis=(1, 2))
        if uerr.max() > _UNITARITY:
            raise ToleranceViolation(
                f"unitarity residual {uerr.max():.3e} above {_UNITARITY:.0e}")
        if np.linalg.norm(m[g.identity] - eye) > _PRODUCT_LAW:
            raise ToleranceViolation("identity element is not the identity matrix")
        n = g.order
        gens = np.asarray(g.generators, dtype=np.int64)
        xs = np.repeat(np.arange(n), len(gens))
        ys = np.tile(gens, n)
        err = np.linalg.norm(m[xs] @ m[ys] - m[g.table[xs, ys]], axis=(1, 2))
        # the trivial group has no generators and nothing beyond the identity
        if err.max(initial=0.0) > _PRODUCT_LAW:
            i = int(err.argmax())
            raise ToleranceViolation(
                f"product law fails at pair ({int(xs[i])}, {int(ys[i])}): "
                f"residual {err.max():.3e}")

    def __repr__(self) -> str:
        flag = "irreducible" if self.is_irreducible else "reducible"
        return f"UnitaryRep(group={self.group.name!r}, dim={self.dim}, {flag})"


class IrrepTable:
    """Complete list of irreducibles for one group, canonically ordered."""

    def __init__(self, group: FiniteGroup, irreps: tuple[UnitaryRep, ...]):
        self.group = group
        self.irreps = tuple(irreps)
        nontrivial = [r.dim for r in self.irreps if not r.is_trivial()]
        # the one-irrep (trivial) group gets d_min = 1 by convention
        self.d_min = min(nontrivial) if nontrivial else 1
        self.character_table = np.array([r.character for r in self.irreps])
        self.character_table.setflags(write=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.irreps)

    def __iter__(self) -> Iterator[UnitaryRep]:
        return iter(self.irreps)

    def __len__(self) -> int:
        return len(self.irreps)

    def __repr__(self) -> str:
        return f"IrrepTable(group={self.group.name!r}, dims={list(self.dims)})"


def _class_average(group: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """Average a per-element class function over classes, checking the spread."""
    out = np.empty(len(group.classes), dtype=np.complex128)
    for ci, cls in enumerate(group.classes):
        vals = values[list(cls)]
        out[ci] = vals.mean()
        if np.max(np.abs(vals - out[ci])) > _CHARACTER_MATCH:
            raise ToleranceViolation(
                f"character varies within class {ci} by "
                f"{np.max(np.abs(vals - out[ci])):.3e}")
    return out


class _SplitFailed(Exception):
    """Internal: a subspace refused to refine within the depth budget."""


def _cluster_slices(eigenvalues: np.ndarray, width: float) -> list[slice]:
    """Chain consecutive eigenvalues closer than width into clusters."""
    breaks = np.nonzero(np.diff(eigenvalues) > width)[0]
    edges = [0] + [int(b) + 1 for b in breaks] + [len(eigenvalues)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _class_character(group: FiniteGroup, left: np.ndarray,
                     basis: np.ndarray) -> np.ndarray:
    """chi(c) = tr(B' R(c) B) = sum_z <B[c^-1 z], B[z]> at one c per class."""
    reps = [cls[0] for cls in group.classes]
    n, d = basis.shape
    return basis[left[reps]].reshape(len(reps), n * d) @ basis.conj().ravel()


def _split(group: FiniteGroup, left: np.ndarray, rng: np.random.Generator,
           basis: np.ndarray | None = None) -> list[np.ndarray]:
    """Eigenspaces of a fresh probe, on span(basis) or, by default, everywhere.

    The probe is the right convolution T[z, w] = f(z^-1 w) by a random f with
    f(x^-1) = conj f(x): it commutes with every left translation and is exactly
    Hermitian. On the whole space f is real, so T is real symmetric; compressed
    to an invariant subspace, f is complex and B' T B commutes with the
    restricted representation, so its eigenspaces are invariant too.
    """
    n = group.order
    a = rng.standard_normal(n)
    if basis is not None:
        a = a + 1j * rng.standard_normal(n)
    probe = ((a + a[group.inverses].conj()) / 2.0)[left]
    if basis is not None:
        probe = basis.conj().T @ (probe @ basis)
    w, v = np.linalg.eigh(probe)
    slices = _cluster_slices(w, _EIGENGAP * max(np.abs(w).max(), 1e-300))
    return [v[:, sl] if basis is None else basis @ v[:, sl] for sl in slices]


def _refine(group: FiniteGroup, left: np.ndarray, basis: np.ndarray,
            rng: np.random.Generator, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the invariant subspace spanned by basis into irreducible pieces.

    Returns (basis, class character) pairs. Raises _SplitFailed when the depth
    budget runs out before everything is irreducible.
    """
    chi = _class_character(group, left, basis)
    norm = np.dot(group.class_sizes, np.abs(chi) ** 2) / group.order
    if abs(norm - 1.0) <= _IRREDUCIBILITY:
        return [(basis, chi)]
    if depth >= _RETRY_BUDGET:
        raise _SplitFailed(f"subspace of dim {basis.shape[1]} would not split")
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for sub in _split(group, left, rng, basis):
        pieces.extend(_refine(group, left, sub, rng, depth + 1))
    return pieces


def _restrict(group: FiniteGroup, left: np.ndarray, basis: np.ndarray,
              tree: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """B' R(x) B for every x: computed on the generators, filled along the tree."""
    n, d = basis.shape
    bc = basis.conj().T
    images = np.array([bc @ basis[left[s]] for s in group.generators],
                      dtype=np.complex128).reshape(-1, d, d)
    mats = np.empty((n, d, d), dtype=np.complex128)
    mats[group.identity] = np.eye(d)
    for children, parents, steps in tree:
        mats[children] = mats[parents] @ images[steps]
    return mats


def _gauge_fix(basis: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """B polar(B' E): the same for every orthonormal basis of span(B)."""
    u, s, vh = np.linalg.svd(basis.conj().T @ anchor[:, :basis.shape[1]])
    if s.min() < _ANCHOR_MIN_SINGULAR:
        raise ToleranceViolation(
            f"gauge anchor is degenerate on a piece of dim {basis.shape[1]}: "
            f"smallest singular value {s.min():.3e}")
    return basis @ (u @ vh)


def _character_key(character: np.ndarray) -> tuple:
    return tuple((round(float(c.real), 6), round(float(c.imag), 6))
                 for c in character)


def decompose(group: FiniteGroup, seed: int = 0) -> IrrepTable:
    """Compute the full unitary irrep table of a group of order <= 700.

    Deterministic given (group, seed). The result is seed independent up to
    irrep isomorphism: dimensions and the character table do not depend on the
    seed, individual matrices may differ by a basis change.
    """
    n = group.order
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"order {n} above decomposition cap {ORDER_CAP}")
    left = group.table[group.inverses]          # left[x][z] = x^-1 * z
    tree = _cayley_tree(group, group.generators)
    # the gauge anchor E: no irrep is wider than isqrt(n), and its stream
    # [seed, _RETRY_BUDGET] is none of the attempts' [seed, attempt]
    gauge = np.random.default_rng([seed, _RETRY_BUDGET])
    width = math.isqrt(n)
    anchor = (gauge.standard_normal((n, width))
              + 1j * gauge.standard_normal((n, width)))
    last: Exception | None = None
    for attempt in range(_RETRY_BUDGET):
        rng = np.random.default_rng([seed, attempt])
        try:
            return _decompose_once(group, left, tree, anchor, rng)
        except _SplitFailed as exc:
            last = exc
    raise DecompositionFailed(
        f"no complete decomposition of {group.name} after {_RETRY_BUDGET} "
        f"reseeded attempts: {last}")


def _decompose_once(group: FiniteGroup, left: np.ndarray,
                    tree: list[tuple[np.ndarray, ...]], anchor: np.ndarray,
                    rng: np.random.Generator) -> IrrepTable:
    n = group.order
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for sub in _split(group, left, rng):
        pieces.extend(_refine(group, left, sub, rng, depth=0))

    # dedup isomorphic copies by class character
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for basis, chi in pieces:
        if any(np.max(np.abs(chi - k)) <= _CHARACTER_MATCH
               for _, k in kept):
            continue
        kept.append((basis, chi))

    dims = [b.shape[1] for b, _ in kept]
    if sum(d * d for d in dims) != n:
        raise ToleranceViolation(
            f"irrep dimensions {sorted(dims)} do not satisfy sum d^2 = {n}")
    if len(kept) != len(group.classes):
        raise ToleranceViolation(
            f"found {len(kept)} irreps but {len(group.classes)} classes")

    reps = []
    for basis, chi in kept:
        basis = _gauge_fix(basis, anchor)
        # character=None: the traces of every element are class averaged with
        # their spread checked, and irreducibility is read on every element
        rep = UnitaryRep(group, _restrict(group, left, basis, tree))
        if not rep.is_irreducible:
            raise ToleranceViolation(f"piece of dim {rep.dim} is reducible")
        gap = np.max(np.abs(rep.character - chi))
        if gap > _CHARACTER_MATCH:
            raise ToleranceViolation(
                f"piece of dim {rep.dim}: traces differ from its class "
                f"character by {gap:.3e}")
        reps.append(rep)

    trivial = [r for r in reps if r.is_trivial()]
    if len(trivial) != 1:
        raise ToleranceViolation(f"expected exactly one trivial irrep, got {len(trivial)}")
    rest = sorted((r for r in reps if not r.is_trivial()),
                  key=lambda r: (r.dim, _character_key(r.character)))
    ordered = tuple(trivial + rest)
    for rep in ordered:
        rep.validate()
    return IrrepTable(group, ordered)


def frobenius_schur(rho: UnitaryRep) -> int:
    """E_x chi(x^2), snapped to {-1, 0, +1}.

    Raises ToleranceViolation when the average is not within 1e-6 of an
    admissible indicator value, and ValueError for reducible input.
    """
    if not rho.is_irreducible:
        raise ValueError("Frobenius-Schur indicator needs an irreducible rep")
    chi = rho.character_on_elements()
    raw = np.mean(chi[rho.group.squares()])
    snapped = int(round(raw.real))
    if snapped not in (-1, 0, 1) or abs(raw - snapped) > 1e-6:
        raise ToleranceViolation(f"indicator average {raw} is not near -1, 0, or +1")
    return snapped
