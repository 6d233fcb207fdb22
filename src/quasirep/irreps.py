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

The real probe is solved by blocks, not as one dense n x n eigh. T commutes
with left translation by an element h of largest order k, so each eigenspace
of T is the direct sum of its parts in the k eigenspaces of that
translation, and T acts on each of those as an (n / k) x (n / k) block, read
off one real FFT of f over the orbits {h^j a}. Lifted, the blocks'
eigenvectors form an orthonormal eigenbasis of the same T, so the
eigenvalues, hence the clusters, and the span of each cluster are the dense
solve's to roundoff; only the basis inside a cluster differs. Nothing below
reads that basis: characters are traces, a compressed probe's eigenspaces
are subspaces of the span, and the gauge fix depends on the span alone. So
the same draw of f gives the same bases.

On an invariant subspace with orthonormal basis B the character of
B' R(x) B is a class function, read at one representative c per class as
chi(c) = sum_z <B[c^-1 z], B[z]>, and the piece is irreducible when
sum_c |C| |chi(c)|^2 / |G| = 1. The characters of all clusters of one probe
are read in one pass: one gather of the rows per class gives every
eigenvector's share, summed per cluster.

The real probe's clusters are copies: an irrep of real type fills dim(rho)
of them, a complex pair dim(rho), a quaternionic irrep dim(rho) / 2. Only the
first cluster of each class character, in ascending eigenvalue order, is
refined, so a group is split once per irrep and not once per copy. A later
copy of a reducible character still takes the draws of the compressed probe
that would split it, so a seed gives the same bases whichever copies are
refined. The refined pieces are deduplicated by character once more: one
cluster of a quaternionic irrep holds two copies.

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
# matrix entries per block of validate's temporaries: blocks of a few hundred
# KiB keep the heap from growing by whole stacks of matrices
_BLOCK_ENTRIES = 2 ** 15
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
        means passing everywhere. For each block of elements and each
        generator s, one product of the stacked (rows d, d) matrices with R(s)
        gives every R(x) R(s). A failure names the pair with the largest
        residual, the first in x-major order among equals. Raises
        ToleranceViolation.
        """
        g, m = self.group, self.matrices
        n, d = m.shape[:2]
        eye = np.eye(self.dim)
        rows = max(1, _BLOCK_ENTRIES // (d * d))
        blocks = [slice(a, a + rows) for a in range(0, n, rows)]
        uerr = np.empty(n)
        for b in blocks:
            gram = m[b].conj().transpose(0, 2, 1) @ m[b]
            gram -= eye
            uerr[b] = _frobenius(gram)
        if uerr.max() > _UNITARITY:
            raise ToleranceViolation(
                f"unitarity residual {uerr.max():.3e} above {_UNITARITY:.0e}")
        if np.linalg.norm(m[g.identity] - eye) > _PRODUCT_LAW:
            raise ToleranceViolation("identity element is not the identity matrix")
        err = np.empty((n, len(g.generators)))
        for b in blocks:
            stack = m[b].reshape(-1, d)
            for j, s in enumerate(g.generators):
                residual = (stack @ m[s]).reshape(-1, d, d)
                residual -= m[g.table[b, s]]
                err[b, j] = _frobenius(residual)
        # the trivial group has no generators and nothing beyond the identity
        if err.max(initial=0.0) > _PRODUCT_LAW:
            x, j = np.unravel_index(err.argmax(), err.shape)
            raise ToleranceViolation(
                f"product law fails at pair ({int(x)}, {g.generators[j]}): "
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


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack, read as real numbers."""
    flat = stack.view(np.float64).reshape(len(stack), -1)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _class_average(group: FiniteGroup, values: np.ndarray) -> np.ndarray:
    """Average a per-element class function over classes, checking the spread."""
    sizes = np.bincount(group.class_of)
    out = (np.bincount(group.class_of, values.real)
           + 1j * np.bincount(group.class_of, values.imag)) / sizes
    spread = np.abs(values - out[group.class_of])
    over = group.class_of[spread > _CHARACTER_MATCH]
    if over.size:
        ci = int(over.min())
        raise ToleranceViolation(
            f"character varies within class {ci} by "
            f"{spread[group.class_of == ci].max():.3e}")
    return out


class _SplitFailed(Exception):
    """Internal: a subspace refused to refine within the depth budget."""


def _cluster_slices(eigenvalues: np.ndarray, width: float) -> list[slice]:
    """Chain consecutive eigenvalues closer than width into clusters."""
    breaks = np.nonzero(np.diff(eigenvalues) > width)[0]
    edges = [0] + [int(b) + 1 for b in breaks] + [len(eigenvalues)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _cluster_characters(group: FiniteGroup, left: np.ndarray,
                        vectors: np.ndarray, slices: list[slice]) -> np.ndarray:
    """Class character of each cluster of columns B of vectors, one row each.

    chi(c) = tr(B' R(c) B) = sum_z <B[c^-1 z], B[z]> at one c per class. Each
    gather of the rows at c^-1 z gives every column's share for its classes,
    and the shares are summed per cluster. A gather holds at most |G|^2
    entries: one class for the whole space, many for a narrow subspace.
    """
    n, m = vectors.shape
    conj = vectors.conj()
    rows = left[[cls[0] for cls in group.classes]]
    step = max(1, n // m)
    shares = np.concatenate([
        np.einsum("cij,ij->cj", np.take(vectors, rows[i:i + step], axis=0), conj)
        for i in range(0, len(rows), step)])
    return np.add.reduceat(shares, [sl.start for sl in slices], axis=1).T


def _irreducible(group: FiniteGroup, characters: np.ndarray) -> np.ndarray:
    """sum_c |C| |chi(c)|^2 / |G| = 1, for each row of characters."""
    norms = np.abs(characters) ** 2 @ np.bincount(group.class_of) / group.order
    return np.abs(norms - 1.0) <= _IRREDUCIBILITY


def _first_copies(characters: np.ndarray) -> np.ndarray:
    """Mask of the rows that match no earlier first copy within _CHARACTER_MATCH.

    Each row is compared with the first copies seen so far in one array
    operation.
    """
    seen = np.empty_like(characters)
    first = np.zeros(len(characters), dtype=bool)
    count = 0
    for i, chi in enumerate(characters):
        if not np.any(np.max(np.abs(seen[:count] - chi), axis=1) <= _CHARACTER_MATCH):
            seen[count] = chi
            count += 1
            first[i] = True
    return first


def _probe_function(group: FiniteGroup, rng: np.random.Generator,
                    compressed: bool) -> np.ndarray:
    """A random f with f(x^-1) = conj f(x), complex for a compressed probe and
    real for the probe of the whole space."""
    a = rng.standard_normal(group.order)
    if compressed:
        a = a + 1j * rng.standard_normal(group.order)
    return (a + a[group.inverses].conj()) / 2.0


def _cyclic_orbits(group: FiniteGroup) -> np.ndarray:
    """The orbits {h^j a} of left translation by <h>, for the first element h
    of largest order k: an (n / k, k) array whose row i holds h^j a_i, j =
    0..k-1, with a_i the least index of its orbit."""
    table, identity = group.table, group.identity
    elements = np.arange(group.order)
    orders = np.zeros(group.order, dtype=np.int64)
    power, t = elements, 1
    while True:
        orders[(power == identity) & (orders == 0)] = t
        if orders.all():
            break
        power, t = table[power, elements], t + 1
    h, k = int(orders.argmax()), int(orders.max())
    cycle = [identity]
    for _ in range(k - 1):
        cycle.append(int(table[cycle[-1], h]))
    powers = table[cycle]                      # powers[j, x] = h^j x
    return powers[:, np.unique(powers.min(axis=0))].T


def _regular_eigh(group: FiniteGroup, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and real orthonormal eigenvectors of the real
    symmetric probe T[z, w] = f(z^-1 w), for a real f with f(x^-1) = f(x).

    With z = h^j a_i over the _cyclic_orbits, T[h^j a_i, h^l a_r] =
    G[l - j mod k, i, r] for G[t, i, r] = f(a_i^-1 h^t a_r): T is block
    circulant, with the k diagonal blocks B_s = sum_t G[t] e^(-2 pi i s t / k)
    of size m = n / k, and one real FFT of G over t gives those with
    s <= k/2. If B_s u = lambda u, then v(h^j a_i) = e^(-2 pi i s j / k)
    u_i / sqrt(k) has T v = lambda v. B_0, and B_(k/2) for even k, are real
    symmetric and give real v. The other blocks are Hermitian with
    B_(k-s) = conj(B_s), so only s < k/2 is solved, and each of its v,
    orthogonal to conj(v), gives the two real eigenvectors sqrt(2) Re v and
    sqrt(2) Im v.
    """
    n = group.order
    orbits = _cyclic_orbits(group)
    m, k = orbits.shape
    gathered = f[group.table[group.inverses[orbits[:, 0]][None, :, None],
                             orbits.T[:, None, :]]]
    blocks = np.fft.rfft(gathered, axis=0)
    real = [0, k // 2] if k % 2 == 0 else [0]
    w_real, u_real = np.linalg.eigh(blocks[real].real)
    w_complex, u_complex = np.linalg.eigh(blocks[1:(k + 1) // 2])
    w = np.concatenate([w_real.ravel(), np.repeat(w_complex.ravel(), 2)])
    order = np.argsort(w, kind="stable")
    column = np.empty(n, dtype=np.int64)
    column[order] = np.arange(n)
    # one block at a time, so no temporary outgrows an n x 2m slab
    vectors = np.empty((n, n))
    rows = orbits.reshape(-1, 1)
    j = np.arange(k)
    start = 0
    for s, u in zip(real + list(range(1, (k + 1) // 2)),
                    list(u_real) + list(u_complex)):
        phase = np.exp(-2j * np.pi * (s * j % k) / k)
        if np.isrealobj(u):
            lifted = u[:, None, :] * (phase.real / math.sqrt(k))[:, None]
        else:
            # interleaved real and imaginary parts: sqrt(2) Re v, sqrt(2) Im v
            lifted = (u[:, None, :] * (phase * math.sqrt(2.0 / k))[:, None]).view(np.float64)
        width = lifted.shape[2]
        vectors[rows, column[start:start + width]] = lifted.reshape(n, width)
        start += width
    return w[order], vectors


def _split(group: FiniteGroup, left: np.ndarray, rng: np.random.Generator,
           basis: np.ndarray | None = None) -> tuple[np.ndarray, list[slice]]:
    """Eigenvectors of a fresh probe, on span(basis) or, by default, everywhere.

    Returns the eigenvectors as columns, in ascending eigenvalue order, and
    the slices of their eigenvalue clusters. The probe is the right
    convolution T[z, w] = f(z^-1 w) by a _probe_function f: it commutes with
    every left translation and is exactly Hermitian. On the whole space f is
    real, so T is real symmetric and _regular_eigh solves it by blocks;
    compressed to an invariant subspace, f is complex and B' T B commutes
    with the restricted representation, so its eigenspaces are invariant too.
    """
    f = _probe_function(group, rng, basis is not None)
    if basis is None:
        w, v = _regular_eigh(group, f)
    else:
        w, v = np.linalg.eigh(basis.conj().T @ (f[left] @ basis))
        v = basis @ v
    slices = _cluster_slices(w, _EIGENGAP * max(np.abs(w).max(), 1e-300))
    return v, slices


def _refine(group: FiniteGroup, left: np.ndarray, basis: np.ndarray,
            chi: np.ndarray, irreducible: bool, rng: np.random.Generator,
            depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the invariant subspace spanned by basis into irreducible pieces.

    chi is the class character of the subspace and irreducible its test.
    Returns (basis, class character) pairs. Raises _SplitFailed when the
    depth budget runs out before everything is irreducible.
    """
    if irreducible:
        return [(basis, chi)]
    if depth >= _RETRY_BUDGET:
        raise _SplitFailed(f"subspace of dim {basis.shape[1]} would not split")
    vectors, slices = _split(group, left, rng, basis)
    characters = _cluster_characters(group, left, vectors, slices)
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for sl, sub, irr in zip(slices, characters, _irreducible(group, characters)):
        pieces.extend(_refine(group, left, vectors[:, sl], sub, irr, rng, depth + 1))
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


def _canonical_order(reps: list[UnitaryRep]) -> list[UnitaryRep]:
    """Sort by dimension, then by the class character rounded to 6 decimals,
    read as (real, imaginary) pairs class by class."""
    if not reps:
        return reps
    rounded = np.round(np.array([r.character for r in reps]), 6)
    keys = np.column_stack([[r.dim for r in reps],
                            np.stack([rounded.real, rounded.imag], axis=2)
                            .reshape(len(reps), -1)])
    return [reps[i] for i in np.lexsort(keys.T[::-1])]


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
    # the first probe cuts the whole space into clusters, copies of each
    # isomorphism type; only the first copy of each class character is refined
    vectors, slices = _split(group, left, rng)
    characters = _cluster_characters(group, left, vectors, slices)
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for sl, chi, irr, first in zip(slices, characters, _irreducible(group, characters),
                                   _first_copies(characters)):
        if first:
            pieces.extend(_refine(group, left, vectors[:, sl], chi, irr, rng, depth=0))
        elif not irr:
            # a reducible copy still takes the draws of the compressed probe
            # that would split it, so a seed gives the same bases whichever
            # copies are refined
            _probe_function(group, rng, compressed=True)

    # a refined cluster can hold two copies of one irrep (quaternionic type)
    # and, when clusters merge, pieces of other clusters
    kept = [piece for piece, first
            in zip(pieces, _first_copies(np.array([chi for _, chi in pieces])))
            if first]

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
    ordered = tuple(trivial + _canonical_order([r for r in reps if not r.is_trivial()]))
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
