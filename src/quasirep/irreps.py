"""Numerical unitary irreducible representations.

The character table comes first, from the class algebra (Dixon's method;
J. D. Dixon, "High speed computation of group characters", Numer. Math. 10,
1967). A random self-adjoint central element z = sum_C a(C) C acts on the
class sums by a matrix that one sqrt|C| scaling makes Hermitian: its
eigenvectors are the characters, its eigenvalues the central characters
omega_chi(z). A draw with two eigenvalues within the clustering width is
rejected. Each degree chi(1) must lie within 1e-6 of an integer, and the
squared degrees must sum to |G|. degrees() stops here: the degrees are
all that the map bounds read. An irrep of dim 1 is its character, snapped to
roots of unity, so an abelian group needs nothing more.

The irreps of dim >= 2 come from the regular representation, never
materialized. A matrix that commutes with every left translation is a right
convolution, T[x, y] = f(x^-1 y), Hermitian when f(x^-1) = conj f(x), and its
eigenspaces are invariant (J. D. Dixon, "Computing irreducible
representations of groups", Math. Comp. 24, 1970). The probe takes f real,
so T is real symmetric, and T commutes with left translation by an element h
of largest order k: one gather and FFT over the orbits {h^j a} give k blocks
of size n / k, of which only s <= k/2 are solved, block k - s being the
conjugate of block s. Its eigenvalue clusters are copies: an irrep rho of
real type fills dim(rho) of them, a complex pair rho + conj(rho) dim(rho),
and a quaternionic irrep dim(rho) / 2, two copies each.

z's blocks come from the same gather and FFT. Being central, z maps each
cluster's part of each block to itself, and an eigh of U' Z_s U there gives
eigenvectors typed by their eigenvalue omega_chi(z), with no lift to the
whole space and no character gather. Only the first whole copy of each irrep
is lifted; a complex pair comes apart by type. Two copies of one irrep are
split by a fresh complex probe compressed to their span, B' T B, which
commutes with the restricted representation: one draw for each irrep so
split, in cluster order.

Attempt j draws its probes from the stream [seed, j]; the gauge anchor and
then each attempt's z come from [seed, _RETRY_BUDGET]. An attempt whose draws
do not separate what they must is retried. Each kept basis is gauge fixed,
B -> B polar(B' E), a function of span(B) alone, so neither the eigensolver's
basis nor the BLAS summation order moves the matrices beyond roundoff. The
restriction B' R(s) B is computed for the generators s only and filled along
a breadth-first Cayley-graph tree, rho(x s) = rho(x) rho(s).

The final representations are checked on every element: their traces must be
constant on classes, irreducible and equal to the table's character, and the
product law is validated exhaustively. The table is ordered canonically
(trivial first, then by dimension and character).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .errors import DecompositionFailed, OrderCapExceeded, ToleranceViolation
from .groups import FiniteGroup, _cayley_tree, _element_orders

__all__ = [
    "UnitaryRep",
    "IrrepDegrees",
    "IrrepTable",
    "degrees",
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
# the allowed spread of traces within one class, and the largest distance of
# a degree chi(1) from an integer
_CHARACTER_MATCH = 1e-6
# eigenvalue clustering width, relative to the largest |eigenvalue| of a probe
_EIGENGAP = 1e-7
# smallest singular value of B' E accepted by the gauge fix
_ANCHOR_MIN_SINGULAR = 1e-10


class UnitaryRep:
    """A unitary representation given by one matrix per group element.

    The character and the irreducibility flag are measured from the matrices
    at construction, never supplied: the traces of every element are class
    averaged, and traces that spread by more than 1e-6 within a class raise
    ToleranceViolation. Unitarity and the product law are checked by validate.

    The rep takes ownership of the matrices: a C-contiguous complex128 array
    is kept without a copy and made read-only, the caller's array included.

    Attributes:
        group: the underlying FiniteGroup.
        dim: matrix dimension.
        matrices: (|G|, dim, dim) complex array.
        character: per-conjugacy-class character values.
        is_irreducible: whether E|chi|^2 = 1 held, within 1e-6.
    """

    def __init__(self, group: FiniteGroup, matrices: np.ndarray):
        shape = np.shape(matrices)
        if len(shape) != 3 or shape != (group.order, shape[1], shape[1]):
            raise ValueError(f"matrices must be (|G|, d, d), got {shape}")
        matrices = np.ascontiguousarray(matrices, dtype=np.complex128)
        self.group = group
        self.dim = matrices.shape[1]
        self.matrices = matrices
        self.character = _class_average(group, np.trace(matrices, axis1=1, axis2=2))
        chi = self.character_on_elements()
        self.is_irreducible = bool(abs(np.mean(np.abs(chi) ** 2) - 1.0) <= _IRREDUCIBILITY)
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
        means passing everywhere (approx._agreement_bound makes this
        quantitative for residuals above zero). The residuals come from
        _generator_residuals. A failure names the pair with the largest
        residual, the first in x-major order among equals. Raises
        ToleranceViolation.
        """
        g, m = self.group, self.matrices
        uerr = _unitarity_residuals(m)
        if uerr.max() > _UNITARITY:
            raise ToleranceViolation(
                f"unitarity residual {uerr.max():.3e} above {_UNITARITY:.0e}")
        if np.linalg.norm(m[g.identity] - np.eye(self.dim)) > _PRODUCT_LAW:
            raise ToleranceViolation("identity element is not the identity matrix")
        err = _generator_residuals(g, m)
        # the trivial group has no generators and nothing beyond the identity
        if err.max(initial=0.0) > _PRODUCT_LAW:
            x, j = np.unravel_index(err.argmax(), err.shape)
            raise ToleranceViolation(
                f"product law fails at pair ({int(x)}, {g.generators[j]}): "
                f"residual {err.max():.3e}")

    def __repr__(self) -> str:
        flag = "irreducible" if self.is_irreducible else "reducible"
        return f"UnitaryRep(group={self.group.name!r}, dim={self.dim}, {flag})"


class IrrepDegrees:
    """The irrep degrees of a group: all that the map bounds read.

    degrees() reads them off the class-algebra characters before any irrep
    matrix is formed; an IrrepTable is one too, with its irreps' dims, so
    homs.evaluate and homs.r_h take either.

    Attributes:
        group: the underlying FiniteGroup.
        dims: irrep dimensions in canonical order, the trivial irrep first.
        d_min: smallest nontrivial dimension, 1 for the trivial group.
    """

    def __init__(self, group: FiniteGroup, dims):
        self.group = group
        self.dims = tuple(int(d) for d in dims)
        # dims[0] is the trivial irrep's; the one-irrep (trivial) group gets
        # d_min = 1 by convention
        self.d_min = min(self.dims[1:], default=1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(group={self.group.name!r}, dims={list(self.dims)})"


class IrrepTable(IrrepDegrees):
    """Complete list of irreducibles for one group, canonically ordered."""

    def __init__(self, group: FiniteGroup, irreps: tuple[UnitaryRep, ...]):
        self.irreps = tuple(irreps)
        super().__init__(group, (r.dim for r in self.irreps))
        self.character_table = np.array([r.character for r in self.irreps])
        self.character_table.setflags(write=False)

    def __iter__(self) -> Iterator[UnitaryRep]:
        return iter(self.irreps)

    def __len__(self) -> int:
        return len(self.irreps)


def _squared_frobenius(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a complex stack, read in place
    as real numbers; the row width is explicit so an empty stack works."""
    flat = stack.view(np.float64).reshape(len(stack), 2 * math.prod(stack.shape[1:]))
    return np.einsum("ij,ij->i", flat, flat)


# complex entries per block of every temporary that grows with the pairs:
# a few hundred KiB, so the heap never grows by whole stacks of matrices
_BLOCK_ENTRIES = 2 ** 15


def _block_rows(width: int) -> int:
    """Rows per block of a temporary whose rows hold width entries each."""
    return max(1, _BLOCK_ENTRIES // width)


def _generator_residuals(group: FiniteGroup, matrices: np.ndarray) -> np.ndarray:
    """||M(x s) - M(x) M(s)||_F for every x and each generator s, as (n, |S|).

    For each block of elements and each generator s, one product of the
    stacked (rows d, d) matrices with M(s) gives every M(x) M(s).
    """
    n, d = matrices.shape[:2]
    err = np.empty((n, len(group.generators)))
    rows = _block_rows(d * d)
    for b in (slice(a, a + rows) for a in range(0, n, rows)):
        stack = matrices[b].reshape(-1, d)
        for j, s in enumerate(group.generators):
            residual = (stack @ matrices[s]).reshape(-1, d, d)
            residual -= matrices[group.table[b, s]]
            err[b, j] = np.sqrt(_squared_frobenius(residual))
    return err


def _unitarity_residuals(matrices: np.ndarray) -> np.ndarray:
    """||M' M - 1||_F for each matrix of an (n, d, d) stack, in blocks."""
    n, d = matrices.shape[:2]
    out = np.empty(n)
    rows = _block_rows(d * d)
    for a in range(0, n, rows):
        block = matrices[a:a + rows]
        gram = block.conj().transpose(0, 2, 1) @ block
        gram -= np.eye(d)
        out[a:a + rows] = np.sqrt(_squared_frobenius(gram))
    return out


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
    """Internal: a draw did not separate what it must; the attempt is retried."""


def _cluster_slices(eigenvalues: np.ndarray, width: float) -> list[slice]:
    """Chain consecutive eigenvalues closer than width into clusters."""
    breaks = np.nonzero(np.diff(eigenvalues) > width)[0]
    edges = [0] + [int(b) + 1 for b in breaks] + [len(eigenvalues)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _width(eigenvalues: np.ndarray) -> float:
    """The clustering width of a spectrum, relative to its largest |eigenvalue|."""
    return _EIGENGAP * max(np.abs(eigenvalues).max(), 1e-300)


def _central_element(group: FiniteGroup, rng: np.random.Generator) -> np.ndarray:
    """Class coefficients a with a(C^-1) = conj a(C): z = sum_C a(C) C is
    central and self-adjoint."""
    k = len(group.classes)
    a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    inverse = group.class_of[group.inverses[[c[0] for c in group.classes]]]
    return (a + a[inverse].conj()) / 2.0


def _character_table(group: FiniteGroup, a: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending omega_chi(z), the characters as rows in that order, and
    the row of each one's complex conjugate, for z = sum_C a(C) C.

    z C_i = sum_l M[l, i] C_l with M[l, i] = sum_{x in C_i} a(r_l x^-1), r_l
    in C_l. D^1/2 M D^-1/2, D = diag |C|, is Hermitian, with eigenvectors
    conj chi(C) sqrt(|C| / |G|) up to phase and eigenvalues
    omega_chi(z) = sum_C a(C) |C| chi(C) / chi(1). Raises _SplitFailed when
    two omega are within the clustering width.
    """
    sizes = np.bincount(group.class_of)
    k = len(sizes)
    at = group.table[[c[0] for c in group.classes]][:, group.inverses]
    m = np.zeros((k, k), dtype=np.complex128)
    np.add.at(m, (np.arange(k)[:, None], group.class_of), a[group.class_of[at]])
    root = np.sqrt(sizes)
    omega, v = np.linalg.eigh(m * root[:, None] / root)
    if np.any(np.diff(omega) <= _width(omega)):
        raise _SplitFailed("two irreps share an eigenvalue of the central element")
    characters = (v * (np.abs(v[0]) / v[0])).conj().T * (math.sqrt(group.order) / root)
    bar = (characters.conj() @ (a * sizes)).real / characters[:, 0].real
    return omega, characters, np.abs(bar[:, None] - omega).argmin(axis=1)


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
    orders = _element_orders(group)
    h, k = int(orders.argmax()), int(orders.max())
    cycle = [group.identity]
    for _ in range(k - 1):
        cycle.append(int(group.table[cycle[-1], h]))
    powers = group.table[cycle]                # powers[j, x] = h^j x
    return powers[:, np.unique(powers.min(axis=0))].T


def _typed_probe(group: FiniteGroup, f: np.ndarray, z: np.ndarray,
                 omega: np.ndarray, conjugate: np.ndarray) -> tuple[np.ndarray, ...]:
    """The eigenvectors of T[x, y] = f(x^-1 y) for a real f, solved by
    blocks, each typed by T_z for the central element z on elements.

    On the orbits, T[h^j a_i, h^l a_r] = G[l - j mod k, i, r] with
    G[t, i, r] = f(a_i^-1 h^t a_r): if P_s = sum_t G[t] e^(-2 pi i s t / k)
    has P_s u = lambda u, then v(h^j a_i) = e^(-2 pi i s j / k) u_i / sqrt(k)
    has T v = lambda v, and block k - s is the conjugate of block s. Returns
    the orbits and, for all n eigenvectors, the block s, the vector u (rows),
    the cluster in ascending eigenvalue order and the irrep, len(omega) where
    none matches.
    """
    orbits = _cyclic_orbits(group)
    m, k = orbits.shape
    half = k // 2 + 1
    at = group.table[group.inverses[orbits[:, 0]][None, :, None], orbits.T[:, None, :]]
    probe, central = np.fft.fft(np.stack([f[at], z[at]]), axis=1)[:, :half]
    real, pairs = ([0, k // 2] if k % 2 == 0 else [0]), slice(1, (k + 1) // 2)
    w = np.empty((half, m))
    u = np.empty((half, m, m), dtype=np.complex128)
    w[real], u[real] = np.linalg.eigh(probe[real].real)
    w[pairs], u[pairs] = np.linalg.eigh(probe[pairs])
    order = np.argsort(w.ravel(), kind="stable")
    slices = _cluster_slices(w.ravel()[order], _width(w))
    cluster = np.empty(w.size, dtype=np.int64)
    cluster[order] = np.repeat(np.arange(len(slices)), [sl.stop - sl.start for sl in slices])
    # z is central, so Z_s maps each cluster's part of block s, a run of the
    # block's ascending eigenvalues, to itself: an eigh of U' Z_s U on each
    # run, batched over runs of one length, gives eigenvectors of both
    y = u.conj().transpose(0, 2, 1) @ central @ u
    values = np.diagonal(y, axis1=1, axis2=2).real.copy()
    first = np.ones((half, m), dtype=bool)
    first[:, 1:] = np.diff(cluster.reshape(half, m)) != 0
    starts = np.flatnonzero(first)
    lengths = np.diff(np.append(starts, first.size))
    for p in np.unique(lengths[lengths > 1]):
        s, a = np.divmod(starts[lengths == p], m)
        s, cols = s[:, None], a[:, None] + np.arange(p)
        values[s, cols], rot = np.linalg.eigh(y[s[:, :, None], cols[:, :, None], cols[:, None, :]])
        u[s, :, cols] = rot.transpose(0, 2, 1) @ u[s, :, cols]
    irrep = np.abs(values.reshape(-1, 1) - omega).argmin(axis=1)
    irrep[np.abs(values.ravel() - omega[irrep]) > _width(omega) / 2] = len(omega)
    # a vector of a block 0 < s < k/2, conjugated, is one of block k - s of
    # the conjugate irrep
    block = np.repeat(np.arange(half), m)
    vectors = u.transpose(0, 2, 1).reshape(-1, m)
    paired = (block > 0) & (2 * block != k)
    return (orbits, np.concatenate([block, k - block[paired]]),
            np.concatenate([vectors, vectors[paired].conj()]),
            np.concatenate([cluster, cluster[paired]]),
            np.concatenate([irrep, np.append(conjugate, len(omega))[irrep[paired]]]))


def _lift(orbits: np.ndarray, block: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The eigenvectors v(h^j a_i) = e^(-2 pi i s j / k) u_i / sqrt(k) of T, as
    columns, for block eigenvectors u (rows) of the blocks s."""
    k = orbits.shape[1]
    phase = np.exp(-2j * np.pi * (np.outer(np.arange(k), block) % k) / k) / math.sqrt(k)
    lifted = np.empty((orbits.size, len(block)), dtype=np.complex128)
    lifted[orbits] = vectors.T[:, None, :] * phase
    return lifted


def _probe_bases(group: FiniteGroup, z: np.ndarray, omega: np.ndarray,
                 conjugate: np.ndarray, dims: np.ndarray,
                 rng: np.random.Generator) -> dict[int, np.ndarray]:
    """An orthonormal basis of one invariant subspace per irrep of dim >= 2,
    keyed by its row of the table: its eigenvectors in the first cluster that
    is a whole copy of it. A whole cluster holds, for an irrep rho of dim d,
    either d eigenvectors of rho and d of conj(rho) (once if rho is real),
    or 2d of a real rho, and nothing else."""
    f = _probe_function(group, rng, compressed=False)
    orbits, block, vectors, cluster, irrep = _typed_probe(group, f, z, omega, conjugate)
    counts = np.zeros((cluster.max() + 1, len(omega) + 1), dtype=np.int64)
    np.add.at(counts, (cluster, irrep), 1)
    rows, total = np.arange(len(counts)), counts.sum(axis=1)
    rho = counts[:, :-1].argmax(axis=1)
    mine, d, real = counts[rows, rho], dims[rho], conjugate[rho] == rho
    whole = ((total == np.where(real, 1, 2) * mine) & (counts[rows, conjugate[rho]] == mine)
             & ((mine == d) | ((mine == 2 * d) & real)))
    big = np.flatnonzero(dims > 1)
    copies = whole[:, None] & (counts[:, big] > 0)
    if not copies.any(axis=0).all():
        missing = big[~copies.any(axis=0)][0]
        raise _SplitFailed(f"no whole copy of an irrep of dim {dims[missing]}")
    first = dict(zip(big, copies.argmax(axis=0)))
    bases = {}
    for r, c in first.items():
        keep = (cluster == c) & (irrep == r)
        bases[r] = _lift(orbits, block[keep], vectors[keep])
    # each cluster kept with two copies of one irrep takes a compressed draw,
    # in cluster order
    doubles = {c: r for r, c in first.items() if mine[c] == 2 * dims[r]}
    for c in sorted(doubles):
        g = _probe_function(group, rng, compressed=True)
        bases[doubles[c]] = _split_copies(group, g, bases[doubles[c]], d[c])
    return bases


def _split_copies(group: FiniteGroup, g: np.ndarray, basis: np.ndarray,
                  d: int) -> np.ndarray:
    """One of two copies of an irrep of dim d: the lowest eigenspace of the
    compressed probe B' T B, T[x, y] = g(x^-1 y), on their span."""
    w, v = np.linalg.eigh((basis.conj().T @ g[group.table[group.inverses]]) @ basis)
    lowest = _cluster_slices(w, _width(w))[0]
    if lowest.stop != d:
        raise _SplitFailed(f"two copies of an irrep of dim {d} would not split")
    return basis @ v[:, lowest]


def _restrict(group: FiniteGroup, basis: np.ndarray,
              tree: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """B' R(x) B for every x: computed on the generators, filled along the tree."""
    n, d = basis.shape
    bc = basis.conj().T
    images = np.array([bc @ basis[group.table[group.inverses[s]]] for s in group.generators],
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


def _class_algebra(group: FiniteGroup, gauge: np.random.Generator
                   ) -> tuple[np.ndarray, ...]:
    """One attempt's first stage: the class coefficients a of a central
    element drawn from gauge, then _character_table's omega, characters and
    conjugate rows for it, and the degrees chi(1) rounded to integers.

    A degree more than 1e-6 from an integer, or degrees whose squares do not
    sum to |G|, raise ToleranceViolation; a draw that does not separate the
    characters raises _SplitFailed.
    """
    a = _central_element(group, gauge)
    omega, characters, conjugate = _character_table(group, a)
    degrees = characters[:, 0]
    dims = np.rint(degrees.real).astype(np.int64)
    off = np.abs(degrees - dims)
    if off.max() > _CHARACTER_MATCH:
        raise ToleranceViolation(
            f"irrep degree {degrees[off.argmax()].real:.9g} is {off.max():.3e} "
            "from an integer")
    if dims @ dims != group.order:
        raise ToleranceViolation(
            f"irrep dimensions {sorted(dims.tolist())} do not satisfy "
            f"sum d^2 = {group.order}")
    return a, omega, characters, conjugate, dims


def _first_split(group: FiniteGroup, seed: int, finish: Callable):
    """finish(group, stage, anchor, rng) for the first attempt whose draws
    split what they must, stage being _class_algebra's output.

    The gauge anchor E (no irrep is wider than isqrt(n)) and then each
    attempt's central element come from the stream [seed, _RETRY_BUDGET],
    which is none of the attempts' [seed, attempt]; attempt j's probes come
    from [seed, j]. The anchor is drawn even when finish has no use for it,
    so that every caller sees the same central elements. finish raises
    _SplitFailed to retry.
    """
    n = group.order
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"order {n} above decomposition cap {ORDER_CAP}")
    gauge = np.random.default_rng([seed, _RETRY_BUDGET])
    width = math.isqrt(n)
    anchor = (gauge.standard_normal((n, width))
              + 1j * gauge.standard_normal((n, width)))
    last: Exception | None = None
    for attempt in range(_RETRY_BUDGET):
        try:
            stage = _class_algebra(group, gauge)
            return finish(group, stage, anchor, np.random.default_rng([seed, attempt]))
        except _SplitFailed as exc:
            last = exc
    raise DecompositionFailed(
        f"no complete decomposition of {group.name} after {_RETRY_BUDGET} "
        f"reseeded attempts: {last}")


def degrees(group: FiniteGroup) -> IrrepDegrees:
    """The irrep degrees of a group of order <= 700, from its character table.

    decompose's first stage with its draws at seed 0, so the dims and d_min
    are decompose(group)'s, which no seed changes; no probe is drawn and no
    irrep matrix formed.
    """
    # ascending order is canonical: the trivial irrep's 1 comes first
    return _first_split(group, 0, lambda group, stage, anchor, rng:
                        IrrepDegrees(group, sorted(stage[-1])))


def decompose(group: FiniteGroup, seed: int = 0) -> IrrepTable:
    """Compute the full unitary irrep table of a group of order <= 700.

    Deterministic given (group, seed). The result is seed independent up to
    irrep isomorphism: dimensions and the character table do not depend on the
    seed, individual matrices may differ by a basis change.
    """
    return _first_split(group, seed, _decompose_once)


def _decompose_once(group: FiniteGroup, stage: tuple[np.ndarray, ...],
                    anchor: np.ndarray, rng: np.random.Generator) -> IrrepTable:
    n = group.order
    a, omega, characters, conjugate, dims = stage
    # an irrep of dim 1 is its character; an abelian group draws no probe
    if dims.max() > 1:
        # T[x, y] = f(x^-1 y) acts as sum_g f(g) g^-1, so z acts through
        # f(x) = a(class of x^-1)
        bases = _probe_bases(group, a[group.class_of[group.inverses]], omega,
                             conjugate, dims, rng)
        tree = _cayley_tree(group.table[:, list(group.generators)], group.identity)
    orders = _element_orders(group)
    reps = []
    for rho, chi in enumerate(characters):
        if dims[rho] == 1:
            # a linear character maps x to an o(x)-th root of unity: the
            # nearest one is exact
            turns = np.round(np.angle(chi[group.class_of]) * orders / (2 * np.pi))
            matrices = np.exp(2j * np.pi * turns / orders).reshape(n, 1, 1)
        else:
            matrices = _restrict(group, _gauge_fix(bases[rho], anchor), tree)
        rep = UnitaryRep(group, matrices)
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
