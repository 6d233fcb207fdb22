"""Matrix-valued functions on a group and how far they are from representations.

The central quantity is the defect E_{x,y} ||psi(xy) - psi(x) psi(y)||_F^2,
evaluated two independent ways. The spectral route (defect_via_fourier)
goes through the blockwise transform: the triple product average
E tr psi(xy)' psi(x) psi(y) equals sum_rho d_rho tr(W W' W), and the defect
follows from it and two second moments, at O(n^2 d^2 + sum (d d_rho)^3)
cost. It also gives the operator norm of the mean and the reference lower
bound on the defect / upper bound on agreement expressed through that norm
and the smallest nontrivial irrep dimension d_min.

defect_direct adds the exact-agreement fraction, a property of each pair,
from a pass over all |G|^2 pairs. The pass first screens each chunk of rows
with a bilinear Freivalds fingerprint u' psi(x) psi(y) r - u' psi(xy) r for
fixed unit vectors u and r, at O(n^2 d) cost. Since |u' D r| <= ||D||_F, no
pair within the agreement tolerance fails the screen, so checking only the
survivors on their own difference gives the same count whatever u and r
are. A chunk with few survivors multiplies out only those; a dense chunk
forms all its products with one matrix product, as does the unscreened scan
kept for tolerance 0, for d = 1 and for near-representations. The defect is
the scan's sum of per-pair squares when every chunk was multiplied out, and
the spectral one otherwise.

Constructions: compressions of an irrep to a subspace (exact defect
2 d_psi (1 - sqrt(d_psi / d_rho))), their elementwise unitary polar parts,
balanced sign functions, independent Haar baselines, and Haar perturbations
of a genuine irrep. Each returns a plain MatrixFunction, except that the
polar part (PolarFunction) keeps its minor for polar_residual. Every Haar
draw, subspace or unitary, is sampling.haar_basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    MissingIrrepTable,
    OddOrder,
    RankDeficient,
    ToleranceViolation,
)
from .fourier import transform_matrix
from .groups import FiniteGroup
from .irreps import IrrepTable, UnitaryRep
from .sampling import haar_basis, rng_from

__all__ = [
    "AGREEMENT_TOL",
    "MatrixFunction",
    "PolarFunction",
    "DefectReport",
    "defect_direct",
    "defect_via_fourier",
    "minor_construction",
    "polar_unitary",
    "polar_construction",
    "polar_residual",
    "random_sign_function",
    "haar_baseline",
    "perturbed_irrep",
    "random_admissible",
    "thm4_defect",
    "thm5_normalized_bound",
    "thm5_bound",
    "beating_random_threshold",
]

# default Frobenius threshold under which psi(xy) and psi(x) psi(y) agree
AGREEMENT_TOL = 1e-9
# cap on ||E psi' psi - 1||_F for admissibility, and on a minor's mean error
_ADMISSIBILITY = 1e-8
# singular values below this make a matrix rank deficient for the polar part
_MIN_SINGULAR = 1e-10
# a spectral defect at most this share of its positive moment terms may be
# cancellation error, so defect_direct takes the defect from the full scan
_CANCELLATION = 1e-6
# relative roundoff margin of the pair screen's fingerprint
_SCREEN_ROUNDOFF = 1e-12
# a screened chunk with fewer survivors than this share of its pairs
# multiplies out only the survivors
_SPARSE_SHARE = 0.25
# seed of the screen's fixed unit vectors u and r
_SCREEN_SEED = 0x5C12EE


@dataclass(eq=False)
class MatrixFunction:
    """A d x d complex matrix for every group element."""

    group: FiniteGroup
    dim: int
    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        if self.matrices.shape != (self.group.order, self.dim, self.dim):
            raise ValueError(
                f"matrices must be ({self.group.order}, {self.dim}, {self.dim}), "
                f"got {self.matrices.shape}")

    def mean(self) -> np.ndarray:
        return self.matrices.mean(axis=0)

    def mean_gram(self) -> np.ndarray:
        """E_x psi(x)' psi(x), one product over the (n d, d) stack of the psi(x)."""
        stack = self.matrices.reshape(-1, self.dim)
        return stack.conj().T @ stack / self.group.order

    def admissibility_residual(self, gram: np.ndarray | None = None) -> float:
        """Frobenius distance of E psi' psi from the identity.

        gram: E psi' psi when the caller already holds it.
        """
        if gram is None:
            gram = self.mean_gram()
        return float(np.linalg.norm(gram - np.eye(self.dim)))


@dataclass(eq=False)
class PolarFunction(MatrixFunction):
    """Elementwise unitary polar part of a minor; keeps the minor for polar_residual."""

    parent_minor: MatrixFunction | None = None


@dataclass
class DefectReport:
    """Measured defect statistics and the reference bounds they must respect.

    agreement_prob comes from defect_direct's pair scan and is None from
    defect_via_fourier, which never visits the pairs. defect (and
    normalized_defect) is the spectral formula's in defect_via_fourier. In
    defect_direct it is the scan's sum of per-pair squares when the scan
    multiplied out every pair: always at tolerance 0, at d = 1 (sign
    functions) and where the spectral formula would cancel (genuine irreps
    and near-representations), and also where most pairs agree (dense
    perturbations). Where the screen let the scan skip pairs it is the
    spectral one. The triple trace, mean_opnorm, both bounds and the
    admissibility residual come from the spectral route in both.
    """

    defect: float
    normalized_defect: float
    triple_trace: complex
    agreement_prob: float | None
    mean_opnorm: float
    thm1_bound: float
    cor1_bound: float
    admissibility_residual: float


def _pair_scan(psi: MatrixFunction, agreement_tol: float,
               screen: bool) -> tuple[float | None, float]:
    """One pass over all |G|^2 pairs, a chunk of rows x at a time.

    Returns (mean squared Frobenius defect, exact-agreement fraction). A
    scanned chunk forms every product psi(x) psi(y) as one matrix product
    against the (d, n d) array [psi(y)]_y laid side by side. With screen,
    each chunk first takes the fingerprint S(x, y) = u' (psi(x) psi(y) -
    psi(xy)) r for fixed unit vectors u and r; since |u' D r| <= ||D||_F,
    a pair whose |S| exceeds agreement_tol (plus a roundoff margin) cannot
    agree. When under _SPARSE_SHARE of a chunk's pairs survive, only the
    survivors are multiplied, and the defect is returned as None because
    some pairs were never formed.
    """
    mats = psi.matrices
    table = psi.group.table
    n, d = psi.group.order, psi.dim
    # chunk so each (c, d, n, d) complex temporary stays around 4 MiB, far
    # below the 32 MiB ceiling of glibc's dynamic mmap threshold, so peak
    # memory does not depend on how many scans ran before; two are live at
    # once, the products and the gathered psi(xy), and the difference
    # overwrites the products. The screen's (c, n) temporaries are d^2
    # times smaller.
    chunk = max(1, (1 << 18) // max(1, n * d * d))
    right = np.ascontiguousarray(mats.transpose(1, 0, 2)).reshape(d, n * d)
    if screen:
        u, r = haar_basis(rng_from(_SCREEN_SEED), d, 1, stack=(2,))[:, :, 0]
        a = u.conj() @ mats                    # a(x) = u' psi(x), (n, d)
        bt = np.ascontiguousarray((mats @ r).T)  # b(y) = psi(y) r, as (d, n)
        f = a @ r                              # f(z) = u' psi(z) r
        # the computed fingerprint is within a small multiple of
        # d eps (||psi(x)|| ||psi(y)|| + ||psi(xy)||) of its exact value,
        # whatever u and r are; top bounds every Frobenius norm
        flat = mats.view(np.float64).reshape(n, 2 * d * d)
        top = float(np.sqrt(np.einsum("xr,xr->x", flat, flat).max()))
        margin = agreement_tol + _SCREEN_ROUNDOFF * (top * top + top)
        # buffers every chunk reuses: fresh (c, n) temporaries per chunk
        # fragment the heap, which raised the peak RSS of `verify full`
        # by about 2 MiB (3%)
        height = min(chunk, n)
        fingerprint, gathered = np.empty((2, height, n), dtype=np.complex128)
        modulus = np.empty((height, n))
        keep = np.empty((height, n), dtype=bool)
    total = 0.0
    agree = 0
    scanned_all = True
    tol2 = agreement_tol * agreement_tol
    for x0 in range(0, n, chunk):
        hi = min(n, x0 + chunk)
        c = hi - x0
        if screen:
            s = np.matmul(a[x0:hi], bt, out=fingerprint[:c])
            s -= np.take(f, table[x0:hi], out=gathered[:c])
            np.less_equal(np.abs(s, out=modulus[:c]), margin, out=keep[:c])
            if np.count_nonzero(keep[:c]) < _SPARSE_SHARE * c * n:
                xs, ys = np.nonzero(keep[:c])
                xs += x0
                diff = mats[table[xs, ys]] - mats[xs] @ mats[ys]
                parts = diff.view(np.float64).reshape(xs.size, 2 * d * d)
                agree += int((np.einsum("kr,kr->k", parts, parts) <= tol2).sum())
                scanned_all = False
                continue
        prod = (mats[x0:hi].reshape(c * d, d) @ right).reshape(c, d, n, d)
        diff = np.subtract(mats[table[x0:hi]].transpose(0, 2, 1, 3), prod, out=prod)
        del prod
        # squared moduli summed over the real and imaginary parts, read in
        # place through a real view of the difference
        parts = diff.view(np.float64).reshape(c, d, n, d, 2)
        sq = np.einsum("xaybr,xaybr->xy", parts, parts)
        del diff, parts
        # agreement is decided on the per-pair difference: the expanded
        # moment form would cancel far above the tol2 threshold
        total += float(sq.sum())
        agree += int((sq <= tol2).sum())
    n2 = n * n
    return (total / n2 if scanned_all else None), agree / n2


def _spectral_report(psi: MatrixFunction,
                     table: IrrepTable | None) -> tuple[DefectReport, float]:
    """Every report field from the blockwise transform; agreement_prob is None.

    The triple product average is sum_rho d_rho tr(W W' W); the defect then
    follows from E||psi(z)||^2 = tr E psi' psi and E||psi(x)psi(y)||^2 =
    tr(E psi' psi E psi psi'), which are spectral-free moments. Returns the
    report and the sum of those two positive terms, from which the defect
    is their difference with 2 Re of the triple average. When psi is not
    admissible, which the bounds assume, it warns at the line that called
    the public defect route.
    """
    if table is None:
        raise MissingIrrepTable("defect bounds need an irrep table for d_min")
    if table.group is not psi.group:
        raise ValueError("irrep table belongs to a different group")
    gram = psi.mean_gram()
    residual = psi.admissibility_residual(gram)
    if residual > _ADMISSIBILITY:
        warnings.warn(
            f"psi is not admissible (||E psi' psi - 1||_F = {residual:.3e}); "
            "bounds assume admissibility", RuntimeWarning, stacklevel=3)
    triple = sum(
        rho.dim * complex(np.trace(w @ w.conj().T @ w))
        for rho, w in zip(table.irreps, transform_matrix(psi, table))
    )
    # E psi psi' as one product over the (d, n d) array of the psi(x) side by side
    side = np.ascontiguousarray(psi.matrices.transpose(1, 0, 2)).reshape(psi.dim, -1)
    cogram = side @ side.conj().T / psi.group.order
    positive = float(np.trace(gram).real + np.trace(gram @ cogram).real)
    defect = positive - 2.0 * triple.real
    m = float(np.linalg.norm(psi.mean(), 2))
    root = float(np.sqrt(psi.dim / table.d_min))
    report = DefectReport(
        defect=defect,
        normalized_defect=defect / (2.0 * psi.dim),
        triple_trace=triple,
        agreement_prob=None,
        mean_opnorm=m,
        thm1_bound=max(0.0, 2.0 * psi.dim * (1.0 - m ** 3 - root)),
        cor1_bound=min(1.0, 0.5 * (1.0 + m ** 3 + root)),
        admissibility_residual=residual,
    )
    return report, positive


def defect_direct(psi: MatrixFunction, table: IrrepTable | None,
                  agreement_tol: float = AGREEMENT_TOL) -> DefectReport:
    """Exact agreement over all pairs, the defect, and the bounds.

    A pair (x, y) agrees when ||psi(xy) - psi(x) psi(y)||_F <= agreement_tol,
    which must be finite and non-negative. The pair scan screens each chunk
    of rows with a bilinear fingerprint that no agreeing pair can fail, and
    decides every surviving pair on its own difference, so the agreement is
    exact and does not depend on the screen's vectors. Three cases scan every
    pair unscreened: agreement_tol = 0, where equality of the two sides
    depends on the arithmetic path; d = 1, where the screen costs what the
    scan costs; and a spectral defect at most 1e-6 of its positive moment
    terms tr E psi'psi + tr(E psi'psi E psi psi'), where the spectral
    formula cancels (to about 1e-13 near a genuine representation).

    The defect is the scan's sum of per-pair squares when every chunk was
    multiplied out, which the unscreened scan always does and the screened
    one does where most pairs agree; otherwise it is the spectral one.
    Every other field is the spectral one.
    """
    if not 0.0 <= agreement_tol < np.inf:
        raise ValueError(f"agreement tolerance must be finite and non-negative, "
                         f"got {agreement_tol}")
    report, positive = _spectral_report(psi, table)
    screen = (psi.dim > 1 and agreement_tol > 0.0
              and report.defect > _CANCELLATION * positive)
    defect, agreement = _pair_scan(psi, agreement_tol, screen)
    if defect is None:
        return replace(report, agreement_prob=agreement)
    return replace(report, defect=defect, normalized_defect=defect / (2.0 * psi.dim),
                   agreement_prob=agreement)


def defect_via_fourier(psi: MatrixFunction, table: IrrepTable | None) -> DefectReport:
    """Defect through the blockwise transform, without the pair scan.

    The defect agrees with defect_direct's on every input, admissible or not,
    and every other field but agreement_prob is the same value;
    agreement_prob is None, since exact agreement is a per-pair question only
    defect_direct answers.
    """
    return _spectral_report(psi, table)[0]


def minor_construction(rho: UnitaryRep, d_psi: int, subspace: str = "leading",
                       seed=None) -> MatrixFunction:
    """Compress an irrep to a d_psi-dimensional subspace, rescaled to admissibility.

    psi(x) = sqrt(d_rho / d_psi) B' rho(x) B for an orthonormal d_rho x d_psi
    basis B.

    subspace: "leading" takes the first d_psi coordinates; "haar" draws a
    seeded Haar-random subspace (seed required). The result has E psi' psi = 1
    and, for a nontrivial parent, mean zero, both up to numerical error in the
    input irrep.
    """
    if not rho.is_irreducible:
        raise ValueError("minor construction needs an irreducible parent")
    if not 1 <= d_psi <= rho.dim:
        raise DimensionError(f"need 1 <= d_psi <= {rho.dim}, got {d_psi}")
    if subspace == "leading":
        basis = np.eye(rho.dim, d_psi, dtype=np.complex128)
    elif subspace == "haar":
        if seed is None:
            raise ValueError("subspace='haar' needs a seed")
        basis = haar_basis(rng_from(seed), rho.dim, d_psi)
    else:
        raise ValueError(f"unknown subspace {subspace!r}; use 'leading' or 'haar'")
    scale = np.sqrt(rho.dim / d_psi)
    out = MatrixFunction(rho.group, d_psi, scale * (basis.conj().T @ rho.matrices @ basis))
    # the mean must agree with the compressed parent mean, which is zero
    # exactly when the parent is nontrivial
    expected = scale * basis.conj().T @ rho.matrices.mean(axis=0) @ basis
    mean_err = float(np.linalg.norm(out.mean() - expected))
    residual = out.admissibility_residual()
    if mean_err > _ADMISSIBILITY or residual > _ADMISSIBILITY:
        raise ToleranceViolation(
            f"minor violates its guarantees: mean error {mean_err:.3e}, "
            f"admissibility residual {residual:.3e}")
    return out


def polar_unitary(matrix: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor) via SVD of a (..., d, d) stack.

    Rejects input with any numerically singular matrix.
    """
    u, s, vh = np.linalg.svd(matrix)
    if s.min() < _MIN_SINGULAR:
        raise RankDeficient(
            f"smallest singular value {s.min():.3e} below {_MIN_SINGULAR:.0e}")
    return u @ vh


def polar_construction(rho: UnitaryRep, d_psi: int, seed) -> PolarFunction:
    """Elementwise polar part of a Haar-subspace minor of rho.

    Retries with derived seeds (up to 8) when some element of the minor is
    numerically rank deficient, then gives up with RankDeficient.
    """
    for attempt in range(8):
        minor = minor_construction(
            rho, d_psi, subspace="haar",
            seed=[seed, attempt] if np.isscalar(seed) else list(seed) + [attempt])
        try:
            mats = polar_unitary(minor.matrices)
        except RankDeficient as exc:
            last = exc
            continue
        return PolarFunction(rho.group, d_psi, mats, parent_minor=minor)
    raise RankDeficient(f"minor stayed rank deficient over 8 seeds (last: {last})")


def polar_residual(psi: PolarFunction) -> float:
    """E_x ||minor(x) - polar(x)||_F^2, the per-element unitarization cost."""
    diff = psi.parent_minor.matrices - psi.matrices
    return float(np.vdot(diff, diff).real) / psi.group.order


def random_sign_function(group: FiniteGroup, seed) -> MatrixFunction:
    """Balanced +-1 labels as 1 x 1 matrices; needs even group order."""
    n = group.order
    if n % 2:
        raise OddOrder(f"balanced sign function needs even order, got {n}")
    rng = rng_from(seed)
    values = np.ones(n)
    values[rng.permutation(n)[: n // 2]] = -1.0
    return MatrixFunction(group, 1, values.reshape(n, 1, 1).astype(np.complex128))


def haar_baseline(group: FiniteGroup, dim: int, seed) -> MatrixFunction:
    """Independent Haar unitary at every element; the no-structure baseline."""
    return MatrixFunction(group, dim,
                          haar_basis(rng_from(seed), dim, dim, stack=(group.order,)))


def perturbed_irrep(rho: UnitaryRep, fraction: float, seed) -> MatrixFunction:
    """Copy of an irrep with a seeded fraction of elements replaced by Haar noise."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = rng_from(seed)
    mats = rho.matrices.copy()
    count = int(round(fraction * rho.group.order))
    replaced = rng.choice(rho.group.order, size=count, replace=False)
    mats[replaced] = haar_basis(rng, rho.dim, rho.dim, stack=(count,))
    return MatrixFunction(rho.group, rho.dim, mats)


def random_admissible(group: FiniteGroup, dim: int, seed) -> MatrixFunction:
    """Random psi with E psi' psi = 1 exactly (up to one matrix inversion).

    Draws Gaussian matrices and right-normalizes by (E A' A)^{-1/2}, which
    produces admissible but nowhere-unitary functions; haar_baseline gives
    pointwise unitary ones.
    """
    rng = rng_from(seed)
    n = group.order
    a = (rng.standard_normal((n, dim, dim))
         + 1j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0 * dim)
    gram = MatrixFunction(group, dim, a).mean_gram()
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    inv_root = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return MatrixFunction(group, dim, a @ inv_root)


def thm4_defect(d_psi: int, d_rho: int) -> float:
    """Exact defect of a d_psi-dimensional minor of a d_rho-dimensional irrep."""
    return 2.0 * d_psi * (1.0 - np.sqrt(d_psi / d_rho))


def thm5_normalized_bound(ratio: float) -> float:
    """Asymptotic normalized-defect bound for polar minors at d_psi/d_rho = ratio."""
    return 4.0 * (1.0 - np.sqrt(ratio)) + 6.0 * (1.0 - ratio)


def thm5_bound(d_psi: int, ratio: float) -> float:
    """Same bound scaled back to the raw defect normalization."""
    return 2.0 * d_psi * thm5_normalized_bound(ratio)


def beating_random_threshold() -> float:
    """Dimension ratio above which the polar-minor bound dips below random.

    The unique root of 4(1 - sqrt(r)) + 6(1 - r) = 1 in (0, 1), in closed form
    (31 - 2 sqrt(58)) / 18.
    """
    return (31.0 - 2.0 * np.sqrt(58.0)) / 18.0
