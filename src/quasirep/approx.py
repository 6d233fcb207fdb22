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
from one of three scans over all |G|^2 pairs or a certificate that bounds
them all, at an agreement tolerance of
at least _TOL_FLOOR = 1e-11: below the roundoff of a genuine
representation's products a threshold counts the arithmetic, not psi. When
psi takes only k distinct matrices V_1..V_k with k^3 <= n^2 (sign
functions, maps between groups lifted through an irrep, irreps whose matrices
repeat bitwise on the cosets of a kernel), the histogram scan counts the
pairs by their value triple (l(x), l(y), l(xy)) and weighs each triple by
||V_m - V_i V_j||_F^2, formed once per triple: the agreement and the defect
are both exact. Otherwise the screened scan first takes a bilinear Freivalds
fingerprint u' psi(x) psi(y) r - u' psi(xy) r of every pair for fixed unit
vectors u and r, at O(n^2 d) cost. Since |u' D r| <= ||D||_F, no pair within
the agreement tolerance fails the screen, so multiplying out only the
survivors and checking each on its own difference gives the same count
whatever u and r are. Near a genuine representation, where the spectral
formula cancels, a certificate comes first: from the n |S| generator
products alone it bounds every pair's residual by
B = c^(D+1) (D eps (1 + c) + eps0), D the depth of the Cayley tree (see
_agreement_bound). When B is within both the agreement tolerance and
AGREEMENT_TOL every pair agrees and the defect, at most B^2 <= 1e-18, reads
0.0; otherwise the full scan forms every product, and its sum of per-pair
squares is the defect. After the screened scan the defect is the spectral
one. Every pair temporary is sized by irreps._BLOCK_ENTRIES.

Constructions: compressions of an irrep to a subspace (exact defect
2 d_psi (1 - sqrt(d_psi / d_rho))), their elementwise unitary polar parts
(through the complement of the subspace when it is the narrower side, else
by SVD), balanced sign functions, independent Haar baselines, and Haar
perturbations of a genuine irrep. Each returns a plain MatrixFunction,
except that the polar part (PolarFunction) keeps its minor for
polar_residual. Every Haar draw, subspace or unitary, is
sampling.haar_basis.
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
from .groups import FiniteGroup, _cayley_tree
from .irreps import (IrrepTable, UnitaryRep, _block_rows, _generator_residuals,
                     _squared_frobenius, _unitarity_residuals)
from .sampling import haar_basis

__all__ = [
    "AGREEMENT_TOL",
    "check_agreement_tol",
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
# smallest agreement threshold: 20 times the largest per-pair residual of a
# genuine irrep (5.4e-13, dihedral 350); below it the count measures roundoff
_TOL_FLOOR = 1e-11
# cap on ||E psi' psi - 1||_F for admissibility, and on a minor's mean error
_ADMISSIBILITY = 1e-8
# singular values below this make a matrix rank deficient for the polar part
_MIN_SINGULAR = 1e-10
# a spectral defect at most this share of its positive moment terms may be
# cancellation error, so defect_direct certifies the pairs or scans them all
_CANCELLATION = 1e-6
# relative roundoff margin of the pair screen's fingerprint
_SCREEN_ROUNDOFF = 1e-12
# relative roundoff of one computed residual ||A B - C||_F or ||A' A - 1||_F,
# per unit of d (||A||_F ||B||_F + ||C||_F): the agreement certificate's margin
_PRODUCT_ROUNDOFF = 4.0 * float(np.finfo(np.float64).eps)
# seed of the screen's fixed unit vectors u and r
_SCREEN_SEED = 0x5C12EE
# odd multiplier of the bit projection that labels a function's distinct values
_BIT_MIX = np.uint64(0x9E3779B97F4A7C15)
# the complement polar route hands elements with a smaller sigma_min to the SVD
_COMPLEMENT_MIN_SINGULAR = 1e-3


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

    parent_minor: MatrixFunction


@dataclass
class DefectReport:
    """Measured defect statistics and the reference bounds they must respect.

    agreement_prob comes from defect_direct's pair scan or certificate and is
    None from defect_via_fourier, which never visits the pairs. defect (and
    normalized_defect) is the spectral formula's in defect_via_fourier. In
    defect_direct it is the histogram scan's exact sum where psi takes few
    distinct matrices (k^3 <= n^2). Where the spectral formula would cancel
    (genuine irreps and near-representations) it reads 0.0 when the
    certificate bounds every pair's residual by B within both the agreement
    tolerance and AGREEMENT_TOL = 1e-9, the true value lying in
    [0, B^2] <= 1e-18, and else is the full scan's sum of per-pair
    squares. Elsewhere the screened scan gives only the agreement, and the
    defect is the spectral one. The triple trace, mean_opnorm, both bounds
    and the admissibility residual come from the spectral route in all
    cases.
    """

    defect: float
    normalized_defect: float
    triple_trace: complex
    agreement_prob: float | None
    mean_opnorm: float
    thm1_bound: float
    cor1_bound: float
    admissibility_residual: float


def _product_residuals(stack: np.ndarray, i: np.ndarray, j: np.ndarray,
                       m: np.ndarray) -> np.ndarray:
    """||V_m - V_i V_j||_F^2 for each index triple of a (k, d, d) stack V."""
    d = stack.shape[1]
    out = np.empty(len(i))
    step = _block_rows(d * d)
    for t0 in range(0, len(i), step):
        part = slice(t0, t0 + step)
        diff = stack[i[part]] @ stack[j[part]]
        diff -= stack[m[part]]
        out[part] = _squared_frobenius(diff)
    return out


def _full_scan(psi: MatrixFunction, agreement_tol: float) -> tuple[float, float]:
    """(mean squared Frobenius defect, exact-agreement fraction) over every pair.

    A block of columns x forms psi(y) psi(x) for every y as the (n d, d)
    stack [psi(y)]_y times each psi(x): entry x n + y of the (c n, d, d)
    result is one pair's contiguous matrix, and psi(yx) is subtracted in place.
    """
    mats, table = psi.matrices, psi.group.table
    n, d = psi.group.order, psi.dim
    chunk = _block_rows(n * d * d)
    stack = mats.reshape(n * d, d)
    total = 0.0
    agree = 0
    tol2 = agreement_tol * agreement_tol
    for x0 in range(0, n, chunk):
        xs = slice(x0, x0 + chunk)
        diff = (stack @ mats[xs]).reshape(-1, d, d)
        diff -= mats[table[:, xs].T.ravel()]
        # agreement is decided on the per-pair difference: the expanded
        # moment form would cancel far above the tol2 threshold
        sq = _squared_frobenius(diff)
        total += float(sq.sum())
        agree += np.count_nonzero(sq <= tol2)
    return total / (n * n), agree / (n * n)


def _screened_agreement(psi: MatrixFunction, agreement_tol: float) -> float:
    """Exact-agreement fraction, multiplying out only the pairs a screen keeps.

    The fingerprint S(x, y) = u' (psi(x) psi(y) - psi(xy)) r has
    |S| <= ||psi(x) psi(y) - psi(xy)||_F, so a pair with |S| above
    agreement_tol (plus a roundoff margin) cannot agree.
    """
    mats, table = psi.matrices, psi.group.table
    n, d = psi.group.order, psi.dim
    u, r = haar_basis(np.random.default_rng(_SCREEN_SEED), d, 1, stack=(2,))[:, :, 0]
    a = u.conj() @ mats                    # a(x) = u' psi(x), (n, d)
    bt = np.ascontiguousarray((mats @ r).T)  # b(y) = psi(y) r, as (d, n)
    f = a @ r                              # f(z) = u' psi(z) r
    # the computed fingerprint is within a small multiple of
    # d eps (||psi(x)|| ||psi(y)|| + ||psi(xy)||) of its exact value,
    # whatever u and r are; top bounds every Frobenius norm
    top = float(np.sqrt(_squared_frobenius(mats).max()))
    margin = agreement_tol + _SCREEN_ROUNDOFF * (top * top + top)
    agree = 0
    tol2 = agreement_tol * agreement_tol
    chunk = _block_rows(n)      # (rows, n) fingerprints, d^2 narrower than products
    for x0 in range(0, n, chunk):
        s = a[x0:x0 + chunk] @ bt
        s -= f[table[x0:x0 + chunk]]
        xs, ys = np.nonzero(np.abs(s) <= margin)
        del s
        xs += x0
        agree += int((_product_residuals(mats, xs, ys, table[xs, ys]) <= tol2).sum())
    return agree / (n * n)


def _agreement_bound(psi: MatrixFunction) -> float:
    """A bound B on ||psi(xy) - psi(x) psi(y)||_F over every pair, from the
    n |S| generator products alone.

    Let S be group.generators and D the number of non-empty layers of the
    Cayley tree over S: every y is reached along tree edges as y_k = y with
    y_j = y_(j-1) s_j, y_0 = e and k <= D. Suppose that
    ||psi(x s) - psi(x) psi(s)||_F <= eps for every x and every s in S,
    ||psi(e) - 1||_F <= eps0, and ||psi(x)||_2 <= c for every x. With
    r_j = max_x ||psi(x y_j) - psi(x) psi(y_j)||_F and
    ||A B||_F <= ||A||_2 ||B||_F on either side,

        r_0 = max_x ||psi(x) (psi(e) - 1)||_F <= c eps0,
        r_j <= ||psi(x y_(j-1) s_j) - psi(x y_(j-1)) psi(s_j)||_F
               + ||(psi(x y_(j-1)) - psi(x) psi(y_(j-1))) psi(s_j)||_F
               + ||psi(x) (psi(y_(j-1)) psi(s_j) - psi(y_j))||_F
            <= eps + c r_(j-1) + c eps.

    So r_k <= c^(k+1) eps0 + (1 + c) eps (1 + c + ... + c^(k-1)), and as
    c >= 1 every pair's residual is at most B = c^(D+1) (D eps (1 + c) + eps0).
    c comes from the unitarity residuals: ||M||_2^2 = ||M'M||_2 <=
    1 + ||M'M - 1||_F, so c = sqrt(1 + u) for the largest residual u.

    Each computed residual sums d products per entry, so it is within a few
    d eps_mach (T^2 + T) of the exact one, T the largest ||psi(x)||_F, as
    in the pair screen; that margin is added to eps, eps0 and u before they
    are amplified. B is inf when c^(D+1) overflows.
    """
    group, mats, d = psi.group, psi.matrices, psi.dim
    top = float(np.sqrt(_squared_frobenius(mats).max()))
    margin = _PRODUCT_ROUNDOFF * d * (top * top + top)
    eps = _generator_residuals(group, mats).max(initial=0.0) + margin
    eps0 = np.linalg.norm(mats[group.identity] - np.eye(d)) + margin
    c = np.sqrt(1.0 + _unitarity_residuals(mats).max() + margin)
    tree = _cayley_tree(group.table[:, list(group.generators)], group.identity)
    depth = sum(1 for children, _, _ in tree if len(children))
    with np.errstate(over="ignore"):
        return float(c ** (depth + 1) * (depth * eps * (1.0 + c) + eps0))


def _value_labels(psi: MatrixFunction) -> tuple[np.ndarray, np.ndarray] | None:
    """(values V, labels l) with psi(x) = V[l(x)] bitwise, when k^3 <= n^2.

    The labels are those of one wrapping integer projection of each
    matrix's bit pattern, which takes no more distinct values than the
    matrices do; a bitwise comparison of every matrix with its label's
    value makes them exact. None when there are more than n^(2/3) labels
    (faithful irreps, minors, Haar draws) or two distinct matrices share a
    projection; the other scans then run.
    """
    n = psi.group.order
    bits = psi.matrices.reshape(n, -1).view(np.uint64)
    weights = np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64) * _BIT_MIX
    _, first, labels = np.unique(bits @ weights, return_index=True, return_inverse=True)
    if len(first) ** 3 > n * n or not np.array_equal(bits[first][labels], bits):
        return None
    return psi.matrices[first], labels


def _histogram_scan(psi: MatrixFunction, values: np.ndarray, labels: np.ndarray,
                    agreement_tol: float) -> tuple[float, float]:
    """(mean squared Frobenius defect, exact-agreement fraction) from value triples.

    N[i, j, m] counts the pairs with psi(x) = V_i, psi(y) = V_j and
    psi(xy) = V_m; each occurring triple's ||V_m - V_i V_j||_F^2 is formed
    once, on its own difference, so both sums are exact.
    """
    n, k = psi.group.order, len(values)
    triple = (labels[:, None] * k + labels[None, :]) * k + labels[psi.group.table]
    counts = np.bincount(triple.ravel(), minlength=k ** 3)
    seen = np.flatnonzero(counts)
    sq = _product_residuals(values, *np.unravel_index(seen, (k, k, k)))
    hits = counts[seen]
    tol2 = agreement_tol * agreement_tol
    return float(hits @ sq) / (n * n), int(hits[sq <= tol2].sum()) / (n * n)


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


def check_agreement_tol(agreement_tol: float) -> None:
    """Raise ValueError unless the agreement tolerance is finite and at least 1e-11."""
    if not _TOL_FLOOR <= agreement_tol < np.inf:
        raise ValueError(f"agreement tolerance must be finite and at least "
                         f"{_TOL_FLOOR:g}, got {agreement_tol}")


def defect_direct(psi: MatrixFunction, table: IrrepTable | None,
                  agreement_tol: float = AGREEMENT_TOL) -> DefectReport:
    """Exact agreement over all pairs, the defect, and the bounds.

    A pair (x, y) agrees when ||psi(xy) - psi(x) psi(y)||_F <= agreement_tol,
    which must be finite and at least 1e-11, above the roundoff of a genuine
    representation's products. One of these runs:

    - the histogram scan, when psi takes k distinct matrices with
      k^3 <= n^2 (sign functions, maps between groups lifted through an
      irrep, irreps whose matrices repeat bitwise). It counts the pairs by the
      labels of psi(x), psi(y) and psi(xy) with one bincount and forms one
      difference per occurring triple, at n^2 integer work plus at most k^3
      products;
    - when the spectral defect is at most 1e-6 of its positive moment terms
      tr E psi'psi + tr(E psi'psi E psi psi'), where the spectral formula
      cancels (to about 1e-13 near a genuine representation), the
      certificate: the generator residuals, unitarity residuals and Cayley
      tree depth bound every pair's residual by B (_agreement_bound), at
      n |S| products. When B is within both agreement_tol and
      AGREEMENT_TOL = 1e-9, every pair agrees and the defect, at most
      B^2 <= 1e-18, reads 0.0; a looser tolerance certifies nothing more,
      so a near-representation keeps its measured defect. Otherwise the
      full scan forms every product;
    - otherwise the screened scan, which takes a bilinear fingerprint of
      every pair that no agreeing pair can fail and decides each survivor
      on its own difference, so the agreement is exact and does not depend
      on the screen's vectors.

    The defect is the histogram scan's exact sum, 0.0 under the certificate,
    the full scan's sum of per-pair squares, or the spectral one after the
    screened scan. Every other field is the spectral one.
    """
    check_agreement_tol(agreement_tol)
    report, positive = _spectral_report(psi, table)
    few = _value_labels(psi)
    if few is not None:
        defect, agreement = _histogram_scan(psi, *few, agreement_tol)
    elif report.defect > _CANCELLATION * positive:
        return replace(report, agreement_prob=_screened_agreement(psi, agreement_tol))
    elif _agreement_bound(psi) <= min(agreement_tol, AGREEMENT_TOL):
        # every pair agrees, and the defect, at most B^2 <= 1e-18, reads 0
        defect, agreement = 0.0, 1.0
    else:
        defect, agreement = _full_scan(psi, agreement_tol)
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
    return _minor(rho, d_psi, subspace, seed)[0]


def _minor(rho: UnitaryRep, d_psi: int, subspace: str,
           seed) -> tuple[MatrixFunction, np.ndarray]:
    """minor_construction's minor and its basis B."""
    if not rho.is_irreducible:
        raise ValueError("minor construction needs an irreducible parent")
    if not 1 <= d_psi <= rho.dim:
        raise DimensionError(f"need 1 <= d_psi <= {rho.dim}, got {d_psi}")
    if subspace == "leading":
        basis = np.eye(rho.dim, d_psi, dtype=np.complex128)
    elif subspace == "haar":
        if seed is None:
            raise ValueError("subspace='haar' needs a seed")
        basis = haar_basis(np.random.default_rng(seed), rho.dim, d_psi)
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
    return out, basis


def polar_unitary(matrix: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor) via SVD of a (..., d, d) stack.

    Rejects input with any numerically singular matrix.
    """
    u, s, vh = np.linalg.svd(matrix)
    if s.min() < _MIN_SINGULAR:
        raise RankDeficient(
            f"smallest singular value {s.min():.3e} below {_MIN_SINGULAR:.0e}")
    return u @ vh


def _complement_polar(rho: UnitaryRep, minor: MatrixFunction,
                      basis: np.ndarray) -> np.ndarray:
    """Polar factors of a minor through the r = d_rho - d_psi dimensional complement.

    With A = B' rho B and C = B_perp' rho B, unitarity of rho gives
    A'A = I - C'C, so polar(A) = A (I - C'C)^(-1/2)
    = A + (A C'W) kappa(Lambda) (W'C), where C C' = W Lambda W' is r x r and
    kappa(l) = 1 / (s (1 + s)) with s = sqrt(1 - l), a form that does not
    cancel as l -> 0. One Newton-Schulz step U (3I - U'U) / 2 then restores
    unitarity to roundoff. sigma_min(A)^2 = 1 - lambda_max, so the elements
    with sigma_min below 1e-3 (or _MIN_SINGULAR, if larger), where the
    formula loses digits, are recomputed by polar_unitary, which rejects a
    rank-deficient one.
    """
    d = minor.dim
    r = rho.dim - d
    a = minor.matrices / np.sqrt(rho.dim / d)
    perp = np.linalg.qr(basis, mode="complete")[0][:, d:]
    floor = max(_COMPLEMENT_MIN_SINGULAR, _MIN_SINGULAR) ** 2
    u, thin = a, np.empty(0, dtype=np.int64)
    if r:
        c = perp.conj().T @ rho.matrices @ basis
        gram = c @ c.conj().transpose(0, 2, 1)
        lam, w = np.linalg.eigh(gram)
        s = np.sqrt(np.maximum(1.0 - lam, floor))
        cw = c.conj().transpose(0, 2, 1) @ w
        u = a + ((a @ cw) / (s * (1.0 + s))[:, None, :]) @ cw.conj().transpose(0, 2, 1)
        thin = np.flatnonzero(1.0 - lam.max(axis=1) < floor)
    u = 0.5 * u @ (3.0 * np.eye(d) - u.conj().transpose(0, 2, 1) @ u)
    if len(thin):
        u[thin] = polar_unitary(minor.matrices[thin])
    return u


def polar_construction(rho: UnitaryRep, d_psi: int, seed) -> PolarFunction:
    """Elementwise polar part of a Haar-subspace minor of rho.

    When the complement is the narrower side, r = d_rho - d_psi < d_psi, the
    polar factors come from an r x r eigenproblem per element
    (_complement_polar), with every element whose smallest singular value is
    below 1e-3 recomputed by polar_unitary; otherwise all of them come from
    polar_unitary's batched SVD. Retries with derived seeds (up to 8) when
    some element of the minor is numerically rank deficient, then gives up
    with RankDeficient.
    """
    for attempt in range(8):
        minor, basis = _minor(
            rho, d_psi, "haar",
            [seed, attempt] if np.isscalar(seed) else list(seed) + [attempt])
        try:
            if rho.dim - d_psi < d_psi:
                mats = _complement_polar(rho, minor, basis)
            else:
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
    rng = np.random.default_rng(seed)
    values = np.ones(n)
    values[rng.permutation(n)[: n // 2]] = -1.0
    return MatrixFunction(group, 1, values.reshape(n, 1, 1).astype(np.complex128))


def haar_baseline(group: FiniteGroup, dim: int, seed) -> MatrixFunction:
    """Independent Haar unitary at every element; the no-structure baseline."""
    return MatrixFunction(group, dim, haar_basis(np.random.default_rng(seed), dim, dim,
                                                 stack=(group.order,)))


def perturbed_irrep(rho: UnitaryRep, fraction: float, seed) -> MatrixFunction:
    """Copy of an irrep with a seeded fraction of elements replaced by Haar noise."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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
