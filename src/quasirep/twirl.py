"""Fourth-moment twirl calculus over a Haar-random subspace.

For a Haar-random d_psi-dimensional projector Pi in dimension d_rho, the
fourth moment E(Pi)^{(x)4} is a combination sum_pi v(pi) P_pi of the 24
permutation operators on the four tensor factors. The coefficients are class
functions on S4 and come in closed form from a character sum over the five
partitions of 4, with hook-content tableau counts supplying the dimension
data. They also solve the linear system obtained by pairing both sides with
permutation operators, tr(Pi^{(x)4} P_sigma) = d_psi^{c(sigma)} for every
projector, and that Gram solve is a second exact route to the same numbers.

The audit contraction E_{Pi,x} tr[(Pi rho(x)' Pi rho(x))^2] is evaluated both
by Monte Carlo over the subspace (exact average over the group) and through
the twirl expansion, where each permutation term collapses to products of
character power-moments of rho. Only that Monte Carlo has sampling variance.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import prod
from types import MappingProxyType

import numpy as np

from .errors import DegenerateDimension
from .irreps import UnitaryRep, _block_rows, _sandwiches
from .sampling import haar_basis, stream

__all__ = [
    "CLASS_NAMES",
    "CLASS_REPRESENTATIVES",
    "PARTITIONS",
    "all_permutations",
    "cycle_count",
    "class_name",
    "tableau_count",
    "moment_trace",
    "TwirlExpansion",
    "twirl_exact",
    "twirl_gram",
    "TwirlAudit",
    "error_term_audit",
]

# conjugacy classes of S4 by cycle-type representative
CLASS_NAMES = ("e", "(12)", "(123)", "(12)(34)", "(1234)")
CLASS_REPRESENTATIVES = MappingProxyType({
    "e": (0, 1, 2, 3),
    "(12)": (1, 0, 2, 3),
    "(123)": (1, 2, 0, 3),
    "(12)(34)": (1, 0, 3, 2),
    "(1234)": (1, 2, 3, 0),
})
_TYPE_TO_NAME = {
    (1, 1, 1, 1): "e",
    (1, 1, 2): "(12)",
    (1, 3): "(123)",
    (2, 2): "(12)(34)",
    (4,): "(1234)",
}

PARTITIONS = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
# character table of S4: row per partition, column per class in CLASS_NAMES order
_CHARACTERS = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (3, 1, 0, -1, -1),
    (2, 2): (2, 0, -1, 2, 0),
    (2, 1, 1): (3, -1, 0, -1, 1),
    (1, 1, 1, 1): (1, -1, 1, 1, -1),
}

_MAX_DRHO = 14  # keeps d_rho^4 at or below 4e4
# Haar subspaces drawn by error_term_audit's Monte Carlo route
_AUDIT_SAMPLES = 200


def all_permutations() -> tuple[tuple[int, ...], ...]:
    """The 24 permutations of four points, lexicographic."""
    return tuple(permutations(range(4)))


def _cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cur, cyc = start, [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append(tuple(cyc))
    return out


def cycle_count(perm: tuple[int, ...]) -> int:
    return len(_cycles(perm))


def class_name(perm: tuple[int, ...]) -> str:
    return _TYPE_TO_NAME[tuple(sorted(len(c) for c in _cycles(perm)))]


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[x] for x in b)


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def tableau_count(partition: tuple[int, ...], dim: int) -> int:
    """Semistandard tableaux of the given shape with entries in 1..dim.

    Exact integer via the hook content formula: product of (dim + content)
    over cells divided by the product of hook lengths.
    """
    lam = tuple(partition)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or min(lam, default=1) < 1:
        raise ValueError(f"{partition} is not a partition")
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    num = prod(dim + c - r for r, c in cells)
    if num == 0:
        return 0
    den = prod(
        (lam[r] - c - 1) + sum(1 for rr in range(r + 1, len(lam)) if lam[rr] > c) + 1
        for r, c in cells
    )
    # exact: by Stanley's hook-content formula the quotient counts tableaux
    return num // den


def moment_trace(sigma: tuple[int, ...], d_psi: int) -> int:
    """tr(Pi^{(x)4} P_sigma) for a rank-d_psi projector: d_psi^(cycle count)."""
    if d_psi < 0:
        raise ValueError(f"d_psi must be >= 0, got {d_psi}")
    return d_psi ** cycle_count(tuple(sigma))


@dataclass(frozen=True)
class TwirlExpansion:
    """Coefficients of the fourth-moment twirl in the permutation-operator basis.

    coefficients is a read-only view of a copy of the mapping passed in, by
    class name. It is left out of the hash, which is that of (d_rho, d_psi),
    so equal expansions hash alike.
    """

    d_rho: int
    d_psi: int
    coefficients: Mapping[str, float] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", MappingProxyType(dict(self.coefficients)))

    def coefficient(self, perm: tuple[int, ...]) -> float:
        return self.coefficients[class_name(perm)]

    def reconstruct_trace(self, sigma: tuple[int, ...]) -> float:
        """sum_pi v(pi) d_rho^{c(pi sigma^-1)}; equals d_psi^{c(sigma)}."""
        inv = _inverse(tuple(sigma))
        return float(sum(
            self.coefficient(pi) * self.d_rho ** cycle_count(_compose(pi, inv))
            for pi in all_permutations()
        ))

    def to_json_dict(self) -> dict:
        """Keys at every level in sorted order, so the JSON text is canonical."""
        return {
            "coefficients": dict(sorted(self.coefficients.items())),
            "d_psi": self.d_psi,
            "d_rho": self.d_rho,
        }


def _check_dims(d_rho: int, d_psi: int) -> None:
    if d_rho < 4:
        raise DegenerateDimension(
            f"twirl coefficients need d_rho >= 4 (got {d_rho}) so every "
            "tableau count is positive")
    if d_rho > _MAX_DRHO:
        raise ValueError(f"d_rho capped at {_MAX_DRHO}, got {d_rho}")
    if not 1 <= d_psi <= d_rho:
        raise ValueError(f"need 1 <= d_psi <= d_rho, got d_psi={d_psi}")


def twirl_exact(d_rho: int, d_psi: int) -> TwirlExpansion:
    """Closed-form twirl coefficients by the character sum over partitions.

    v(class) = (1/24) sum_lambda d_lambda chi_lambda(class)
               T(lambda, d_psi) / T(lambda, d_rho),
    computed in exact rational arithmetic and rounded once at the end.
    """
    _check_dims(d_rho, d_psi)
    coeffs = {}
    for ci, name in enumerate(CLASS_NAMES):
        acc = Fraction(0)
        for lam in PARTITIONS:
            d_lam = _CHARACTERS[lam][0]
            acc += (Fraction(d_lam * _CHARACTERS[lam][ci])
                    * Fraction(tableau_count(lam, d_psi), tableau_count(lam, d_rho)))
        coeffs[name] = float(acc / 24)
    return TwirlExpansion(d_rho=d_rho, d_psi=d_psi, coefficients=coeffs)


def twirl_gram(d_rho: int, d_psi: int) -> TwirlExpansion:
    """Twirl coefficients from the class-collapsed Gram system.

    Pairing sum_pi v(pi) P_pi with P_sigma for one representative sigma per
    class gives sum_pi v(pi) d_rho^{c(pi sigma^-1)} = moment_trace(sigma),
    five equations in the five class coefficients, solved in floating point.
    """
    _check_dims(d_rho, d_psi)
    # G[a, b] = sum over pi in class b of d_rho^{c(pi sigma_a^-1)}
    gram = np.zeros((len(CLASS_NAMES), len(CLASS_NAMES)))
    traces = np.empty(len(CLASS_NAMES))
    for a, name in enumerate(CLASS_NAMES):
        rep = CLASS_REPRESENTATIVES[name]
        inv = _inverse(rep)
        for pi in all_permutations():
            b = CLASS_NAMES.index(class_name(pi))
            gram[a, b] += float(d_rho) ** cycle_count(_compose(pi, inv))
        traces[a] = moment_trace(rep, d_psi)
    coeffs = np.linalg.solve(gram, traces)
    return TwirlExpansion(
        d_rho=d_rho,
        d_psi=d_psi,
        coefficients={n: float(c) for n, c in zip(CLASS_NAMES, coeffs)},
    )


@dataclass(frozen=True)
class TwirlAudit:
    """Two routes to E_{Pi,x} tr[(Pi rho(x)' Pi rho(x))^2] plus the leading term."""

    d_rho: int
    d_psi: int
    monte_carlo: float
    monte_carlo_stderr: float
    expansion: float
    leading_prediction: float


def _word_exponents(pi: tuple[int, ...]) -> list[int]:
    """Cycle exponents of the contraction word for one permutation term.

    In the term tr[... P_pi] of the expanded audit contraction, tensor slot k
    holds rho' for even k and rho for odd k, and the trace factorizes over the
    cycles of the successor map k -> pi(k + 1 mod 4). Each cycle contributes
    tr(rho(x)^e) with e the signed count of slots in the cycle, because the
    rho and rho' factors cancel in adjacent pairs.
    """
    succ = tuple(pi[(k + 1) % 4] for k in range(4))
    return [sum(1 if k % 2 else -1 for k in cyc) for cyc in _cycles(succ)]


def error_term_audit(rho: UnitaryRep, d_psi: int, seed) -> TwirlAudit:
    """Evaluate E_{Pi,x} tr[(Pi rho(x)' Pi rho(x))^2] two independent ways.

    Route (a): Monte Carlo over 200 Haar-random rank-d_psi projectors Pi
    drawn from stream(seed) (the count is fixed), with the group average taken
    exactly. Route (b): exact, through the twirl expansion;
    every permutation term reduces to character power-moments of rho. The
    leading-order prediction d_rho r^3 (2 - r) with r = d_psi / d_rho tags the
    report for scale.
    """
    d_rho = rho.dim
    _check_dims(d_rho, d_psi)
    group = rho.group
    n = group.order

    # route (a): compressions C(x) = B' rho(x) B, integrand tr((C'C)^2)
    # one stacked draw; the compressions go a block of bases at a time, two
    # products per block, so that no temporary grows with samples x |G|
    bases = haar_basis(stream(seed), d_rho, d_psi, stack=(_AUDIT_SAMPLES,))
    vals = np.empty(_AUDIT_SAMPLES)
    step = _block_rows(n * d_rho * d_psi)
    for s0 in range(0, _AUDIT_SAMPLES, step):
        b = bases[s0:s0 + step]
        c = _sandwiches(b, rho.matrices, b)          # c[s, j, x, k] = C_s(x)_jk
        gram = np.einsum("sjxa,sjxb->sxab", c.conj(), c)
        vals[s0:s0 + step] = np.einsum("sxab,sxba->s", gram, gram).real / n
    mc = float(vals.mean())
    mc_se = float(vals.std(ddof=1) / np.sqrt(_AUDIT_SAMPLES))

    # route (b): per-element character powers, then the 24 collapsed terms
    chi1 = rho.character_on_elements()
    chi2 = chi1[group.squares()]
    powers = {0: np.full(n, float(d_rho), dtype=np.complex128),
              1: chi1, -1: chi1.conj(), 2: chi2, -2: chi2.conj()}
    expansion_coeffs = twirl_exact(d_rho, d_psi)
    total = 0.0 + 0.0j
    for pi in all_permutations():
        factors = np.ones(n, dtype=np.complex128)
        for e in _word_exponents(pi):
            factors = factors * powers[e]
        total += expansion_coeffs.coefficient(pi) * factors.mean()
    ratio = d_psi / d_rho
    return TwirlAudit(
        d_rho=d_rho,
        d_psi=d_psi,
        monte_carlo=mc,
        monte_carlo_stderr=mc_se,
        expansion=float(total.real),
        leading_prediction=float(d_rho * ratio ** 3 * (2.0 - ratio)),
    )
