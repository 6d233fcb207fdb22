"""Self-check battery: ten numbered checks A1..A10 over the whole package.

Each check measures quantities with the library's own oracles and compares
them against fixed tolerances. A manifest records every comparison with both
sides (measured value and bound), never a bare boolean, so a failing run can
be diagnosed from the report alone.

The fast scope (A1..A7) finishes in well under two minutes; the full scope
adds the twirl checks (two exact coefficient routes and the error-term audit's
Monte Carlo), the polar-minor study, and the threshold identity (A8..A10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import groups, twirl
from .approx import (
    AGREEMENT_TOL,
    _pair_scan,
    beating_random_threshold,
    defect_direct,
    defect_via_fourier,
    haar_baseline,
    minor_construction,
    perturbed_irrep,
    polar_construction,
    polar_residual,
    random_admissible,
    random_sign_function,
    thm4_defect,
    thm5_normalized_bound,
)
from .fourier import (
    ScalarFunction,
    invert_scalar,
    plancherel_check,
    transform_matrix,
    transform_scalar,
)
from .groups import FiniteGroup
from .homs import balanced_random_map, evaluate, lift_through_irrep, make_group_map
from .irreps import IrrepTable, decompose

__all__ = [
    "Comparison",
    "CheckResult",
    "RunManifest",
    "VerifyContext",
    "CHECKS",
    "FAST_CHECK_IDS",
    "FULL_CHECK_IDS",
    "run_check",
    "run_battery",
    "deterministic_manifest_dict",
]


@dataclass
class Comparison:
    """One recorded inequality or equality, with both sides kept.

    relation: "<=" (measured <= bound + slack), ">=" (measured >= bound - slack),
    "<" (strict), or "~=" (|measured - bound| <= slack). timing marks wall-clock
    measurements, which repeat runs are not expected to reproduce.
    """

    label: str
    relation: str
    measured: float
    bound: float
    slack: float = 0.0
    timing: bool = False

    @property
    def passed(self) -> bool:
        if self.relation == "<=":
            return bool(self.measured <= self.bound + self.slack)
        if self.relation == ">=":
            return bool(self.measured >= self.bound - self.slack)
        if self.relation == "<":
            return bool(self.measured < self.bound)
        if self.relation == "~=":
            return bool(abs(self.measured - self.bound) <= self.slack)
        raise ValueError(f"unknown relation {self.relation!r}")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "relation": self.relation,
            "measured": float(self.measured),
            "bound": float(self.bound),
            "slack": float(self.slack),
            "timing": self.timing,
            "passed": self.passed,
        }


@dataclass
class CheckResult:
    check_id: str
    description: str
    comparisons: list[Comparison]
    elapsed_s: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.comparisons)

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{self.check_id} {verdict}  {self.description} ({self.elapsed_s:.1f} s)"
        if self.error is not None:
            line += f" [error: {self.error}]"
        return line

    def failures(self) -> list[Comparison]:
        return [c for c in self.comparisons if not c.passed]

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "description": self.description,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "error": self.error,
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


@dataclass
class RunManifest:
    tool: str
    scope: str
    seed: int
    generated_at: str
    wall_clock_s: float
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            "tool": self.tool,
            "scope": self.scope,
            "seed": self.seed,
            "generated_at": self.generated_at,
            "wall_clock_s": self.wall_clock_s,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def deterministic_manifest_dict(manifest_dict: dict) -> dict:
    """Copy of a manifest dict with every wall-clock field removed.

    Two runs with the same scope and seed must agree exactly on the result;
    this strips generated_at, wall_clock_s, elapsed_s, and the comparisons
    flagged as timing measurements.
    """

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if k not in ("generated_at", "wall_clock_s", "elapsed_s")}
        if isinstance(node, list):
            return [strip(v) for v in node
                    if not (isinstance(v, dict) and v.get("timing"))]
        return node

    return strip(manifest_dict)


class VerifyContext:
    """Memoized groups and irrep tables shared by the checks of one run."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._groups: dict[tuple, FiniteGroup] = {}
        self._tables: dict[tuple, IrrepTable] = {}

    def group(self, family: str, *params) -> FiniteGroup:
        key = (family, *params)
        if key not in self._groups:
            self._groups[key] = groups.named(family, *params)
        return self._groups[key]

    def table(self, family: str, *params) -> IrrepTable:
        key = (family, *params)
        if key not in self._tables:
            self._tables[key] = decompose(self.group(family, *params), seed=self.seed)
        return self._tables[key]


def _unitarity_residual(table: IrrepTable) -> float:
    worst = 0.0
    for rho in table:
        m = rho.matrices
        gram = m.conj().transpose(0, 2, 1) @ m
        worst = max(worst, float(np.abs(gram - np.eye(rho.dim)).max()))
    return worst


def _schur_residual(table: IrrepTable) -> float:
    """Largest deviation from E rho_ab conj(sigma_cd) = [rho=sigma] d_ac d_bd / d.

    One Gram matrix over the columns x -> rho(x)_ab of every irrep at once;
    the target is diagonal, 1/d on the columns of a d-dimensional irrep.
    """
    n = table.group.order
    cols = np.hstack([rho.matrices.reshape(n, -1) for rho in table])
    gram = cols.T @ cols.conj() / n
    gram[np.diag_indices_from(gram)] -= np.repeat(
        [1.0 / rho.dim for rho in table], [rho.dim ** 2 for rho in table])
    return float(np.abs(gram).max())


_A1_SPECS = (
    ("cyclic", 12),
    ("symmetric", 3),
    ("dihedral", 4),
    ("quaternion8",),
    ("alternating", 5),
    ("alternating", 6),
    ("psl2", 7),
)

_A1_DIMS = {
    ("alternating", 5): ((1, 3, 3, 4, 5), 3),
    ("alternating", 6): ((1, 5, 5, 8, 8, 9, 10), 5),
}


def _check_a1(ctx: VerifyContext) -> list[Comparison]:
    out = []
    total = 0.0
    for spec in _A1_SPECS:
        g = ctx.group(*spec)
        t0 = time.perf_counter()
        table = ctx.table(*spec)
        total += time.perf_counter() - t0
        out.append(Comparison(f"{g.name}: sum of squared dims", "~=",
                              float(sum(d * d for d in table.dims)),
                              float(g.order)))
        out.append(Comparison(f"{g.name}: irrep count vs class count", "~=",
                              float(len(table)), float(len(g.classes))))
        out.append(Comparison(f"{g.name}: unitarity residual", "<=",
                              _unitarity_residual(table), 1e-8))
        out.append(Comparison(f"{g.name}: Schur orthogonality residual", "<=",
                              _schur_residual(table), 1e-7))
        if spec in _A1_DIMS:
            dims, d_min = _A1_DIMS[spec]
            mismatch = float(sum(abs(a - b) for a, b in
                                 zip(sorted(table.dims), dims)))
            out.append(Comparison(f"{g.name}: dims match {dims}", "~=",
                                  mismatch, 0.0))
            out.append(Comparison(f"{g.name}: d_min", "~=",
                                  float(table.d_min), float(d_min)))
    out.append(Comparison("total decomposition time (s)", "<=", total, 60.0,
                          timing=True))
    return out


def _check_a2(ctx: VerifyContext) -> list[Comparison]:
    table = ctx.table("psl2", 7)
    g = table.group
    rng = np.random.default_rng([ctx.seed, 2])
    f = ScalarFunction(g, rng.standard_normal(g.order)
                       + 1j * rng.standard_normal(g.order))
    spectrum = transform_scalar(f, table)
    back = invert_scalar(spectrum)
    sup = float(np.abs(back.values - f.values).max())
    lhs, rhs = plancherel_check(f, spectrum)
    rel = abs(lhs - rhs) / abs(lhs)
    return [
        Comparison("inversion sup error", "<=", sup, 1e-10),
        Comparison("Plancherel relative error", "<=", rel, 1e-8),
    ]


def _check_a3(ctx: VerifyContext) -> list[Comparison]:
    table = ctx.table("alternating", 5)
    g = table.group
    worst = 0.0
    cases = 0
    for i in range(20):
        dim = 1 + i % 3
        draw = haar_baseline if i % 2 else random_admissible
        psi = draw(g, dim, seed=[ctx.seed, 3, i])
        # the unscreened scan: defect_direct may take its defect from the
        # spectral formula, which would compare that formula with itself
        direct, _ = _pair_scan(psi, AGREEMENT_TOL, screen=False)
        spectral = defect_via_fourier(psi, table)
        rel = abs(direct - spectral.defect) / max(direct, 1e-300)
        worst = max(worst, rel)
        cases += 1
    return [
        Comparison("cases evaluated", "~=", float(cases), 20.0),
        Comparison("max relative disagreement of the two defect routes", "<=",
                   worst, 1e-7),
    ]


def _check_a4(ctx: VerifyContext) -> list[Comparison]:
    worst = 0.0
    cases = 0
    spot = None
    for gi, spec in enumerate((("alternating", 5), ("psl2", 7))):
        table = ctx.table(*spec)
        for ri, rho in enumerate(table):
            for d_psi in range(1, rho.dim + 1):
                for sub in ("leading", "haar"):
                    seed = [ctx.seed, 4, gi, ri, d_psi] if sub == "haar" else None
                    psi = minor_construction(rho, d_psi, subspace=sub, seed=seed)
                    rep = defect_via_fourier(psi, table)
                    gap = abs(rep.defect - thm4_defect(d_psi, rho.dim))
                    worst = max(worst, gap)
                    cases += 1
                    if (spec == ("alternating", 5) and rho.dim == 5
                            and d_psi == 3 and sub == "leading"):
                        spot = rep.defect
    out = [
        Comparison("minor cases evaluated", ">=", float(cases), 88.0),
        Comparison("max |defect - closed form| over all minors", "<=",
                   worst, 1e-7),
    ]
    # reference spot value 6(1 - sqrt(3/5)) for the dim-5 irrep compressed to 3
    out.append(Comparison("spot defect (d_rho=5, d_psi=3) vs 6(1-sqrt(3/5))",
                          "~=", float(spot), float(thm4_defect(3, 5)), 1e-6))
    return out


def _corpus(ctx: VerifyContext) -> list[tuple[str, object, IrrepTable]]:
    """Approximate-representation corpus spanning every construction kind."""
    a5 = ctx.table("alternating", 5)
    a6 = ctx.table("alternating", 6)
    p7 = ctx.table("psl2", 7)
    cases: list[tuple[str, object, IrrepTable]] = []

    def add(label, psi, table):
        cases.append((label, psi, table))

    for ri, rho in enumerate(a5):
        if rho.is_trivial():
            continue
        for d_psi in range(1, rho.dim + 1):
            add(f"A5 minor d{rho.dim}->{d_psi} leading",
                minor_construction(rho, d_psi), a5)
            add(f"A5 minor d{rho.dim}->{d_psi} haar",
                minor_construction(rho, d_psi, subspace="haar",
                                   seed=[ctx.seed, 5, 0, ri, d_psi]), a5)
    for ri, rho in enumerate(p7):
        if rho.is_trivial():
            continue
        for d_psi in range(1, rho.dim + 1):
            add(f"psl2(7) minor d{rho.dim}->{d_psi} leading",
                minor_construction(rho, d_psi), p7)
    rho5 = next(r for r in a6 if r.dim == 5)
    for d_psi in range(1, 6):
        add(f"A6 minor d5->{d_psi} leading", minor_construction(rho5, d_psi), a6)
    for ri, rho in enumerate(a5):
        if rho.is_trivial():
            continue
        for d_psi in range(1, rho.dim + 1):
            add(f"A5 polar d{rho.dim}->{d_psi}",
                polar_construction(rho, d_psi, seed=[ctx.seed, 5, 1, ri, d_psi]),
                a5)
    for dim in (1, 2, 3):
        for j in range(2):
            add(f"A5 haar baseline d{dim} #{j}",
                haar_baseline(a5.group, dim, seed=[ctx.seed, 5, 2, dim, j]), a5)
    for dim in (1, 2):
        add(f"A6 haar baseline d{dim}",
            haar_baseline(a6.group, dim, seed=[ctx.seed, 5, 3, dim]), a6)
    for j in range(4):
        add(f"A5 sign function #{j}",
            random_sign_function(a5.group, seed=[ctx.seed, 5, 4, j]), a5)
    for j in range(3):
        add(f"A6 sign function #{j}",
            random_sign_function(a6.group, seed=[ctx.seed, 5, 5, j]), a6)
    for j in range(3):
        add(f"psl2(7) sign function #{j}",
            random_sign_function(p7.group, seed=[ctx.seed, 5, 6, j]), p7)
    for ri, rho in enumerate(a5):
        if rho.dim < 3:
            continue
        for frac in (0.1, 0.3):
            add(f"A5 perturbed irrep d{rho.dim} f={frac}",
                perturbed_irrep(rho, frac, seed=[ctx.seed, 5, 7, ri, int(10 * frac)]),
                a5)
    for dim in (3, 6):
        rho = next(r for r in p7 if r.dim == dim)
        add(f"psl2(7) perturbed irrep d{dim} f=0.2",
            perturbed_irrep(rho, 0.2, seed=[ctx.seed, 5, 8, dim]), p7)
    return cases


def _check_a5(ctx: VerifyContext) -> list[Comparison]:
    cases = _corpus(ctx)
    min_defect_margin = np.inf
    max_agree_margin = -np.inf
    max_block_margin = -np.inf
    violations = 0
    for _, psi, table in cases:
        rep = defect_direct(psi, table)
        dm = rep.defect - rep.thm1_bound
        am = rep.agreement_prob - rep.cor1_bound
        min_defect_margin = min(min_defect_margin, dm)
        max_agree_margin = max(max_agree_margin, am)
        if dm < -1e-9 or am > 1e-9:
            violations += 1
        for rho, w in zip(table, transform_matrix(psi, table)):
            max_block_margin = max(max_block_margin, np.linalg.norm(w, 2)
                                   - np.sqrt(psi.dim / rho.dim))
    return [
        Comparison("corpus size", ">=", float(len(cases)), 100.0),
        Comparison("min (defect - lower bound)", ">=",
                   float(min_defect_margin), 0.0, 1e-9),
        Comparison("max (agreement - ceiling)", "<=",
                   float(max_agree_margin), 0.0, 1e-9),
        Comparison("bound violations", "~=", float(violations), 0.0),
        Comparison("max (||E psi (x) rho|| - sqrt(d_psi/d_rho)) over the "
                   "tables' irreps", "<=", float(max_block_margin), 0.0, 1e-8),
    ]


def _check_a6(ctx: VerifyContext) -> list[Comparison]:
    table = ctx.table("alternating", 6)
    agreements = []
    for i in range(20):
        psi = random_sign_function(table.group, seed=[ctx.seed, 6, i])
        agreements.append(defect_direct(psi, table).agreement_prob)
    ceiling = 0.5 * (1.0 + np.sqrt(1.0 / 5.0))
    return [
        Comparison("min agreement over 20 sign functions", ">=",
                   float(min(agreements)), 0.45),
        Comparison("max agreement over 20 sign functions", "<=",
                   float(max(agreements)), 0.55),
        Comparison("max agreement vs (1 + sqrt(1/5))/2", "<=",
                   float(max(agreements)), float(ceiling), 1e-9),
    ]


def _check_a7(ctx: VerifyContext) -> list[Comparison]:
    a6 = ctx.table("alternating", 6)
    s3 = ctx.table("symmetric", 3)
    a5 = ctx.table("alternating", 5)
    sigma = next(r for r in s3 if r.dim == 2)
    worst3 = -np.inf
    worst2 = -np.inf
    lift_gain = np.inf
    for i in range(10):
        f = balanced_random_map(a6.group, s3.group, seed=[ctx.seed, 7, i])
        rep = evaluate(f, a6, s3)
        worst3 = max(worst3, rep.agreement_prob - rep.thm3_bound)
        worst2 = max(worst2, rep.agreement_prob - rep.thm2_bound)
        # every pair on which f agrees also agrees after the lift sigma(f(x))
        lifted = defect_direct(lift_through_irrep(f, sigma), a6).agreement_prob
        lift_gain = min(lift_gain, lifted - rep.agreement_prob)
    ident = make_group_map(a5.group, a5.group, np.arange(a5.group.order))
    irep = evaluate(ident, a5, a5)
    return [
        Comparison("balanced maps: max (agreement - collision ceiling)", "<=",
                   float(worst3), 0.0),
        Comparison("balanced maps: max (agreement - lift ceiling)", "<=",
                   float(worst2), 0.0),
        Comparison("identity map agreement", "~=",
                   float(irep.agreement_prob), 1.0, 1e-12),
        Comparison("identity map lift ceiling", "~=",
                   float(irep.thm2_bound), 1.0, 1e-12),
        Comparison("balanced maps: min (agreement of the lift through S3's "
                   "2-dim irrep - map agreement)", ">=", float(lift_gain), 0.0),
    ]


# Decay exponents for the scaling check at ratio 1/2. The (123) coefficient's
# leading d^{-2} term carries a (2r - 1) factor that vanishes at this ratio,
# so its observable decay there is d^{-4}; the other classes keep their
# transposition-distance exponent.
_A8_EXPONENTS = {"e": 0, "(12)": 1, "(123)": 4, "(12)(34)": 2, "(1234)": 3}


def _check_a8(ctx: VerifyContext) -> list[Comparison]:
    t0 = time.perf_counter()
    exact = twirl.twirl_exact(6, 3)
    gram = twirl.twirl_gram(6, 3)
    out = []
    for name in twirl.CLASS_NAMES:
        diff = abs(exact.coefficients[name] - gram.coefficients[name])
        out.append(Comparison(f"|character sum - Gram solve| for class {name}",
                              "<=", diff, 1e-12))
    # the audit's Monte Carlo route is the one with sampling variance
    rho = next(r for r in ctx.table("alternating", 5) if r.dim == 5)
    audit = twirl.error_term_audit(rho, 2, samples=200, seed=[ctx.seed, 8])
    out.append(Comparison("|audit MC - twirl expansion|, A5 d_rho=5 d_psi=2", "<=",
                          abs(audit.monte_carlo - audit.expansion),
                          5.0 * audit.monte_carlo_stderr))
    trivial = twirl.twirl_exact(6, 6)
    out.append(Comparison("trivial compression: coefficient of e", "~=",
                          trivial.coefficients["e"], 1.0, 1e-12))
    rest = max(abs(trivial.coefficients[n]) for n in twirl.CLASS_NAMES if n != "e")
    out.append(Comparison("trivial compression: max other coefficient", "<=",
                          rest, 1e-12))
    scaled: dict[str, list[float]] = {n: [] for n in twirl.CLASS_NAMES}
    for d_rho in (8, 10, 12):
        ex = twirl.twirl_exact(d_rho, d_rho // 2)
        for name in twirl.CLASS_NAMES:
            scaled[name].append(abs(ex.coefficients[name])
                                * d_rho ** _A8_EXPONENTS[name])
    for name in twirl.CLASS_NAMES:
        vals = scaled[name]
        ratio = max(vals) / min(vals)
        out.append(Comparison(
            f"scaling spread of |coeff({name})| d^{_A8_EXPONENTS[name]}", "<=",
            float(ratio), 2.0))
    out.append(Comparison("twirl check time (s)", "<=",
                          time.perf_counter() - t0, 600.0, timing=True))
    return out


def _check_a9(ctx: VerifyContext) -> list[Comparison]:
    table = ctx.table("alternating", 6)
    rho = next(r for r in table if r.dim == 10)
    normalized = []
    residuals = []
    for i in range(20):
        psi = polar_construction(rho, 9, seed=[ctx.seed, 9, i])
        normalized.append(defect_via_fourier(psi, table).normalized_defect)
        residuals.append(polar_residual(psi))
    ratio = 9 / 10
    margin = 1.15
    bound = thm5_normalized_bound(ratio) * margin
    return [
        Comparison("mean normalized defect of 20 polar minors", "<=",
                   float(np.mean(normalized)), float(bound)),
        Comparison("mean normalized defect beats the random baseline", "<",
                   float(np.mean(normalized)), 1.0),
        Comparison("max normalized defect beats the random baseline", "<",
                   float(np.max(normalized)), 1.0),
        Comparison("max unitarization residual", "<=",
                   float(np.max(residuals)), 9 * (1 - ratio) * margin + 1.0),
    ]


def _check_a10(ctx: VerifyContext) -> list[Comparison]:
    r = beating_random_threshold()
    return [
        Comparison("|bound(r) - 1| at the closed-form threshold", "<=",
                   float(abs(thm5_normalized_bound(r) - 1.0)), 1e-12),
        Comparison("threshold rounds to 0.876", "~=", float(r), 0.876, 5e-4),
        Comparison("threshold below the 0.9 study ratio", "<", float(r), 0.9),
    ]


CHECKS: dict[str, tuple[str, object]] = {
    "A1": ("irrep tables complete and orthonormal on seven groups", _check_a1),
    "A2": ("Fourier inversion round-trip and Plancherel identity", _check_a2),
    "A3": ("pair-scan defect matches the spectral formula", _check_a3),
    "A4": ("minor defect hits its closed form", _check_a4),
    "A5": ("defect floor and agreement ceiling dominate the corpus", _check_a5),
    "A6": ("sign functions sit near half agreement, under the ceiling", _check_a6),
    "A7": ("map agreement ceilings hold; identity map is the edge case", _check_a7),
    "A8": ("twirl coefficients: two exact routes, audit Monte Carlo, decay exponents",
           _check_a8),
    "A9": ("polar minors at ratio 0.9 beat the random baseline", _check_a9),
    "A10": ("closed-form threshold solves bound(r) = 1", _check_a10),
}

FAST_CHECK_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7")
FULL_CHECK_IDS = FAST_CHECK_IDS + ("A8", "A9", "A10")


def run_check(check_id: str, ctx: VerifyContext) -> CheckResult:
    """Run one check, capturing exceptions as a failed result."""
    description, fn = CHECKS[check_id]
    t0 = time.perf_counter()
    try:
        comparisons = fn(ctx)
        error = None
    except Exception as exc:  # the battery must report, not crash
        comparisons = []
        error = f"{type(exc).__name__}: {exc}"
    return CheckResult(check_id, description, comparisons,
                       elapsed_s=round(time.perf_counter() - t0, 3),
                       error=error)


def run_battery(scope: str = "fast", seed: int = 0,
                progress=None) -> RunManifest:
    """Run every check in the scope and assemble the manifest.

    progress, when given, is called with each CheckResult as it finishes.
    """
    if scope == "fast":
        ids = FAST_CHECK_IDS
    elif scope == "full":
        ids = FULL_CHECK_IDS
    else:
        raise ValueError(f"scope must be 'fast' or 'full', got {scope!r}")
    from quasirep import __version__

    ctx = VerifyContext(seed=seed)
    t0 = time.perf_counter()
    manifest = RunManifest(
        tool=f"quasirep {__version__}",
        scope=scope,
        seed=int(seed),
        generated_at=datetime.now(timezone.utc).isoformat(),
        wall_clock_s=0.0,
    )
    for check_id in ids:
        result = run_check(check_id, ctx)
        manifest.checks.append(result)
        if progress is not None:
            progress(result)
    manifest.wall_clock_s = round(time.perf_counter() - t0, 3)
    return manifest
