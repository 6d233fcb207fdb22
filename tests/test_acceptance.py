"""Acceptance gate: every numbered check from the battery, one test per id.

Run with -v to get one PASS/FAIL line per criterion; the printed summary
lines carry the measured values and bounds for the log.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from quasirep import approx, fourier, groups, homs, irreps, twirl, verify


@pytest.fixture(scope="module")
def ctx():
    return verify.VerifyContext(seed=0)


def test_battery_covers_all_ten_checks():
    assert verify.FULL_CHECK_IDS == tuple(f"A{i}" for i in range(1, 11))
    assert verify.FAST_CHECK_IDS == tuple(f"A{i}" for i in range(1, 8))
    assert set(verify.CHECKS) == set(verify.FULL_CHECK_IDS)


@pytest.mark.parametrize("check_id", verify.FULL_CHECK_IDS)
def test_criterion(ctx, check_id):
    result = verify.run_check(check_id, ctx)
    print(result.summary_line())
    for comparison in result.comparisons:
        verdict = "ok" if comparison.passed else "FAILED"
        print(f"  {comparison.label}: {comparison.measured:.12g} "
              f"{comparison.relation} {comparison.bound:.12g} "
              f"(slack {comparison.slack:.1e}) {verdict}")
        # every comparison must report both sides, never only a verdict
        recorded = comparison.to_dict()
        assert isinstance(recorded["measured"], float)
        assert isinstance(recorded["bound"], float)
    detail = "; ".join(
        f"{c.label}: {c.measured:.12g} {c.relation} {c.bound:.12g}"
        for c in result.failures())
    if result.error:
        detail = f"error: {result.error}"
    assert result.passed, f"{check_id} failed: {detail}"


def test_negative_control_tampered_plancherel(ctx):
    # a deliberately broken norm identity (dropping the dimension weights)
    # must be flagged; this guards the battery against vacuous tolerances
    table = ctx.table("psl2", 7)
    g = table.group
    rng = np.random.default_rng(123)
    shape = (g.order, 3, 3)
    psi = irreps.MatrixFunction(
        g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    blocks = fourier.transform_matrix(psi, table)
    lhs = float(np.sum(np.abs(psi.matrices) ** 2)) / g.order
    rhs = float(sum(rho.dim * np.linalg.norm(w) ** 2
                    for rho, w in zip(table.irreps, blocks)))
    assert abs(rhs - lhs) / lhs <= 1e-8  # honest normalization passes

    tampered = float(sum(np.linalg.norm(w) ** 2 for w in blocks))
    bad = verify.Comparison("Plancherel relative error", "<=",
                            abs(tampered - lhs) / lhs, 1e-8)
    assert not bad.passed


def test_an_unknown_relation_is_refused():
    with pytest.raises(ValueError, match="^unknown relation '!='$"):
        verify.Comparison("x", "!=", 0.0, 1.0).passed


def test_a2_catches_an_inverse_missing_one_irrep(ctx, monkeypatch):
    honest = verify.invert_matrix

    def without_last_irrep(blocks, table):
        return honest((*blocks[:-1], np.zeros_like(blocks[-1])), table)

    monkeypatch.setattr(verify, "invert_matrix", without_last_irrep)
    result = verify.run_check("A2", ctx)
    assert [c.label for c in result.failures()] == ["inversion sup error"]


def test_a8_catches_a_wrong_gram_coefficient(ctx, monkeypatch):
    honest = twirl.twirl_gram

    def one_coefficient_off(d_rho, d_psi):
        expansion = honest(d_rho, d_psi)
        coefficients = dict(expansion.coefficients)
        coefficients["(123)"] += 1e-10
        return dataclasses.replace(expansion, coefficients=coefficients)

    monkeypatch.setattr(twirl, "twirl_gram", one_coefficient_off)
    result = verify.run_check("A8", ctx)
    assert [c.label for c in result.failures()] == [
        "|character sum - Gram solve| for class (123)"]


def test_a8_catches_a_shifted_audit_expansion(ctx, monkeypatch):
    honest = twirl.error_term_audit

    def shifted(rho, d_psi, seed):
        audit = honest(rho, d_psi, seed=seed)
        return dataclasses.replace(
            audit, expansion=audit.expansion + 10 * audit.monte_carlo_stderr)

    monkeypatch.setattr(twirl, "error_term_audit", shifted)
    result = verify.run_check("A8", ctx)
    assert [c.label for c in result.failures()] == [
        "|audit MC - twirl expansion|, A5 d_rho=5 d_psi=2"]


def test_a5_catches_a_block_above_the_opnorm_lemma(ctx, monkeypatch):
    # A5 reads the transform blocks of defect_direct's report; scaling them
    # alone leaves every other field it compares as it was
    honest = verify.defect_direct

    def inflated(psi, table):
        report = honest(psi, table)
        return dataclasses.replace(report,
                                   blocks=tuple((1 + 1e-6) * w for w in report.blocks))

    monkeypatch.setattr(verify, "defect_direct", inflated)
    result = verify.run_check("A5", ctx)
    assert [c.label for c in result.failures()] == [
        "max (||E psi (x) rho|| - sqrt(d_psi/d_rho)) over the tables' irreps"]


def pushed_once(monkeypatch, **change):
    """Makes verify's defect_direct apply change(report) to its first report."""
    honest = verify.defect_direct
    calls = []

    def pushed(psi, table):
        report = honest(psi, table)
        calls.append(psi)
        if len(calls) > 1:
            return report
        return dataclasses.replace(report, **{k: f(report) for k, f in change.items()})

    monkeypatch.setattr(verify, "defect_direct", pushed)


def test_a5_catches_a_defect_below_the_lower_bound(ctx, monkeypatch):
    # the first case is a minor with a positive floor, so the tightness
    # comparison sees the push too
    pushed_once(monkeypatch, defect=lambda report: report.thm1_bound - 1e-6)
    result = verify.run_check("A5", ctx)
    assert [c.label for c in result.failures()] == [
        "min (defect - lower bound)", "bound violations",
        "min (defect - lower bound) where the bound is positive"]


def test_a5_catches_an_agreement_above_the_ceiling(ctx, monkeypatch):
    pushed_once(monkeypatch, agreement_prob=lambda report: report.cor1_bound + 1e-6)
    result = verify.run_check("A5", ctx)
    assert [c.label for c in result.failures()] == [
        "max (agreement - ceiling)", "bound violations"]


def test_a1_reads_the_unitarity_residuals_decompose_measured(ctx, monkeypatch):
    # every irrep was validated when its table was built; A1 runs no second pass
    for spec in verify._A1_SPECS:
        ctx.table(*spec)
    calls = []
    honest = irreps._unitarity_residuals
    monkeypatch.setattr(irreps, "_unitarity_residuals",
                        lambda matrices: calls.append(matrices) or honest(matrices))
    assert verify.run_check("A1", ctx).passed
    assert calls == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a5_pruned_block_margin_is_the_exhaustive_maximum(seed):
    # the SVDs A5 skips cannot move its maximum, to the last bit: the
    # exhaustive maximum takes every block's SVD from a fresh transform
    pruned = exhaustive = -np.inf
    for psi, table in verify._corpus(verify.VerifyContext(seed=seed)):
        report = approx.defect_direct(psi, table)
        pruned = verify._largest_block_margin(report.blocks, table, psi.dim, pruned)
        for rho, w in zip(table, fourier.transform_matrix(psi, table)):
            exhaustive = max(exhaustive, np.linalg.norm(w, 2) - np.sqrt(psi.dim / rho.dim))
    assert float(pruned).hex() == float(exhaustive).hex()


def test_a3_catches_a_scan_defect_off_by_a_part_in_a_million(ctx, monkeypatch):
    honest = approx._full_scan

    def off(psi):
        defect, agreement = honest(psi)
        return defect * (1.0 + 1e-6), agreement

    monkeypatch.setattr(approx, "_full_scan", off)
    result = verify.run_check("A3", ctx)
    assert [c.label for c in result.failures()] == [
        "max relative disagreement of the two defect routes"]


def _scaled_spectral_report(name, scale):
    """approx._spectral_report with the bound `name` scaled inside its clamp."""
    honest = approx._spectral_report

    def scaled(psi, table):
        report, positive = honest(psi, table)
        m3, root = report.mean_opnorm ** 3, np.sqrt(psi.dim / table.d_min)
        bounds = {"thm1_bound": max(0.0, scale * 2.0 * psi.dim * (1.0 - m3 - root)),
                  "cor1_bound": min(1.0, scale * 0.5 * (1.0 + m3 + root))}
        return dataclasses.replace(report, **{name: bounds[name]}), positive
    return scaled


def _scaled_evaluate(name, scale):
    """verify.evaluate with the ceiling `name` scaled inside its clamp."""
    honest = verify.evaluate

    def scaled(f, source_table, target_table):
        report = honest(f, source_table, target_table)
        eps, d, d_min = report.epsilon, report.thm2_sigma_dim, source_table.d_min
        bounds = {"thm2_bound": min(1.0, scale * 0.5 * (1.0 + np.sqrt(eps / d)
                                                        + np.sqrt(d / d_min))),
                  "thm3_bound": min(1.0, scale * ((1.0 + eps) / f.target.order
                                                  + report.r_h))}
        return dataclasses.replace(report, **{name: bounds[name]})
    return scaled


def _scaled(fn, scale):
    return lambda *args: scale * fn(*args)


# each bound formula, the check that must fail when it is scaled by 1 %
# either way, and how to scale it
MUTANTS = {
    "thm1": ("A5", lambda mp, s: mp.setattr(
        approx, "_spectral_report", _scaled_spectral_report("thm1_bound", s))),
    "cor1": ("A6", lambda mp, s: mp.setattr(
        approx, "_spectral_report", _scaled_spectral_report("cor1_bound", s))),
    "thm2": ("A7", lambda mp, s: mp.setattr(
        verify, "evaluate", _scaled_evaluate("thm2_bound", s))),
    "thm3": ("A7", lambda mp, s: mp.setattr(
        verify, "evaluate", _scaled_evaluate("thm3_bound", s))),
    "r_h": ("A7", lambda mp, s: mp.setattr(homs, "r_h", _scaled(homs.r_h, s))),
    "thm4": ("A4", lambda mp, s: mp.setattr(
        verify, "thm4_defect", _scaled(verify.thm4_defect, s))),
    "thm5": ("A10", lambda mp, s: mp.setattr(
        verify, "thm5_normalized_bound", _scaled(verify.thm5_normalized_bound, s))),
}


@pytest.mark.parametrize("scale", [0.99, 1.0, 1.01])
@pytest.mark.parametrize("formula", sorted(MUTANTS))
def test_a_bound_off_by_one_percent_fails_its_check(ctx, monkeypatch, formula, scale):
    # the battery checks every bound from both sides; at scale 1 the
    # rewritten formula is the package's own, and its check passes
    check_id, mutate = MUTANTS[formula]
    mutate(monkeypatch, scale)
    result = verify.run_check(check_id, ctx)
    assert result.error is None
    assert result.passed == (scale == 1.0)


def test_cheap_checks_are_deterministic():
    runs = []
    for _ in range(2):
        ctx = verify.VerifyContext(seed=0)
        results = [verify.run_check(cid, ctx).to_dict() for cid in ("A2", "A3")]
        runs.append([verify.deterministic_manifest_dict(r) for r in results])
    assert runs[0] == runs[1]


def test_context_caches_groups():
    ctx = verify.VerifyContext(seed=0)
    assert ctx.group("alternating", 5) is ctx.group("alternating", 5)
    assert ctx.table("symmetric", 3) is ctx.table("symmetric", 3)
    assert groups.group_hash(ctx.group("cyclic", 12)) == groups.group_hash(
        groups.named("cyclic", 12))
    assert isinstance(ctx.table("symmetric", 3), irreps.IrrepTable)


def stub_checks(monkeypatch, raising):
    """Replace every check by a cheap one; check `raising` raises instead."""
    def make(check_id):
        def check(ctx):
            if check_id == raising:
                raise RuntimeError(f"{check_id} broke")
            return [verify.Comparison("stub", "<=", 0.0, 1.0)]
        return check
    monkeypatch.setattr(verify, "CHECKS", {
        cid: (f"stub {cid}", make(cid)) for cid in verify.FULL_CHECK_IDS})


@pytest.mark.parametrize("scope, ids", [
    ("fast", verify.FAST_CHECK_IDS), ("full", verify.FULL_CHECK_IDS)])
def test_run_battery_runs_its_scope_in_order(monkeypatch, scope, ids):
    stub_checks(monkeypatch, raising=None)
    seen = []
    manifest = verify.run_battery(scope, seed=3, progress=seen.append)
    assert [c.check_id for c in manifest.checks] == list(ids)
    assert tuple(seen) == manifest.checks
    assert manifest.passed and manifest.scope == scope and manifest.seed == 3


def test_run_battery_rejects_an_unknown_scope(monkeypatch):
    stub_checks(monkeypatch, raising=None)
    with pytest.raises(ValueError, match="scope must be 'fast' or 'full'"):
        verify.run_battery("medium")


def test_a_raising_check_becomes_a_failed_result(monkeypatch):
    stub_checks(monkeypatch, raising="A2")
    manifest = verify.run_battery("fast")
    assert [c.check_id for c in manifest.checks] == list(verify.FAST_CHECK_IDS)
    first = manifest.first_failure()
    assert first.check_id == "A2"
    assert not first.passed and first.comparisons == ()
    assert first.error == "RuntimeError: A2 broke"
    assert all(c.passed for c in manifest.checks if c is not first)
