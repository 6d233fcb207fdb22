"""Acceptance gate: every numbered check from the battery, one test per id.

Run with -v to get one PASS/FAIL line per criterion; the printed summary
lines carry the measured values and bounds for the log.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from quasirep import fourier, groups, irreps, twirl, verify


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
    rng = np.random.default_rng(123)
    f = fourier.ScalarFunction(
        table.group,
        rng.standard_normal(table.group.order)
        + 1j * rng.standard_normal(table.group.order))
    spectrum = fourier.transform_scalar(f, table)
    lhs, rhs = fourier.plancherel_check(f, spectrum)
    assert abs(rhs - lhs) / lhs <= 1e-8  # honest normalization passes

    tampered = float(table.group.order * sum(
        np.linalg.norm(block) ** 2 for block in spectrum.blocks))
    bad = verify.Comparison("Plancherel relative error", "<=",
                            abs(tampered - lhs) / lhs, 1e-8)
    assert not bad.passed


def test_a8_catches_a_wrong_gram_coefficient(ctx, monkeypatch):
    honest = twirl.twirl_gram

    def one_coefficient_off(d_rho, d_psi):
        expansion = honest(d_rho, d_psi)
        expansion.coefficients["(123)"] += 1e-10
        return expansion

    monkeypatch.setattr(twirl, "twirl_gram", one_coefficient_off)
    result = verify.run_check("A8", ctx)
    assert [c.label for c in result.failures()] == [
        "|character sum - Gram solve| for class (123)"]


def test_a8_catches_a_shifted_audit_expansion(ctx, monkeypatch):
    honest = twirl.error_term_audit

    def shifted(rho, d_psi, samples=200, seed=0):
        audit = honest(rho, d_psi, samples=samples, seed=seed)
        return dataclasses.replace(
            audit, expansion=audit.expansion + 10 * audit.monte_carlo_stderr)

    monkeypatch.setattr(twirl, "error_term_audit", shifted)
    result = verify.run_check("A8", ctx)
    assert [c.label for c in result.failures()] == [
        "|audit MC - twirl expansion|, A5 d_rho=5 d_psi=2"]


def test_a5_catches_a_block_above_the_opnorm_lemma(ctx, monkeypatch):
    honest = verify.transform_matrix
    monkeypatch.setattr(verify, "transform_matrix", lambda psi, table: tuple(
        (1 + 1e-6) * w for w in honest(psi, table)))
    result = verify.run_check("A5", ctx)
    assert [c.label for c in result.failures()] == [
        "max (||E psi (x) rho|| - sqrt(d_psi/d_rho)) over the tables' irreps"]


def test_a3_catches_a_scan_defect_off_by_a_part_in_a_million(ctx, monkeypatch):
    honest = verify._pair_scan

    def off(psi, agreement_tol, screen):
        defect, agreement = honest(psi, agreement_tol, screen)
        return defect * (1.0 + 1e-6), agreement

    monkeypatch.setattr(verify, "_pair_scan", off)
    result = verify.run_check("A3", ctx)
    assert [c.label for c in result.failures()] == [
        "max relative disagreement of the two defect routes"]


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
