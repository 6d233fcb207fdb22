"""The seed rule: every draw comes from sampling.stream, which refuses None."""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quasirep
from quasirep import approx, homs, irreps, twirl
from quasirep.sampling import haar_basis, stream

# every public routine whose output is a random draw, called with the seed
DRAWS = {
    "approx.random_sign_function": lambda fx, seed: approx.random_sign_function(fx.s3, seed),
    "approx.haar_baseline": lambda fx, seed: approx.haar_baseline(fx.s3, 2, seed),
    "approx.perturbed_irrep": lambda fx, seed: approx.perturbed_irrep(fx.rho, 0.5, seed),
    "approx.random_admissible": lambda fx, seed: approx.random_admissible(fx.s3, 2, seed),
    "approx.polar_construction": lambda fx, seed: approx.polar_construction(fx.rho, 2, seed),
    "homs.random_map": lambda fx, seed: homs.random_map(fx.s3, fx.s3, seed),
    "homs.balanced_random_map": lambda fx, seed: homs.balanced_random_map(fx.s3, fx.s3, seed),
    "twirl.error_term_audit": lambda fx, seed: twirl.error_term_audit(fx.rho, 2, seed),
    "irreps.decompose": lambda fx, seed: irreps.decompose(fx.s3, seed),
}


def _drawn_bytes(value) -> bytes:
    """The bytes of what a routine drew."""
    if isinstance(value, irreps.IrrepTable):
        return b"".join(rho.matrices.tobytes() for rho in value)
    if isinstance(value, homs.GroupMap):
        return value.values.tobytes()
    if isinstance(value, twirl.TwirlAudit):
        return np.array([value.monte_carlo, value.monte_carlo_stderr]).tobytes()
    return value.matrices.tobytes()


@pytest.mark.parametrize("name", DRAWS)
def test_every_draw_needs_a_seed_and_reads_s_as_the_seed_s(name, s3, a5_table):
    fx = SimpleNamespace(s3=s3, rho=a5_table.irreps[4])
    draw = DRAWS[name]
    with pytest.raises(ValueError, match="needs a seed"):
        draw(fx, None)
    first = _drawn_bytes(draw(fx, 5))
    assert _drawn_bytes(draw(fx, 5)) == first
    assert _drawn_bytes(draw(fx, [5])) == first


@pytest.mark.parametrize("seed", [0, 5, 2 ** 40, np.int64(7), approx._SCREEN_SEED])
def test_a_stream_is_default_rng_of_the_seed_extended_by_its_path(seed):
    assert stream(seed).bytes(64) == np.random.default_rng(seed).bytes(64)
    assert stream(seed).bytes(64) == stream([seed]).bytes(64)
    assert stream(seed, 3, 1).bytes(64) == np.random.default_rng([seed, 3, 1]).bytes(64)
    assert stream([seed, 3], 1).bytes(64) == stream(seed, 3, 1).bytes(64)


def test_only_sampling_calls_default_rng():
    package = Path(quasirep.__file__).parent
    callers = sorted(p.name for p in package.glob("*.py") if "default_rng" in p.read_text())
    assert callers == ["sampling.py"]


@pytest.mark.parametrize("seed", [None, 0, 5, [2, 3]])
def test_a_minor_is_leading_without_a_seed_and_haar_from_it_with_one(a5_table, seed):
    # the leading coordinates draw nothing; a seed's Haar basis is the first
    # draw of default_rng(seed), as it was for the subspace="haar" minor
    rho = a5_table.irreps[4]
    basis = (np.eye(5, 3, dtype=np.complex128) if seed is None
             else haar_basis(np.random.default_rng(seed), 5, 3))
    expected = approx._sandwich(basis, rho, np.sqrt(5 / 3) * basis)
    assert np.array_equal(approx.minor_construction(rho, 3, seed=seed).matrices, expected)


def test_the_subspace_knob_and_the_audit_default_are_gone(a5_table):
    rho = a5_table.irreps[4]
    with pytest.raises(TypeError):
        approx.minor_construction(rho, 2, subspace="haar", seed=1)
    with pytest.raises(TypeError):
        twirl.error_term_audit(rho, 2)
