"""Scalar and matrix transforms: inversion, norm identity, covariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import approx, fourier, groups, irreps
from quasirep.errors import IncompleteTable

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_scalar(group, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return fourier.ScalarFunction(group, values)


def test_delta_at_identity(s3, s3_table):
    values = np.zeros(s3.order)
    values[s3.identity] = 1.0
    f = fourier.ScalarFunction(s3, values)
    spectrum = fourier.transform_scalar(f, s3_table)
    for rho, block in zip(s3_table, spectrum.blocks):
        assert np.allclose(block, np.eye(rho.dim) / s3.order, atol=1e-12)
    back = fourier.invert_scalar(spectrum)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    lhs, rhs = fourier.plancherel_check(f, spectrum)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(1.0)


def test_constant_function(s3, s3_table):
    f = fourier.ScalarFunction(s3, np.ones(s3.order))
    spectrum = fourier.transform_scalar(f, s3_table)
    assert spectrum.blocks[0][0, 0] == pytest.approx(1.0)
    for block in spectrum.blocks[1:]:
        assert np.max(np.abs(block)) < 1e-12


def test_translation_covariance(s3, s3_table):
    # shifting the argument multiplies each block by the irrep on the left:
    # x -> f(x g) sends f_hat(rho) to rho(g) f_hat(rho)
    f = random_scalar(s3, 7)
    hat = fourier.transform_scalar(f, s3_table)
    for g in range(s3.order):
        shifted = fourier.ScalarFunction(s3, f.values[s3.table[:, g]])
        hat_shifted = fourier.transform_scalar(shifted, s3_table)
        for rho, block, shifted_block in zip(s3_table, hat.blocks, hat_shifted.blocks):
            assert np.allclose(shifted_block, rho.matrices[g] @ block, atol=1e-12)


# S3 has real irreps only, cyclic 12 and psl2(7) have complex ones and
# quaternion8 has a quaternionic one
ROUND_TRIP_GROUPS = [("symmetric", 3), ("cyclic", 12), ("quaternion8",), ("psl2", 7)]


@pytest.fixture(scope="module")
def round_trip_tables():
    return {spec: irreps.decompose(groups.named(*spec)) for spec in ROUND_TRIP_GROUPS}


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(ROUND_TRIP_GROUPS), seed=seeds)
def test_round_trip_and_plancherel(round_trip_tables, spec, seed):
    table = round_trip_tables[spec]
    f = random_scalar(table.group, seed)
    spectrum = fourier.transform_scalar(f, table)
    back = fourier.invert_scalar(spectrum)
    assert np.max(np.abs(back.values - f.values)) < 1e-10
    lhs, rhs = fourier.plancherel_check(f, spectrum)
    assert rhs == pytest.approx(lhs, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, scale=st.floats(-3.0, 3.0))
def test_linearity(s3, s3_table, seed, scale):
    f = random_scalar(s3, seed)
    g = random_scalar(s3, seed + 1)
    combo = fourier.ScalarFunction(s3, f.values + scale * g.values)
    hf = fourier.transform_scalar(f, s3_table)
    hg = fourier.transform_scalar(g, s3_table)
    hc = fourier.transform_scalar(combo, s3_table)
    for bf, bg, bc in zip(hf.blocks, hg.blocks, hc.blocks):
        assert np.allclose(bc, bf + scale * bg, atol=1e-12)


def test_matrix_transform_block_shapes(a5, a5_table):
    psi = approx.random_admissible(a5, 2, seed=3)
    blocks = fourier.transform_matrix(psi, a5_table)
    assert len(blocks) == len(a5_table)
    for rho, block in zip(a5_table, blocks):
        assert block.shape == (2 * rho.dim, 2 * rho.dim)


def test_block_opnorm_saturates_for_the_irrep_itself(a5_table):
    # a real irrep paired with itself contains the trivial rep once, so the
    # averaged tensor block is a rank-one projection with operator norm 1
    i = a5_table.dims.index(3)
    rho = a5_table.irreps[i]
    psi = approx.MatrixFunction(rho.group, rho.dim, rho.matrices)
    block = fourier.transform_matrix(psi, a5_table)[i]
    assert np.linalg.norm(block, 2) == pytest.approx(1.0, abs=1e-8)


def test_block_opnorm_bound_for_admissible(a5, a5_table):
    psi = approx.random_admissible(a5, 2, seed=11)
    assert psi.admissibility_residual() <= 1e-8
    for rho, block in zip(a5_table, fourier.transform_matrix(psi, a5_table)):
        bound = np.sqrt(psi.dim / rho.dim)
        assert np.linalg.norm(block, 2) <= bound + 1e-8


def test_invert_requires_complete_table(s3, s3_table):
    partial = irreps.IrrepTable(s3, s3_table.irreps[:-1])
    f = random_scalar(s3, 0)
    spectrum = fourier.transform_scalar(f, partial)
    with pytest.raises(IncompleteTable):
        fourier.invert_scalar(spectrum)


def test_group_mismatch_rejected(s3, a5_table):
    f = random_scalar(s3, 0)
    with pytest.raises(ValueError):
        fourier.transform_scalar(f, a5_table)


def test_scalar_function_shape_check(s3):
    with pytest.raises(ValueError):
        fourier.ScalarFunction(s3, np.ones(5))
