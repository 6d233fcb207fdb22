"""The blockwise matrix transform: inversion, norm identity, covariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirep import approx, fourier, groups, irreps
from quasirep.errors import IncompleteTable

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_function(group, dim, seed):
    rng = np.random.default_rng(seed)
    shape = (group.order, dim, dim)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return irreps.MatrixFunction(group, values)


def plancherel_sides(psi, table, blocks):
    """(E ||psi||_F^2, sum_rho d_rho ||W_rho||_F^2)."""
    lhs = float(np.sum(np.abs(psi.matrices) ** 2)) / psi.group.order
    rhs = float(sum(rho.dim * np.linalg.norm(w) ** 2
                    for rho, w in zip(table.irreps, blocks)))
    return lhs, rhs


def test_delta_at_identity(s3, s3_table):
    # psi = A at the identity and 0 elsewhere has W_rho = A (x) 1 / |G|
    a = np.array([[1.0, 2.0j], [-0.5, 3.0]])
    values = np.zeros((s3.order, 2, 2), dtype=complex)
    values[s3.identity] = a
    psi = irreps.MatrixFunction(s3, values)
    blocks = fourier.transform_matrix(psi, s3_table)
    for rho, block in zip(s3_table, blocks):
        assert np.allclose(block, np.kron(a, np.eye(rho.dim)) / s3.order, atol=1e-12)
    back = fourier.invert_matrix(blocks, s3_table)
    assert np.max(np.abs(back - values)) < 1e-12
    lhs, rhs = plancherel_sides(psi, s3_table, blocks)
    assert lhs == pytest.approx(np.linalg.norm(a) ** 2 / s3.order)
    assert rhs == pytest.approx(lhs)


def test_constant_function(s3, s3_table):
    a = np.array([[2.0, 1.0j], [0.0, -1.0]])
    psi = irreps.MatrixFunction(s3, np.broadcast_to(a, (s3.order, 2, 2)))
    blocks = fourier.transform_matrix(psi, s3_table)
    assert np.allclose(s3_table.irreps[0].matrices, 1.0)  # trivial irrep first
    assert np.allclose(blocks[0], a, atol=1e-12)
    for block in blocks[1:]:
        assert np.max(np.abs(block)) < 1e-12


def test_translation_covariance(s3, s3_table):
    # shifting the argument multiplies each block by the irrep on the right:
    # x -> psi(x g) sends W_rho to W_rho (1 (x) rho(g)')
    psi = random_function(s3, 2, 7)
    blocks = fourier.transform_matrix(psi, s3_table)
    for g in range(s3.order):
        shifted = irreps.MatrixFunction(s3, psi.matrices[s3.table[:, g]])
        shifted_blocks = fourier.transform_matrix(shifted, s3_table)
        for rho, block, shifted_block in zip(s3_table, blocks, shifted_blocks):
            right = np.kron(np.eye(2), rho.matrices[g].conj().T)
            assert np.allclose(shifted_block, block @ right, atol=1e-12)


# S3 has real irreps only, cyclic 12 and psl2(7) have complex ones and
# quaternion8 has a quaternionic one
ROUND_TRIP_GROUPS = [("symmetric", 3), ("cyclic", 12), ("quaternion8",), ("psl2", 7)]


@pytest.fixture(scope="module")
def round_trip_tables():
    return {spec: irreps.decompose(groups.named(*spec)) for spec in ROUND_TRIP_GROUPS}


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(ROUND_TRIP_GROUPS), dim=st.sampled_from([1, 3]), seed=seeds)
def test_round_trip_and_plancherel(round_trip_tables, spec, dim, seed):
    table = round_trip_tables[spec]
    psi = random_function(table.group, dim, seed)
    blocks = fourier.transform_matrix(psi, table)
    back = fourier.invert_matrix(blocks, table)
    assert back.shape == psi.matrices.shape
    assert np.max(np.abs(back - psi.matrices)) < 1e-10
    lhs, rhs = plancherel_sides(psi, table, blocks)
    assert rhs == pytest.approx(lhs, rel=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, scale=st.floats(-3.0, 3.0))
def test_linearity(s3, s3_table, seed, scale):
    f = random_function(s3, 2, seed)
    g = random_function(s3, 2, seed + 1)
    combo = irreps.MatrixFunction(s3, f.matrices + scale * g.matrices)
    hf = fourier.transform_matrix(f, s3_table)
    hg = fourier.transform_matrix(g, s3_table)
    hc = fourier.transform_matrix(combo, s3_table)
    for bf, bg, bc in zip(hf, hg, hc):
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
    block = fourier.transform_matrix(rho, a5_table)[i]
    assert np.linalg.norm(block, 2) == pytest.approx(1.0, abs=1e-8)


def test_block_opnorm_bound_for_admissible(a5, a5_table):
    psi = approx.random_admissible(a5, 2, seed=11)
    assert psi.admissibility_residual() <= 1e-8
    for rho, block in zip(a5_table, fourier.transform_matrix(psi, a5_table)):
        bound = np.sqrt(psi.dim / rho.dim)
        assert np.linalg.norm(block, 2) <= bound + 1e-8


def test_invert_requires_complete_table(s3, s3_table):
    partial = irreps.IrrepTable(s3, s3_table.irreps[:-1])
    blocks = fourier.transform_matrix(random_function(s3, 1, 0), partial)
    with pytest.raises(IncompleteTable):
        fourier.invert_matrix(blocks, partial)


def test_invert_rejects_blocks_that_do_not_match_the_table(s3, s3_table):
    blocks = fourier.transform_matrix(random_function(s3, 2, 0), s3_table)
    with pytest.raises(ValueError):
        fourier.invert_matrix(blocks[:-1], s3_table)
    with pytest.raises(ValueError):
        fourier.invert_matrix((blocks[0], blocks[1][:-1, :-1], blocks[2]), s3_table)


def test_group_mismatch_rejected(s3, a5_table):
    with pytest.raises(ValueError):
        fourier.transform_matrix(random_function(s3, 1, 0), a5_table)
