"""Fourier analysis on a finite group against a complete irrep table.

One convention: a function psi from the group to d x d matrices transforms
blockwise into operators W_rho = E_x psi(x) (x) rho(x) on the tensor product,
returned as a tuple of square matrices of side d * d_rho, one per irrep.
Inversion reads psi(y) = sum_rho d_rho tr_rho[W_rho (1 (x) rho(y)')], the
partial trace taken over the irrep factor, and the norm identity reads
E ||psi||_F^2 = sum_rho d_rho ||W_rho||_F^2. Both need a complete table. A
scalar function is the case d = 1.
"""

from __future__ import annotations

import numpy as np

from .errors import IncompleteTable
from .irreps import IrrepTable, MatrixFunction

__all__ = ["transform_matrix", "invert_matrix"]


def transform_matrix(psi: MatrixFunction, table: IrrepTable) -> tuple[np.ndarray, ...]:
    """Blockwise transform W_rho = E_x psi(x) (x) rho(x) of a matrix function.

    Returns the blocks aligned with table.irreps. Block i is a square matrix
    of side d_psi * d_i, row index (a, c) and column index (b, d) for psi
    entry (a, b) and irrep entry (c, d), formed as one GEMM over x.
    """
    if table.group is not psi.group:
        raise ValueError("function and irrep table belong to different groups")
    n, d = psi.group.order, psi.dim
    left = psi.matrices.reshape(n, d * d).T
    blocks = []
    for rho in table.irreps:
        e = rho.dim
        w = (left @ rho.matrices.reshape(n, e * e) / n).reshape(d, d, e, e)
        blocks.append(w.transpose(0, 2, 1, 3).reshape(d * e, d * e))
    return tuple(blocks)


def invert_matrix(blocks: tuple[np.ndarray, ...], table: IrrepTable) -> np.ndarray:
    """Reconstruct psi(y) = sum_rho d_rho tr_rho[W_rho (1 (x) rho(y)')].

    blocks: the output of transform_matrix against table. Returns the
    (|G|, d, d) stack of the psi(y), formed as one GEMM per irrep. Raises
    IncompleteTable when the table does not span the group algebra and
    ValueError when the blocks do not match the table.
    """
    n = table.group.order
    if sum(e * e for e in table.dims) != n:
        raise IncompleteTable(
            f"dims {list(table.dims)} do not span a group of order {n}")
    if len(blocks) != len(table.irreps):
        raise ValueError(f"{len(blocks)} blocks for {len(table.irreps)} irreps")
    d = blocks[0].shape[0] // table.irreps[0].dim
    out = np.zeros((n, d * d), dtype=np.complex128)
    for w, rho in zip(blocks, table.irreps):
        e = rho.dim
        if w.shape != (d * e, d * e):
            raise ValueError(
                f"block of shape {w.shape} for d_psi = {d}, d_rho = {e}")
        # entry (a, b) of psi(y) sums w[(a, c), (b, d)] against conj(rho_cd(y))
        m = w.reshape(d, e, d, e).transpose(0, 2, 1, 3).reshape(d * d, e * e)
        out += e * (rho.matrices.reshape(n, e * e).conj() @ m.T)
    return out.reshape(n, d, d)
