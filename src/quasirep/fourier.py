"""Fourier analysis on a finite group against a complete irrep table.

Conventions: the transform of a scalar function is f_hat(rho) = E_x f(x)
rho(x)', inversion is f(x) = sum_rho d_rho tr(f_hat(rho) rho(x)), and the
norm identity reads E|f|^2 = sum_rho d_rho ||f_hat(rho)||_F^2 after clearing
the 1/|G| between the two averages. Matrix-valued functions transform
blockwise into operators W_rho = E_x psi(x) (x) rho(x) on the tensor product,
stored as square matrices of side d_psi * d_rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import IncompleteTable
from .groups import FiniteGroup
from .irreps import IrrepTable

if TYPE_CHECKING:
    from .approx import MatrixFunction

__all__ = [
    "ScalarFunction",
    "ScalarSpectrum",
    "MatrixSpectrum",
    "transform_scalar",
    "invert_scalar",
    "plancherel_check",
    "transform_matrix",
]


@dataclass(eq=False)
class ScalarFunction:
    """A complex-valued function on a group, one value per element index."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.group.order,):
            raise ValueError(
                f"values must have shape ({self.group.order},), got {self.values.shape}")


@dataclass(eq=False)
class ScalarSpectrum:
    """Transform blocks of a scalar function, aligned with table.irreps."""

    table: IrrepTable
    blocks: tuple[np.ndarray, ...]


@dataclass(eq=False)
class MatrixSpectrum:
    """Blockwise transform of a matrix-valued function.

    blocks[i] is the operator E_x psi(x) (x) rho_i(x) as a square matrix of
    side dim_psi * d_i, row index (a, c) and column index (b, d) for psi entry
    (a, b) and irrep entry (c, d).
    """

    table: IrrepTable
    dim_psi: int
    blocks: tuple[np.ndarray, ...]


def _check_alignment(group: FiniteGroup, table: IrrepTable) -> None:
    if table.group is not group:
        raise ValueError("function and irrep table belong to different groups")


def transform_scalar(f: ScalarFunction, table: IrrepTable) -> ScalarSpectrum:
    """Blockwise transform f_hat(rho) = E_x f(x) rho(x)'."""
    _check_alignment(f.group, table)
    n = f.group.order
    blocks = tuple(
        np.einsum("x,xji->ij", f.values, rho.matrices.conj()) / n
        for rho in table.irreps
    )
    return ScalarSpectrum(table, blocks)


def invert_scalar(spectrum: ScalarSpectrum) -> ScalarFunction:
    """Reconstruct f(x) = sum_rho d_rho tr(f_hat(rho) rho(x)).

    Raises IncompleteTable when the table does not span the group algebra.
    """
    table = spectrum.table
    n = table.group.order
    if sum(d * d for d in table.dims) != n:
        raise IncompleteTable(
            f"dims {list(table.dims)} do not span a group of order {n}")
    values = np.zeros(n, dtype=np.complex128)
    for block, rho in zip(spectrum.blocks, table.irreps):
        values += rho.dim * np.einsum("ij,xji->x", block, rho.matrices)
    return ScalarFunction(table.group, values)


def plancherel_check(f: ScalarFunction, spectrum: ScalarSpectrum) -> tuple[float, float]:
    """Return (sum_x |f(x)|^2, |G| sum_rho d_rho ||f_hat(rho)||_F^2).

    The two sides agree for a transform taken against a complete table; the
    caller compares them at its preferred tolerance.
    """
    lhs = float(np.sum(np.abs(f.values) ** 2))
    n = f.group.order
    rhs = float(n * sum(rho.dim * np.linalg.norm(block) ** 2
                        for rho, block in zip(spectrum.table.irreps, spectrum.blocks)))
    return lhs, rhs


def transform_matrix(psi: "MatrixFunction", table: IrrepTable) -> MatrixSpectrum:
    """Blockwise transform W_rho = E_x psi(x) (x) rho(x) of a matrix function."""
    _check_alignment(psi.group, table)
    blocks = tuple(_tensor_block(psi.matrices, rho.matrices) for rho in table.irreps)
    return MatrixSpectrum(table, psi.dim, blocks)


def _tensor_block(psi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E_x psi(x) (x) rho(x) as one GEMM over x, rows (a, c) and columns (b, d)."""
    n, d, e = len(psi), psi.shape[1], rho.shape[1]
    w = (psi.reshape(n, d * d).T @ rho.reshape(n, e * e) / n).reshape(d, d, e, e)
    return w.transpose(0, 2, 1, 3).reshape(d * e, d * e)
