"""Seeded random matrix helpers shared by the construction and twirl modules."""

from __future__ import annotations

import numpy as np

__all__ = ["rng_from", "haar_unitary", "haar_basis"]


def rng_from(seed) -> np.random.Generator:
    """Build a Generator from an int seed, a seed sequence, or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the phase fix.

    The R-diagonal phases are folded into Q so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diagonal(r).copy()
    d /= np.abs(d)
    return q * d


def haar_basis(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Orthonormal basis of a Haar-random count-dimensional subspace of C^dim.

    Returned as a dim x count matrix with orthonormal columns.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= dim, got count={count} dim={dim}")
    q, r = np.linalg.qr(_ginibre(rng, dim, count))
    d = np.diagonal(r).copy()
    d /= np.abs(d)
    return q * d

