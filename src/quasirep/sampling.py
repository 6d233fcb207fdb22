"""The seeded stream of every random draw, and the one Haar draw."""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "haar_basis"]


def stream(seed, *path: int) -> np.random.Generator:
    """default_rng([*seed, *path]), an integer seed s taken as [s]; None is refused."""
    if seed is None:
        raise ValueError("a random draw needs a seed; got None")
    return np.random.default_rng([*(seed if np.iterable(seed) else [seed]), *path])


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_basis(rng: np.random.Generator, dim: int, count: int,
               stack: tuple[int, ...] = ()) -> np.ndarray:
    """Orthonormal basis of a Haar-random count-dimensional subspace of C^dim.

    Returned as a dim x count matrix with orthonormal columns, a Haar unitary
    when count = dim. The R-diagonal phases of the QR are folded into Q, so
    the distribution is exactly Haar rather than QR-convention dependent.
    A non-empty stack draws an array of shape (*stack, dim, count) of
    independent bases from one Ginibre stack and one batched QR.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"need 1 <= count <= dim, got count={count} dim={dim}")
    q, r = np.linalg.qr(_ginibre(rng, (*stack, dim, count)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
