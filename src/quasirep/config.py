"""Centralized numeric tolerances.

Every tolerance used by the library lives in one frozen record so that callers
have a single knob and tests can state which threshold they exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "DEFAULT_TOLERANCES"]


@dataclass(frozen=True)
class Tolerances:
    # per-pair Frobenius threshold for "these two matrices are equal"
    entry: float = 1e-9
    # cap on ||M' M - 1||_F for matrices claimed unitary
    unitarity: float = 1e-8
    # |E|chi|^2 - 1| cutoff deciding irreducibility
    irreducibility: float = 1e-6
    # two characters within this (per class, sup norm) are the same irrep
    character_match: float = 1e-6
    # eigenvalue clustering width, relative to the operator norm of the average
    eigengap: float = 1e-7
    # ||E psi' psi - 1||_F cap for admissibility
    admissibility: float = 1e-8
    # singular values below this count as rank deficiency
    min_singular: float = 1e-10


DEFAULT_TOLERANCES = Tolerances()
