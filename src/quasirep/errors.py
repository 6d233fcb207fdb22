"""Exception types raised across the package."""

from __future__ import annotations

__all__ = [
    "QuasirepError",
    "NotAGroup",
    "ClosureCapExceeded",
    "OrderCapExceeded",
    "UnsupportedParameter",
    "DecompositionFailed",
    "ToleranceViolation",
    "IncompleteTable",
    "MissingIrrepTable",
    "DimensionError",
    "RankDeficient",
    "OddOrder",
    "DegenerateDimension",
    "NotAHomomorphism",
    "FileFormatError",
]


class QuasirepError(Exception):
    """Base class for all errors raised by this package."""


class NotAGroup(QuasirepError):
    """A multiplication table violates a group axiom; the message names a witness."""


class ClosureCapExceeded(QuasirepError):
    """Generator closure grew past the configured element cap."""


class OrderCapExceeded(QuasirepError):
    """The group is too large for the requested dense computation."""


class UnsupportedParameter(QuasirepError):
    """A named-family parameter is outside the supported range."""


class DecompositionFailed(QuasirepError):
    """Irrep extraction did not converge after the reseeded retry budget."""


class ToleranceViolation(QuasirepError):
    """A computed quantity missed a contract tolerance."""


class IncompleteTable(QuasirepError):
    """An irrep table does not span the group algebra (sum of dim^2 < order)."""


class MissingIrrepTable(QuasirepError):
    """An operation needing irrep data (d_min in particular) got none."""


class DimensionError(QuasirepError):
    """Incompatible matrix dimensions for the requested construction."""


class RankDeficient(QuasirepError):
    """A matrix slated for polar factorization is numerically singular."""


class OddOrder(QuasirepError):
    """Balanced sign functions need a group of even order."""


class DegenerateDimension(QuasirepError):
    """Twirl coefficients need d_rho >= 4 so all tableau counts are positive."""


class NotAHomomorphism(QuasirepError):
    """A claimed homomorphism fails the defining identity; message has a witness."""


class FileFormatError(QuasirepError):
    """A serialized group file deviates from its format.

    Carries the offending 1-based line number when one can be named.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
