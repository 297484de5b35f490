"""Exception hierarchy for the pellipse package.

All package-specific failures derive from :class:`PellipseError` so callers
can catch one base class.  Precondition violations raise
:class:`DomainError` (a ``ValueError`` subclass); numerically or
geometrically degenerate situations raise the dedicated subclasses below.
"""

from __future__ import annotations

__all__ = [
    "PellipseError",
    "DomainError",
    "ReflectionUndefined",
    "DegenerateChord",
    "CausticDrift",
    "NoCertificate",
    "CertificateInvalid",
    "InsufficientOrder",
]


class PellipseError(Exception):
    """Base class for all pellipse errors."""


class DomainError(PellipseError, ValueError):
    """An argument violates a documented precondition."""


class _StepError(PellipseError):
    """A failure at step ``step`` (``None`` if unknown) of a simulated trajectory."""

    def __init__(self, message: str, step: int | None = None) -> None:
        super().__init__(message)
        self.step = step


class ReflectionUndefined(_StepError):
    """Reflection attempted across a light-like mirror line.

    The Minkowski reflection ``v' = 2 <v,d>/<d,d> d - v`` has the squared
    line direction ``<d,d>`` in the denominator; when the mirror direction
    is light-like (relative to machine scale) the map is undefined.  Also
    raised when a simulated trajectory lands within tolerance of one of the
    four boundary points whose tangent line is light-like.
    """


class DegenerateChord(_StepError):
    """A chord of the boundary ellipse degenerates to a point.

    Raised when the forward ray from a boundary point immediately leaves
    the closed ellipse (tangent direction or outward direction), so no
    second intersection exists.
    """


class CausticDrift(_StepError):
    """A simulated trajectory's segment left the initial caustic.

    Every segment of a billiard trajectory must stay tangent to the conic
    confocal with the boundary that the first segment touches; drift beyond
    the configured relative tolerance indicates numerical breakdown.
    """


class NoCertificate(PellipseError):
    """No polynomial Pell certificate exists for the requested data.

    Raised when the Hankel periodicity test rejects ``(gamma, n)`` or when
    the certificate linear system has a trivial null space.
    """


class CertificateInvalid(PellipseError):
    """A constructed certificate fails its defining polynomial identity."""


class InsufficientOrder(DomainError):
    """A truncated series is too short for the requested determinant."""
