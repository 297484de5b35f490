"""Minkowski-plane geometry for billiards inside an ellipse.

The plane carries the pseudo-Euclidean scalar product
``<U, V> = Ux*Vx - Uy*Vy``.  The boundary ellipse is
``x**2/a + y**2/b = 1`` where ``a`` and ``b`` are the *squared* semi-axes.
The confocal family is ``x**2/(a - t) + y**2/(b + t) = 1``: ellipses for
``t`` in ``(-b, a)``, hyperbolas outside, with degenerate members at
``t = a``, ``t = -b`` and ``t = infinity``.

Scalars may be ``float``, exact (``int``/``Fraction``) or ``Decimal``.
:meth:`BoundaryEllipse.boundary_residual`, :func:`caustic_of_line`,
:func:`boundary_arc_class` and :func:`tangent_line_at` (and
:func:`pellipse.dynamics.next_boundary_hit`) first bring their operands
into one field with :func:`pellipse.polys.to_field`: ``Decimal`` (at 50
digits) if any operand is one, else ``Fraction`` if all are exact, else
``float``.  So ``Decimal`` axes with float points compute in ``Decimal``,
and on float operands the helpers make exactly their float operations.
The light-like, touch-point and through-the-origin tests are float tests
with the relative tolerances of :mod:`pellipse.config` for every input;
trajectories run in floats (:func:`pellipse.dynamics.simulate`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import polys
from .config import BOUNDARY, DEGENERATE, LIGHTLIKE
from .errors import DomainError

__all__ = [
    "MVec2",
    "BoundaryEllipse",
    "ConicClass",
    "ArcClass",
    "VectorType",
    "EllipticCoords",
    "LineImplicit",
    "AllConics",
    "ALL_CONICS",
    "minkowski_dot",
    "vector_type",
    "classify_conic",
    "degenerate_value",
    "elliptic_coordinates",
    "caustic_of_line",
    "boundary_arc_class",
    "tangent_line_at",
    "line_through",
]


@dataclass(frozen=True)
class MVec2:
    """A point or direction in the Minkowski plane."""

    x: float | Fraction
    y: float | Fraction

    def __iter__(self) -> Iterator:
        yield self.x
        yield self.y

    def euclid_norm(self) -> float:
        """Euclidean length, used for scale-relative tolerances."""
        return math.hypot(float(self.x), float(self.y))


class ConicClass(enum.Enum):
    """Classification of a member of the confocal family."""

    EllipseOfFamily = "EllipseOfFamily"
    HyperbolaXMajor = "HyperbolaXMajor"
    HyperbolaYMajor = "HyperbolaYMajor"
    DegenerateYAxis = "DegenerateYAxis"
    DegenerateXAxis = "DegenerateXAxis"
    DegenerateInfinity = "DegenerateInfinity"


class ArcClass(enum.Enum):
    """Type of a boundary point of the ellipse."""

    RelativisticEllipseArc = "RelativisticEllipseArc"
    RelativisticHyperbolaArc = "RelativisticHyperbolaArc"
    TouchPoint = "TouchPoint"


class VectorType(enum.Enum):
    """Causal character of a nonzero vector."""

    SpaceLike = "SpaceLike"
    TimeLike = "TimeLike"
    LightLike = "LightLike"


class AllConics:
    """Sentinel: a light-like common tangent touches *every* family member."""

    _instance: "AllConics | None" = None

    def __new__(cls) -> "AllConics":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AllConics"


#: Singleton returned by :func:`caustic_of_line` for the four common tangents.
ALL_CONICS = AllConics()


@dataclass(frozen=True)
class EllipticCoords:
    """Elliptic coordinates ``(lambda1, lambda2)`` of an interior point.

    ``lambda1`` lies in ``[-b, 0]`` and ``lambda2`` in ``[0, a]``; the point
    is the intersection of the confocal conics with those parameters.
    """

    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class LineImplicit:
    """The line ``p*x + q*y = r`` (``r = 0`` only for lines through the origin)."""

    p: float | Fraction
    q: float | Fraction
    r: float | Fraction = 1

    def __post_init__(self) -> None:
        if self.p == 0 and self.q == 0:
            raise DomainError("line requires (p, q) != (0, 0)")

    def direction(self) -> MVec2:
        """A direction vector of the line."""
        return MVec2(self.q, -self.p)


@dataclass(frozen=True)
class BoundaryEllipse:
    """Boundary ellipse ``x**2/a + y**2/b = 1`` with squared semi-axes ``a, b``."""

    a: float | Fraction
    b: float | Fraction

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise DomainError(f"squared semi-axes must be positive, got ({self.a}, {self.b})")
        if math.inf in (self.a, self.b):
            raise DomainError(f"squared semi-axes must be finite, got ({self.a}, {self.b})")

    def boundary_residual(self, P: MVec2):
        """``x**2/a + y**2/b - 1`` (zero on the boundary), in the common field."""
        x, y, a, b = polys.to_field(P.x, P.y, self.a, self.b)
        with polys.field_context(a):
            return x * x / a + y * y / b - 1

    def touch_x(self) -> float:
        """Abscissa threshold ``a / sqrt(a + b)`` separating the arc types."""
        return float(self.a) / math.sqrt(float(self.a) + float(self.b))

    def touch_points(self) -> tuple[MVec2, MVec2, MVec2, MVec2]:
        """The four boundary points with light-like tangent lines."""
        s = math.sqrt(float(self.a) + float(self.b))
        xt, yt = float(self.a) / s, float(self.b) / s
        return (MVec2(xt, yt), MVec2(-xt, yt), MVec2(-xt, -yt), MVec2(xt, -yt))

    def scale(self) -> float:
        """Characteristic length ``sqrt(a) + sqrt(b)`` for relative tolerances."""
        return math.sqrt(float(self.a)) + math.sqrt(float(self.b))


def minkowski_dot(u: MVec2, v: MVec2):
    """Pseudo-scalar product ``ux*vx - uy*vy``."""
    return u.x * v.x - u.y * v.y


def vector_type(v: MVec2) -> VectorType:
    """Causal character of ``v``; the zero vector is rejected.

    The light-like test is *relative*: ``|<v,v>| <= LIGHTLIKE * (x**2 + y**2)``,
    so scaling a vector never changes its type.
    """
    if v.x == 0 and v.y == 0:
        raise DomainError("vector_type of the zero vector is undefined")
    qf = float(minkowski_dot(v, v))
    scale = float(v.x) * float(v.x) + float(v.y) * float(v.y)
    if abs(qf) <= LIGHTLIKE * scale:
        return VectorType.LightLike
    return VectorType.SpaceLike if qf > 0 else VectorType.TimeLike


def classify_conic(gamma, E: BoundaryEllipse) -> ConicClass:
    """Classify the confocal family member with parameter ``gamma``.

    Comparisons with the degenerate values ``a`` and ``-b`` are exact;
    callers working with approximate parameters should quantize first.
    A float ``gamma`` on ``Fraction`` axes is converted exactly once, not
    once per comparison.
    """
    if isinstance(gamma, float):
        if math.isinf(gamma):
            return ConicClass.DegenerateInfinity
        # NaN has no Fraction; it compares false with every axis either way
        if gamma == gamma and (isinstance(E.a, Fraction) or isinstance(E.b, Fraction)):
            gamma = Fraction(gamma)
    if gamma == E.a:
        return ConicClass.DegenerateYAxis
    if gamma == -E.b:
        return ConicClass.DegenerateXAxis
    if gamma > E.a:
        return ConicClass.HyperbolaYMajor
    if gamma < -E.b:
        return ConicClass.HyperbolaXMajor
    return ConicClass.EllipseOfFamily


def degenerate_value(gamma, E: BoundaryEllipse) -> tuple[str, object] | None:
    """The degenerate value ``(name, v)`` that ``gamma`` meets, or None.

    ``name`` is ``"0"``, ``"a"`` or ``"-b"`` and ``v`` its value ``0``,
    ``E.a`` or ``-E.b``.

    Exact ``gamma`` and axes compare exactly; otherwise ``gamma`` meets
    ``v`` when ``|gamma - v| <= DEGENERATE * (1 + |v|)``.  The spurious-root
    screen, the series and the rotation-number quadrature share this rule.
    """
    for name, v in (("0", 0), ("a", E.a), ("-b", -E.b)):
        if polys.is_exact(gamma, v):
            hit = gamma == v
        else:
            hit = abs(float(gamma) - float(v)) <= DEGENERATE * (1 + abs(float(v)))
        if hit:
            return name, v
    return None


def elliptic_coordinates(P: MVec2, E: BoundaryEllipse) -> EllipticCoords:
    """Elliptic coordinates of a point of the closed elliptical domain.

    The parameters are the two roots of
    ``t**2 + (x**2 - y**2 - a + b) t + (x**2 b + y**2 a - a b) = 0``;
    for admissible points they satisfy ``-b <= lambda1 <= 0 <= lambda2 <= a``.
    Points outside the closed domain (beyond tolerance) are rejected.
    """
    a, b = float(E.a), float(E.b)
    x, y = float(P.x), float(P.y)
    r = x * x / a + y * y / b
    if r > 1 + BOUNDARY:
        raise DomainError(f"point ({P.x}, {P.y}) lies outside the boundary ellipse")
    B = x * x - y * y - a + b
    C = x * x * b + y * y * a - a * b
    if C == 0.0:
        roots = sorted((0.0, -B))
    else:
        disc = B * B - 4 * C
        if disc < 0:
            if disc < -BOUNDARY * (B * B + 4 * abs(C) + 1):
                raise DomainError("elliptic coordinates are complex; point inadmissible")
            disc = 0.0
        root = math.sqrt(disc)
        m = (-B - root) / 2 if B >= 0 else (-B + root) / 2
        roots = sorted((m, C / m)) if m != 0 else [0.0, 0.0]
    lam1, lam2 = roots
    span = (a + b) * BOUNDARY
    lam1 = min(0.0, max(-b, lam1)) if -b - span <= lam1 <= span else lam1
    lam2 = min(a, max(0.0, lam2)) if -span <= lam2 <= a + span else lam2
    if not (-b <= lam1 <= 0 <= lam2 <= a):
        raise DomainError(
            f"elliptic coordinates ({lam1}, {lam2}) out of range for ({P.x}, {P.y})"
        )
    return EllipticCoords(lam1, lam2)


def caustic_of_line(L: LineImplicit, E: BoundaryEllipse):
    """Parameter of the confocal conic tangent to the line ``p x + q y = r``.

    Returns the scalar ``(r**2 - a p**2 - b q**2) / (q**2 - p**2)``; for a
    light-like line the result is ``math.inf`` (tangent "at infinity"), and
    for the four light-like common tangents the sentinel :data:`ALL_CONICS`.
    """
    p, q, r, a, b = polys.to_field(L.p, L.q, L.r, E.a, E.b)
    with polys.field_context(a):
        num = r * r - a * p * p - b * q * q
        den = q * q - p * p
        pf, qf, rf = float(p), float(q), float(r)
        nscale = rf * rf + float(a) * pf * pf + float(b) * qf * qf
        if abs(float(den)) <= LIGHTLIKE * (pf * pf + qf * qf):
            return ALL_CONICS if abs(float(num)) <= LIGHTLIKE * nscale else math.inf
        return num / den


def boundary_arc_class(P: MVec2, E: BoundaryEllipse) -> ArcClass:
    """Arc type of a boundary point (pre: ``P`` on the boundary within ``BOUNDARY``).

    The tangent line at ``P`` is space-like iff ``|x| < a/sqrt(a+b)``
    (relativistic-ellipse arc), time-like iff ``|x|`` exceeds the threshold
    (relativistic-hyperbola arc) and light-like at the four touch points.
    """
    if abs(float(E.boundary_residual(P))) > BOUNDARY:
        raise DomainError(f"point ({P.x}, {P.y}) is not on the boundary ellipse")
    xt = E.touch_x()
    dx = abs(float(P.x)) - xt
    if abs(dx) <= LIGHTLIKE * (1 + xt):
        return ArcClass.TouchPoint
    return ArcClass.RelativisticHyperbolaArc if dx > 0 else ArcClass.RelativisticEllipseArc


def tangent_line_at(P: MVec2, E: BoundaryEllipse) -> LineImplicit:
    """Tangent line ``(x0/a) x + (y0/b) y = 1`` of the boundary at ``P``.

    ``P`` must lie on the boundary within ``BOUNDARY``.
    """
    if abs(float(E.boundary_residual(P))) > BOUNDARY:
        raise DomainError(f"point ({P.x}, {P.y}) is not on the boundary ellipse")
    x, y, a, b = polys.to_field(P.x, P.y, E.a, E.b)
    with polys.field_context(a):
        return LineImplicit(x / a, y / b, 1.0)


def line_through(P: MVec2, d: MVec2) -> LineImplicit:
    """Implicit form of the line through ``P`` with direction ``d``.

    Normalized to ``r = 1`` whenever the line misses the origin; lines
    through the origin are returned with ``r = 0``.
    """
    if d.x == 0 and d.y == 0:
        raise DomainError("line direction must be nonzero")
    c = d.y * P.x - d.x * P.y
    scale = abs(float(d.y) * float(P.x)) + abs(float(d.x) * float(P.y))
    if abs(float(c)) <= DEGENERATE * scale:
        return LineImplicit(float(d.y), -float(d.x), 0.0)
    return LineImplicit(d.y / c, -d.x / c, 1.0)
