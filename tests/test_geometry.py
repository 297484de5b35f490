"""Minkowski-plane geometry primitives."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from pellipse import (
    ALL_CONICS,
    BoundaryEllipse,
    ConicClass,
    ArcClass,
    LineImplicit,
    MVec2,
    VectorType,
    boundary_arc_class,
    caustic_of_line,
    classify_conic,
    elliptic_coordinates,
    line_through,
    minkowski_dot,
    next_boundary_hit,
    start_on_caustic,
    tangent_line_at,
    vector_type,
)
from pellipse.errors import DomainError

F = Fraction


def test_minkowski_dot_and_types():
    assert minkowski_dot(MVec2(2, 1), MVec2(3, 4)) == 2 * 3 - 1 * 4
    assert vector_type(MVec2(1, 0)) is VectorType.SpaceLike
    assert vector_type(MVec2(0, 1)) is VectorType.TimeLike
    assert vector_type(MVec2(1, 1)) is VectorType.LightLike
    assert vector_type(MVec2(-3, 3)) is VectorType.LightLike


def test_light_like_self_orthogonal():
    v = MVec2(5, 5)
    assert minkowski_dot(v, v) == 0


def test_classify_conic_all_branches():
    E = BoundaryEllipse(3, 2)
    assert classify_conic(1, E) is ConicClass.EllipseOfFamily
    assert classify_conic(-2.5, E) is ConicClass.HyperbolaXMajor
    assert classify_conic(4, E) is ConicClass.HyperbolaYMajor
    assert classify_conic(3, E) is ConicClass.DegenerateYAxis
    assert classify_conic(-2, E) is ConicClass.DegenerateXAxis
    assert classify_conic(math.inf, E) is ConicClass.DegenerateInfinity


@pytest.mark.parametrize("gamma", [math.nan, Decimal("NaN"), Decimal("-NaN"), Decimal("sNaN")])
def test_a_nan_caustic_of_any_field_raises_domain_error(gamma):
    # a NaN compares false with every axis: it is no conic, and no start
    # lies on it
    E = BoundaryEllipse(3, 2)
    with pytest.raises(DomainError, match="not a number"):
        classify_conic(gamma, E)
    with pytest.raises(DomainError):
        start_on_caustic(E, gamma)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, Decimal("Infinity"), Decimal("-Infinity")])
def test_an_infinite_caustic_of_any_field_is_degenerate_at_infinity(gamma):
    for E in (BoundaryEllipse(3, 2), BoundaryEllipse(F(3), F(2)), BoundaryEllipse(Decimal(3), 2)):
        assert classify_conic(gamma, E) is ConicClass.DegenerateInfinity
        with pytest.raises(DomainError, match="degenerate caustic"):
            start_on_caustic(E, gamma)
    # a Decimal beyond the float range is finite: a hyperbola
    assert classify_conic(Decimal("-1e400"), E) is ConicClass.HyperbolaXMajor


def _exact_class(g, a, b):
    if g == a:
        return ConicClass.DegenerateYAxis
    if g == -b:
        return ConicClass.DegenerateXAxis
    if g > a:
        return ConicClass.HyperbolaYMajor
    return ConicClass.HyperbolaXMajor if g < -b else ConicClass.EllipseOfFamily


def test_classify_conic_compares_floats_exactly_with_fraction_axes():
    # float(7/3) lies above 7/3, its lower neighbour below; -5/2 is a float
    a, b = F(7, 3), F(5, 2)
    E = BoundaryEllipse(a, b)
    for x in (float(a), float(-b)):
        for g in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            assert classify_conic(g, E) is _exact_class(F(g), a, b), g
    assert classify_conic(float(a), E) is ConicClass.HyperbolaYMajor
    assert classify_conic(math.nextafter(float(a), 0), E) is ConicClass.EllipseOfFamily
    assert classify_conic(-2.5, E) is ConicClass.DegenerateXAxis


def test_elliptic_coordinates_on_boundary():
    E = BoundaryEllipse(F(3), F(2))
    # rational boundary point: x^2/3 + y^2/2 = 1 at (1, 2/sqrt(3)) is not
    # rational; use (sqrt(3), 0) -> stick to the float path there and an
    # exact interior point below
    P = MVec2(math.sqrt(3) * math.cos(0.4), math.sqrt(2) * math.sin(0.4))
    coords = elliptic_coordinates(P, E)
    assert min(abs(coords.lambda1), abs(coords.lambda2)) <= 1e-12


def test_elliptic_coordinates_interior_and_outside():
    E = BoundaryEllipse(3, 2)
    P = MVec2(0.5, 0.2)
    inside = elliptic_coordinates(P, E)
    # each coordinate is a confocal conic through the point
    for lam in (inside.lambda1, inside.lambda2):
        assert abs(P.x**2 / (3 - lam) + P.y**2 / (2 + lam) - 1) < 1e-12
    with pytest.raises(DomainError):
        elliptic_coordinates(MVec2(5, 5), E)


def test_caustic_of_line_tangency():
    E = BoundaryEllipse(3, 2)
    gamma = 1.25
    # tangent line to the confocal ellipse at parameter gamma
    x = math.sqrt(3 - gamma) * math.cos(1.1)
    y = math.sqrt(2 + gamma) * math.sin(1.1)
    L = LineImplicit(x / (3 - gamma), y / (2 + gamma), 1)
    assert abs(caustic_of_line(L, E) - gamma) < 1e-12


def test_caustic_of_line_light_like_and_all_conics():
    E = BoundaryEllipse(3, 2)
    # generic light-like line: infinite caustic parameter
    g = caustic_of_line(LineImplicit(1, 1, 0.3), E)
    assert isinstance(g, float) and math.isinf(g)
    # the four common tangents x +- y = +-sqrt(a+b) touch every conic
    s = math.sqrt(5)
    assert caustic_of_line(LineImplicit(1, 1, s), E) is ALL_CONICS
    assert caustic_of_line(LineImplicit(1, -1, -s), E) is ALL_CONICS


def test_boundary_arc_class_and_touch_points():
    E = BoundaryEllipse(3, 2)
    assert boundary_arc_class(MVec2(0, math.sqrt(2)), E) is ArcClass.RelativisticEllipseArc
    assert boundary_arc_class(MVec2(math.sqrt(3), 0), E) is ArcClass.RelativisticHyperbolaArc
    for P in E.touch_points():
        assert boundary_arc_class(P, E) is ArcClass.TouchPoint
        # tangent there is one of the common light-like lines
        L = tangent_line_at(P, E)
        assert vector_type(L.direction()) is VectorType.LightLike


def test_tangent_line_contains_point():
    E = BoundaryEllipse(F(3), F(2))
    P = MVec2(math.sqrt(3) * math.cos(0.9), math.sqrt(2) * math.sin(0.9))
    L = tangent_line_at(P, E)
    assert abs(L.p * P.x + L.q * P.y - L.r) < 1e-12


def test_line_through():
    P, d = MVec2(1.0, 2.0), MVec2(3.0, -1.0)
    L = line_through(P, d)
    assert abs(L.p * P.x + L.q * P.y - L.r) < 1e-12
    Q = MVec2(P.x + 2 * d.x, P.y + 2 * d.y)
    assert abs(L.p * Q.x + L.q * Q.y - L.r) < 1e-12


@pytest.mark.parametrize("a, b", [(math.inf, 2), (3, math.inf), (math.nan, 2), (-math.inf, 2)])
def test_boundary_ellipse_rejects_non_finite(a, b):
    with pytest.raises(DomainError):
        BoundaryEllipse(a, b)


def test_decimal_axes_with_float_points():
    # each helper brings its operands into one field (Decimal here) and
    # agrees with the same axes as fractions
    Ed = BoundaryEllipse(Decimal("2.3"), Decimal("10.4"))
    Ef = BoundaryEllipse(F(23, 10), F(52, 5))
    P = MVec2(math.sqrt(2.3) * math.cos(0.7), math.sqrt(10.4) * math.sin(0.7))
    d = MVec2(-1.3, 0.4)
    L = LineImplicit(0.3, -0.5, 1.0)

    def close(u, v):
        assert float(u) == pytest.approx(float(v), rel=1e-12)

    inside = MVec2(0.7, 1.1)
    assert isinstance(Ed.boundary_residual(inside), Decimal)
    close(Ed.boundary_residual(inside), Ef.boundary_residual(inside))
    assert abs(Ed.boundary_residual(P)) < 1e-15
    close(caustic_of_line(L, Ed), caustic_of_line(L, Ef))
    assert boundary_arc_class(P, Ed) is boundary_arc_class(P, Ef)
    Td, Tf = tangent_line_at(P, Ed), tangent_line_at(P, Ef)
    close(Td.p, Tf.p)
    close(Td.q, Tf.q)
    Qd, Qf = next_boundary_hit(P, d, Ed), next_boundary_hit(P, d, Ef)
    close(Qd.x, Qf.x)
    close(Qd.y, Qf.y)
