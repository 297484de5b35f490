"""Billiard simulation, reflection law, and closure detection."""

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from pellipse import (
    ArcClass,
    BoundaryEllipse,
    LineImplicit,
    MVec2,
    VectorType,
    caustic_of_line,
    closure_status,
    line_through,
    minkowski_dot,
    partition_counts,
    reflect,
    simulate,
    start_on_caustic,
    vector_type,
)
from pellipse import cli, dynamics
from pellipse.errors import DomainError, ReflectionUndefined

F = Fraction


def _boundary_point(E, phi):
    return MVec2(math.sqrt(float(E.a)) * math.cos(phi), math.sqrt(float(E.b)) * math.sin(phi))


def test_reflect_involution_and_norm():
    rng = random.Random(11)
    for _ in range(200):
        L = LineImplicit(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        d = L.direction()
        # skip nearly light-like mirrors, where conditioning blows up
        if abs(minkowski_dot(d, d)) < 1e-3 * (d.x * d.x + d.y * d.y):
            continue
        v = MVec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        w = reflect(v, L)
        ww = reflect(w, L)
        assert ww.x == pytest.approx(v.x, rel=1e-9, abs=1e-9)
        assert ww.y == pytest.approx(v.y, rel=1e-9, abs=1e-9)
        assert minkowski_dot(w, w) == pytest.approx(minkowski_dot(v, v), rel=1e-9, abs=1e-9)


def test_reflect_light_like_line_undefined():
    with pytest.raises(ReflectionUndefined):
        reflect(MVec2(1.0, 0.0), LineImplicit(1.0, 1.0, 0.5))


def test_simulate_records_caustic_and_arcs():
    E = BoundaryEllipse(3, 2)
    P0, d0 = start_on_caustic(E, 1.1, rng=random.Random(3))
    T = simulate(P0, d0, 10, E)
    assert T.steps == 10
    assert len(T.vertices) == 11 and len(T.directions) == 11
    assert T.caustic_gamma == pytest.approx(1.1, rel=1e-9)
    assert all(isinstance(a, ArcClass) for a in T.arc_classes)
    # every chord stays tangent to the same caustic
    for i in range(10):
        L = line_through(T.vertices[i], T.directions[i])
        assert caustic_of_line(L, E) == pytest.approx(1.1, rel=1e-8)


def test_fraction_start_data_simulate_in_floats(capsys):
    E = BoundaryEllipse(2, 2)
    T = simulate(MVec2(F(1), F(1)), MVec2(F(-1), F(-3, 10)), 20, E)
    assert all(type(c) is float for P in T.vertices for c in P)
    assert T == simulate(MVec2(1.0, 1.0), MVec2(-1.0, -0.3), 20, E)
    # on the command line, 2000 steps of exact start data print the float run
    docs = []
    for d in (["--dx=-1/1", "--dy=-3/10"], ["--dx=-1", "--dy=-0.3"]):
        argv = ["simulate", "--a", "2", "--b", "2", "--x0", "1", "--y0", "1", *d]
        assert cli.main([*argv, "--steps", "2000"]) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    assert len(json.loads(docs[0])["vertices"]) == 2001


def test_decimal_axes_simulate_like_their_floats():
    E = BoundaryEllipse(Decimal("2.3"), Decimal("10.4"))
    P0, d0 = start_on_caustic(E, 1.5, rng=random.Random(5))
    T = simulate(P0, d0, 5, E)
    assert T == simulate(P0, d0, 5, BoundaryEllipse(2.3, 10.4))


def test_simulate_requires_boundary_start():
    E = BoundaryEllipse(3, 2)
    with pytest.raises(DomainError):
        simulate(MVec2(0.1, 0.1), MVec2(1.0, 0.2), 3, E)


def test_closure_status_periodic():
    E = BoundaryEllipse(F(2), F(4))
    P0, d0 = start_on_caustic(E, F(4, 3), rng=random.Random(1))
    T = simulate(P0, d0, 4, E)
    st = closure_status(T, 4)
    assert st.tag == "Periodic" and st.n == 4
    assert closure_status(T, 3).tag == "Open"
    assert partition_counts(T) == (2, 2)


def test_closure_status_elliptic_with_symmetry():
    E = BoundaryEllipse(5, 3)
    P0, d0 = start_on_caustic(E, -15 / 8, rng=random.Random(2))
    T = simulate(P0, d0, 2, E)
    st = closure_status(T, 2)
    assert st.tag == "EllipticPeriodic" and st.sigma == "flip-y"


def test_closure_status_tests_the_vertex_first(monkeypatch):
    # a vertex away from the start and from its mirror images is Open
    # before any direction is normalised or any symmetry is tried
    E = BoundaryEllipse(3, 2)
    T = simulate(*start_on_caustic(E, 0.9, rng=random.Random(4)), 5, E)

    def fail(*args):
        raise AssertionError("the vertex test should have decided")

    monkeypatch.setattr(dynamics, "_unit", fail)
    monkeypatch.setattr(dynamics, "apply_sigma", fail)
    assert [closure_status(T, m).tag for m in range(1, 6)] == ["Open"] * 5


def test_partition_counts_requires_closure():
    E = BoundaryEllipse(3, 2)
    T = simulate(*start_on_caustic(E, 0.9, rng=random.Random(4)), 5, E)
    with pytest.raises(DomainError):
        partition_counts(T, 5)


def test_start_on_caustic_properties():
    E = BoundaryEllipse(3, 2)
    rng = random.Random(9)
    for gamma in (1.4, -1.2, 2.9, -2.6, 3.8):
        P0, d0 = start_on_caustic(E, gamma, rng=rng)
        assert abs(float(E.boundary_residual(P0))) < 1e-9
        L = line_through(P0, d0)
        assert caustic_of_line(L, E) == pytest.approx(gamma, rel=1e-9)


def test_light_like_trajectory_alternates_and_closes_evenly():
    # light-like chords alternate between the two light-like classes and
    # can only close after an even number of steps
    E = BoundaryEllipse(1, 1)
    P0 = _boundary_point(E, 0.3)
    T = simulate(P0, MVec2(-1.0, -1.0), 4, E)
    assert T.segment_type.value == "LightLike"
    slopes = [d.y / d.x for d in T.directions[:-1]]
    for s, t in zip(slopes, slopes[1:]):
        assert s * t == pytest.approx(-1.0, abs=1e-12)  # classes alternate
    st = closure_status(T, 4)
    assert st.tag == "Periodic" and st.n % 2 == 0


def test_touch_point_aborts():
    E = BoundaryEllipse(3, 2)
    tx, ty = 3 / math.sqrt(5), 2 / math.sqrt(5)
    with pytest.raises(ReflectionUndefined):
        simulate(MVec2(tx, ty), MVec2(-1.0, 0.0), 3, E)


def test_hyperbola_caustic_trajectory_crosses_axis():
    # chords tangent to a confocal hyperbola alternate across the x-axis
    E = BoundaryEllipse(3, 2)
    P0, d0 = start_on_caustic(E, -2.4, rng=random.Random(6))
    T = simulate(P0, d0, 8, E)
    assert T.caustic_gamma == pytest.approx(-2.4, rel=1e-9)
