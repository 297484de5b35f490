"""Billiard simulation, reflection law, and closure detection."""

import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pellipse import (
    ArcClass,
    BoundaryEllipse,
    LineImplicit,
    MVec2,
    VectorType,
    boundary_arc_class,
    caustic_of_line,
    closure_status,
    first_closure,
    line_through,
    minkowski_dot,
    next_boundary_hit,
    partition_counts,
    reflect,
    simulate,
    start_on_caustic,
    tangent_line_at,
    vector_type,
)
from pellipse import cli, dynamics
from pellipse.config import BOUNDARY, DRIFT
from pellipse.errors import (
    CausticDrift,
    DegenerateChord,
    DomainError,
    PellipseError,
    ReflectionUndefined,
)

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
    monkeypatch.setattr(dynamics, "_close", fail)
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


@settings(max_examples=40)
@given(
    gamma=st.sampled_from([1.4, -1.2, 2.9, -2.6, 3.8, -1.99]),
    k=st.integers(-500, 500),
)
def test_deterministic_starts_are_scale_free(gamma, k):
    # without a random source the starts are a pure function of (E, gamma)
    # with a relative clearance: under (a, b, gamma) -> 4**k (a, b, gamma)
    # every start scales by 2**k, to the last bit, across the float range
    lam = 4.0**k
    unit = list(itertools.islice(dynamics.caustic_starts(BoundaryEllipse(3.0, 2.0), gamma), 6))
    scaled = dynamics.caustic_starts(BoundaryEllipse(3.0 * lam, 2.0 * lam), gamma * lam)
    for (P0, d0), (Q0, e0) in zip(unit, itertools.islice(scaled, 6)):
        assert (Q0.x, Q0.y, e0.x, e0.y) == (P0.x * 2.0**k, P0.y * 2.0**k, d0.x * 2.0**k, d0.y * 2.0**k)
    assert start_on_caustic(BoundaryEllipse(3.0, 2.0), gamma) == unit[0]


def test_caustic_starts_beyond_the_float_range_at_unit_scale_raise_domain_error():
    # on axes scaled to unit size gamma = 1e300 grows by 2**996, beyond the
    # float maximum: the documented DomainError, not an OverflowError
    starts = dynamics.caustic_starts(BoundaryEllipse(1e-300, 1e-300), 1e300)
    with pytest.raises(DomainError, match="beyond the float range at unit scale"):
        next(starts)


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


# ---------------------------------------------------------------------------
# the fused step loop against the public helpers
# ---------------------------------------------------------------------------


def _caustic_terms(P, v, E):
    """``num, den`` of ``caustic_of_line`` times ``c**2``, ``c = vy x - vx y``, and their sizes."""
    c = v.y * P.x - v.x * P.y
    avy, bvx = E.a * (v.y * v.y), E.b * (v.x * v.x)
    return c * c - avy - bvx, v.x * v.x - v.y * v.y, c * c + avy + bvx, v.x * v.x + v.y * v.y


def _reference_simulate(P0, d0, steps, E):
    """The step loop of ``simulate`` as calls of the public helpers.

    The caustic invariant is computed from each chord by
    :func:`_caustic_terms`; ``caustic_of_line`` gives the message.
    """
    E = BoundaryEllipse(float(E.a), float(E.b))
    P, v = MVec2(float(P0.x), float(P0.y)), MVec2(float(d0.x), float(d0.y))
    if abs(E.boundary_residual(P)) > BOUNDARY:
        raise DomainError(f"start point ({P0.x}, {P0.y}) is not on the boundary")
    # simulate scales the direction by a power of two on entry
    e = math.frexp(max(abs(v.x), abs(v.y)))[1]
    v = MVec2(math.ldexp(v.x, -e), math.ldexp(v.y, -e))
    seg_type = vector_type(v)
    gamma0 = caustic_of_line(line_through(P, v), E)
    num0, den0, _, _ = _caustic_terms(P, v, E)
    vertices, directions, arcs = [(P.x, P.y)], [(v.x, v.y)], [boundary_arc_class(P, E)]
    for i in range(1, steps + 1):
        num, den, num_size, den_size = _caustic_terms(P, v, E)
        if not abs(den0 * num - num0 * den) <= DRIFT * (abs(den0) * num_size + abs(num0) * den_size):
            gamma_i = caustic_of_line(line_through(P, v), E)
            raise CausticDrift(f"segment {i} caustic {gamma_i} drifted from {gamma0}", step=i)
        try:
            Q = next_boundary_hit(P, v, E)
        except DegenerateChord as exc:
            raise DegenerateChord(str(exc), step=i) from None
        arc = boundary_arc_class(Q, E)
        if arc is ArcClass.TouchPoint:
            raise ReflectionUndefined(
                f"vertex {i} landed on a touch point; tangent line is light-like", step=i
            )
        try:
            v = reflect(v, tangent_line_at(Q, E))
        except ReflectionUndefined as exc:
            raise ReflectionUndefined(str(exc), step=i) from None
        vertices.append((Q.x, Q.y))
        directions.append((v.x, v.y))
        arcs.append(arc)
        P = Q
    return dynamics.Trajectory(
        tuple(vertices), tuple(directions), tuple(arcs), seg_type, gamma0, E
    )


def _outcome(run, *args):
    # repr is exact for floats and tells -0.0 from 0.0: equal reprs are
    # bit-identical results
    try:
        T = run(*args)
    except PellipseError as exc:
        return type(exc), str(exc), getattr(exc, "step", None)
    return repr((T.vertices, T.directions, T.arc_classes, T.segment_type, T.caustic_gamma))


def _assert_same_run(P0, d0, steps, E):
    expected = _outcome(_reference_simulate, P0, d0, steps, E)
    assert _outcome(simulate, P0, d0, steps, E) == expected
    return expected


@settings(max_examples=150)
@given(
    k=st.integers(-6, 6),
    ua=st.floats(0.2, 8.0),
    ub=st.floats(0.2, 8.0),
    kind=st.sampled_from(["ellipse", "x-hyperbola", "y-hyperbola", "light-like"]),
    s=st.floats(0.02, 0.98),
    seed=st.integers(0, 10**6),
)
def test_simulate_matches_the_public_helpers_bit_for_bit(k, ua, ub, kind, s, seed):
    a, b = ua * 10.0**k, ub * 10.0**k
    E = BoundaryEllipse(a, b)
    if kind == "light-like":
        # a light-like direction into the ellipse, or one tilted off it by
        # 2**-m, whose caustic is far out and ill-conditioned
        phi = 2 * math.pi * s
        P0 = _boundary_point(E, phi)
        tilt = 2.0 ** -(seed % 48) if seed % 3 else 0.0
        d0 = MVec2(-math.copysign(1.0, P0.x), -math.copysign(1.0 + tilt, P0.y))
    else:
        gamma = {
            "ellipse": -b + s * (a + b),
            "x-hyperbola": -b - s * 10 * b,
            "y-hyperbola": a + s * 10 * a,
        }[kind]
        try:
            P0, d0 = start_on_caustic(E, gamma, random.Random(seed))
        except DomainError:
            assume(False)  # no admissible start (ROADMAP item 4's clearance)
    _assert_same_run(P0, d0, 300, E)


def test_simulate_fails_like_the_public_helpers():
    E = BoundaryEllipse(3.0, 2.0)
    tx, ty = 3 / math.sqrt(5), 2 / math.sqrt(5)
    rt = math.sqrt(3.0)
    runs = [
        # the chord from a touch point lands on the opposite one
        (MVec2(tx, ty), MVec2(-1.0, 0.0), 3, E, ReflectionUndefined, 1),
        # a tangent ray, and one that leaves the ellipse
        (MVec2(rt, 0.0), MVec2(0.0, 1.0), 3, E, DegenerateChord, 1),
        (MVec2(rt, 0.0), MVec2(1.0, 0.2), 3, E, DegenerateChord, 1),
    ]
    # a trajectory of the simulate pool whose caustic drifts at segment 1055
    E = BoundaryEllipse(5.0, 10.0)
    P0 = MVec2(0.5803188687513146, -3.0539253463603835)
    runs.append((P0, MVec2(-2.728759556434426, 2.1773380871468815), 2000, E, CausticDrift, 1055))
    # light-like directions tilted by 2**-m keep their caustic and run to
    # the end: their chords are nearly light-like, and caustic_of_line
    # gives inf for those within LIGHTLIKE of it and a far-out finite
    # caustic for the others, but the invariant holds across both
    for (a, b), m in (((3.0, 2.0), 29), ((3.0, 2.0), 30), ((1.0, 1.0), 27)):
        E = BoundaryEllipse(a, b)
        P0 = _boundary_point(E, 0.3)
        runs.append((P0, MVec2(-1.0, -1.0 - 2.0**-m), 400, E, None, None))
    messages = set()
    for P0, d0, steps, E, kind, step in runs:
        got = _assert_same_run(P0, d0, steps, E)
        if kind is None:
            assert isinstance(got, str), got
            continue
        assert got[0] is kind and got[2] == step, got
        messages.add(got[1])
    assert "degenerate chord: direction tangent at the start point" in messages
    assert "degenerate chord: ray leaves the ellipse" in messages
    assert any(m.startswith("segment 1055 caustic ") for m in messages)


@settings(max_examples=80)
@given(
    gamma=st.sampled_from([2.3322714928995234, 1.4, -1.2, 2.9, -2.6, 3.8]),
    which=st.integers(0, 5),
    k=st.integers(-1070, 1020),
)
def test_the_size_of_the_direction_changes_no_bit(gamma, which, k):
    # simulate scales the start direction by a power of two, so d0 2**k
    # runs as d0 does: periodic, ellipse and x- and y-major hyperbola
    # caustics of (3, 2).  A subnormal d0 2**k has lost bits of d0, so the
    # reference is the direction it rounded to, scaled back by 2**-k; for
    # |k| <= 900 that is d0 itself.
    E = BoundaryEllipse(3.0, 2.0)
    P0, d0 = next(itertools.islice(dynamics.caustic_starts(E, gamma), which, None))
    d = MVec2(math.ldexp(d0.x, k), math.ldexp(d0.y, k))
    unit = MVec2(math.ldexp(d.x, -k), math.ldexp(d.y, -k))
    if abs(k) <= 900:
        assert unit == d0
    got, expected = _outcome(simulate, P0, d, 120, E), _outcome(simulate, P0, unit, 120, E)
    assert got == expected
    T, U = simulate(P0, d, 120, E), simulate(P0, unit, 120, E)
    assert first_closure(T) == first_closure(U)
    if gamma == 2.3322714928995234:
        assert first_closure(T).n == 3


def _scaled_outcome(P0, d0, steps, E, h):
    """Error kind and step, or the vertices scaled by ``h`` and the arc classes."""
    try:
        T = simulate(P0, d0, steps, E)
    except PellipseError as exc:
        return type(exc), exc.step
    return tuple((x * h, y * h) for x, y in T.vertex_xy), T.arc_classes


@settings(max_examples=120)
@given(
    k=st.integers(-10, 10),
    ua=st.floats(0.2, 8.0),
    ub=st.floats(0.2, 8.0),
    kind=st.sampled_from(["ellipse", "x-hyperbola", "y-hyperbola", "light-like"]),
    s=st.floats(0.02, 0.98),
    m=st.integers(0, 48),
)
def test_scaling_the_axes_scales_the_trajectory(k, ua, ub, kind, s, m):
    # under (a, b) -> 4**k (a, b) and P0 -> 2**k P0 every step of simulate
    # scales exactly: the same exit at the same step, every vertex times 2**k
    E, F = BoundaryEllipse(ua, ub), BoundaryEllipse(ua * 4.0**k, ub * 4.0**k)
    if kind == "light-like":
        # a light-like direction into the ellipse, or one tilted by 2**-m
        P0 = _boundary_point(E, 2 * math.pi * s)
        tilt = 2.0**-m if m < 48 else 0.0
        d0 = MVec2(-math.copysign(1.0, P0.x), -math.copysign(1.0 + tilt, P0.y))
    else:
        gamma = {"ellipse": -ub + s * (ua + ub), "x-hyperbola": -ub - s * 10 * ub,
                 "y-hyperbola": ua + s * 10 * ua}[kind]
        try:
            P0, d0 = next(itertools.islice(dynamics.caustic_starts(E, gamma), m % 6, None))
        except DomainError:
            assume(False)
    h = 2.0**k
    Q0 = MVec2(P0.x * h, P0.y * h)
    assert _scaled_outcome(Q0, d0, 300, F, 1.0) == _scaled_outcome(P0, d0, 300, E, h)


def test_the_touch_point_test_is_relative_at_every_scale():
    # a chord from (0, -sqrt b) to the boundary point at |x| = xt (1 + 1e-7)
    # misses the touch abscissa xt by a relative 1e-7, far beyond LIGHTLIKE,
    # on (3, 2) 4**k for every k, so it reflects there and ends alike; an
    # absolute tolerance took the vertex for a touch point below unit scale
    outcomes = set()
    for k in (-10, 0, 10):
        E = BoundaryEllipse(3.0 * 4.0**k, 2.0 * 4.0**k)
        x = E.touch_x() * (1 + 1e-7)
        y = math.sqrt(E.b * (1 - x * x / E.a))
        assert boundary_arc_class(MVec2(x, y), E) is ArcClass.RelativisticHyperbolaArc
        P0, d0 = MVec2(0.0, -math.sqrt(E.b)), MVec2(x, y + math.sqrt(E.b))
        outcomes.add(_scaled_outcome(P0, d0, 10, E, 2.0**-k))
    assert outcomes == {(CausticDrift, 3)}


def test_the_helpers_decide_alike_for_every_size_of_a_direction():
    # a float direction is scaled by a power of two first, as in simulate.
    # Unscaled, a direction of size 2**-664 gave a ZeroDivisionError in
    # next_boundary_hit and the type LightLike, one of 2**664 a
    # DegenerateChord and the type TimeLike
    E = BoundaryEllipse(3, 2)
    P = MVec2(1.6546913374900216, 0.4179286842157663)
    unit = MVec2(-1.0, 0.3)
    Q = next_boundary_hit(P, unit, E)
    assert (round(Q.x, 5), round(Q.y, 5)) == (-0.92967, 1.19324)
    for k in (-1000, -664, -100, 0, 100, 664, 1000):
        d = MVec2(math.ldexp(unit.x, k), math.ldexp(unit.y, k))
        assert vector_type(d) is VectorType.SpaceLike
        assert next_boundary_hit(P, d, E) == Q
    for d in (MVec2(-1e-200, 3e-201), MVec2(-1e200, 3e199)):
        assert vector_type(d) is VectorType.SpaceLike
        R = next_boundary_hit(P, d, E)
        assert R.x == pytest.approx(Q.x, rel=1e-12) and R.y == pytest.approx(Q.y, rel=1e-12)


def _closure_by_prefix(T):
    for m in range(1, T.steps + 1):
        status = closure_status(T, m)
        if status.tag != "Open":
            return status
    return None


@pytest.mark.parametrize(
    "E, gamma, seed, tag",
    [
        (BoundaryEllipse(3, 2), 2.3322714928995234, 1, "Periodic"),
        (BoundaryEllipse(F(2), F(4)), F(4, 3), 1, "EllipticPeriodic"),
        (BoundaryEllipse(5, 3), -15 / 8, 2, "EllipticPeriodic"),
        (BoundaryEllipse(3, 2), 0.9, 4, None),
    ],
)
def test_first_closure_is_the_first_closing_prefix(E, gamma, seed, tag):
    T = simulate(*start_on_caustic(E, gamma, rng=random.Random(seed)), 60, E)
    found = first_closure(T)
    assert found == _closure_by_prefix(T)
    assert (found and found.tag) == tag


@pytest.mark.parametrize(
    "E, gamma, seed, pinned",
    [
        (BoundaryEllipse(3, 2), 1.1, 3,
         ("-0x1.34f3612bbf06ep+0", "-0x1.03b059ce7ba50p+0",
          "-0x1.718418c1d7a0cp-2", "0x1.9d9ee0385cd5cp+0")),
        (BoundaryEllipse(5, 3), -3.5, 7,
         ("-0x1.8ee364a3cfa36p+0", "0x1.3e06ccfd919c5p+0",
          "0x1.e57e69a3d0b95p+1", "-0x1.4d2c331c5037fp+0")),
        (BoundaryEllipse(3, 2), 4.2, 11,
         ("-0x1.a8571f08b8a78p-1", "-0x1.3de6b976de699p+0",
          "0x1.3048ce6e03005p+0", "0x1.5005502f0f17bp+1")),
        (BoundaryEllipse(F(7, 2), F(9, 4)), F(-1, 2), 5,
         ("-0x1.941fb3e661670p-1", "-0x1.5c26876b7307bp+0",
          "-0x1.81fbde1fafd46p-1", "0x1.06206586fee36p-1")),
        (BoundaryEllipse(3000.0, 2000.0), 1100.0, 4,
         ("0x1.0e94b4d66df51p+5", "0x1.1968894d8963fp+5",
          "0x1.4f30661eba5a6p+4", "-0x1.1aa604f078cc6p+5")),
    ],
)
def test_start_on_caustic_pinned_floats(E, gamma, seed, pinned):
    # an ellipse, an x-major and a y-major hyperbola caustic, exact axes,
    # and a scaled ellipse: the start is pinned to the last bit
    P0, d0 = start_on_caustic(E, gamma, random.Random(seed))
    assert (P0.x.hex(), P0.y.hex(), d0.x.hex(), d0.y.hex()) == pinned


# ---------------------------------------------------------------------------
# float-pair storage: MVec2 only on access
# ---------------------------------------------------------------------------

# an elliptic-periodic start that closes every 2 steps, so the closure
# test runs on every other vertex (the simulate-svg golden job)
_CLOSING = ["--a", "10", "--b", "2", "--x0=3.1166005338873193", "--y0=0.23949994245230122",
            "--dx=-5.177385578678909", "--dy=-1.312175569020121"]


def test_simulate_builds_no_mvec2_per_step(monkeypatch, capsys, tmp_path):
    # the step loop, the closure search, the JSON and the SVG read the
    # float pairs: how many MVec2 a run builds does not grow with steps
    E = BoundaryEllipse(3, 2)
    P0, d0 = start_on_caustic(E, 1.1, rng=random.Random(3))
    built = []

    class CountingMVec2(MVec2):
        def __new__(cls, x, y):
            built.append(1)
            return super().__new__(cls, x, y)

    monkeypatch.setattr(dynamics, "MVec2", CountingMVec2)
    counts = []
    for steps in (10, 2000):
        built.clear()
        T = simulate(P0, d0, steps, E)
        first_closure(T)
        n_sim = len(built)
        argv = ["simulate", *_CLOSING, "--steps", str(steps), "--svg", str(tmp_path / "f.svg")]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["closure"]["n"] == 2
        counts.append((n_sim, len(built) - n_sim))
    assert counts[0] == counts[1], counts


def test_trajectory_builds_mvec2_on_access():
    E = BoundaryEllipse(3, 2)
    T = simulate(*start_on_caustic(E, 1.1, rng=random.Random(3)), 12, E)
    assert all(type(c) is float for xy in T.vertex_xy + T.direction_xy for c in xy)
    for seq, pairs in ((T.vertices, T.vertex_xy), (T.directions, T.direction_xy)):
        assert type(seq) is tuple and all(type(P) is MVec2 for P in seq)
        assert [(P.x, P.y) for P in seq] == list(pairs)
    # built once, then cached
    assert T.vertices is T.vertices and T.directions is T.directions
    # the fields are the float pairs, so a replaced copy keeps them
    arcs = (ArcClass.RelativisticEllipseArc,) * len(T.arc_classes)
    U = T._replace(arc_classes=arcs)
    assert U.arc_classes == arcs and U.vertex_xy == T.vertex_xy
    assert U.vertices == T.vertices and U.directions == T.directions
