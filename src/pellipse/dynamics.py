"""Billiard dynamics in the Minkowski plane.

Reflection off a line with direction ``d`` is the linear map
``v' = 2 <v, d>/<d, d> d - v``; it preserves the Minkowski norm and is an
involution, but is undefined when the mirror direction is light-like.
Trajectories inside the boundary ellipse are polygonal: every segment is
tangent to one fixed confocal conic (the caustic), which the simulator
verifies at each step.

:func:`simulate` runs one loop over the floats ``x, y, vx, vy``, with
the hot names bound to locals.  Each step first tests the caustic with
one division-free invariant, homogeneous in the axes and in the
direction: the caustic ``gamma = num/den`` of ``caustic_of_line``, times
``c**2`` for ``c = vy x - vx y``, must stay proportional to the first
segment's.  The light-like caustic ``gamma = inf`` is ``den = 0`` and
needs no special case.  The step then makes the float operations of
:func:`next_boundary_hit`, ``boundary_arc_class``, ``tangent_line_at``
and :func:`reflect` in the same order, with each of their checks made
once, so vertices, directions and errors match those helpers bit for
bit.  Every step is homogeneous in the direction, so :func:`simulate`
first scales the start direction by a power of two, and its size
decides nothing; :func:`next_boundary_hit` and
:func:`~pellipse.geometry.vector_type` scale a float direction alike.  A
:class:`Trajectory` keeps each vertex and direction as an ``(x, y)``
float pair; its ``vertices`` and ``directions`` build
:class:`~pellipse.geometry.MVec2` values on first access.  The closure
tests, the JSON and the SVG figure read the pairs: the JSON document of
:meth:`Trajectory.to_jsonable` holds the vertex pairs themselves.
:func:`first_closure` finds the first closing prefix of a trajectory in
one pass over its vertices.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from . import polys
from .config import BOUNDARY, DEGENERATE, DRIFT, LIGHTLIKE, START_CLEARANCE
from .errors import CausticDrift, DegenerateChord, DomainError, ReflectionUndefined
from .geometry import (
    ALL_CONICS,
    ArcClass,
    BoundaryEllipse,
    ConicClass,
    LineImplicit,
    MVec2,
    _pow2_scaled,
    boundary_arc_class,
    caustic_of_line,
    classify_conic,
    line_through,
    minkowski_dot,
    vector_type,
)

__all__ = [
    "ClosureStatus",
    "Trajectory",
    "SIGMAS",
    "reflect",
    "next_boundary_hit",
    "simulate",
    "closure_status",
    "first_closure",
    "partition_counts",
    "start_on_caustic",
    "caustic_starts",
]

#: The signs of ``(x, y)`` under the three axial symmetries used by
#: elliptic closure.
_SIGMA_SIGNS = {"flip-x": (1, -1), "flip-y": (-1, 1), "flip-both": (-1, -1)}

#: Names of the three axial symmetries used by elliptic closure.
SIGMAS = tuple(_SIGMA_SIGNS)


class ClosureStatus(namedtuple("ClosureStatus", "tag n sigma", defaults=(None, None))):
    """Closure verdict for a trajectory prefix of ``n`` steps.

    ``tag`` is ``"Periodic"`` (returns to start with the same direction),
    ``"EllipticPeriodic"`` (returns to the mirror image of the start under
    exactly one axial symmetry ``sigma``) or ``"Open"``.  ``n`` (an
    ``int``) and ``sigma`` (a string) are ``None`` where they do not apply.
    """

    __slots__ = ()

    @staticmethod
    def periodic(n: int) -> "ClosureStatus":
        return ClosureStatus("Periodic", n, None)

    @staticmethod
    def elliptic(n: int, sigma: str) -> "ClosureStatus":
        return ClosureStatus("EllipticPeriodic", n, sigma)

    @staticmethod
    def open_() -> "ClosureStatus":
        return ClosureStatus("Open", None, None)


class Trajectory(
    namedtuple(
        "Trajectory",
        "vertex_xy direction_xy arc_classes segment_type caustic_gamma ellipse",
    )
):
    """A simulated polygonal billiard trajectory.

    ``vertex_xy`` holds ``steps + 1`` boundary points as ``(x, y)`` float
    pairs; ``direction_xy`` holds ``steps + 1`` pairs, the segment
    directions followed by the reflected direction at the final vertex,
    at the size :func:`simulate` scaled them to;
    ``arc_classes`` classifies each vertex by its
    :class:`~pellipse.geometry.ArcClass`; ``segment_type`` is the
    :class:`~pellipse.geometry.VectorType` of the segments and ``ellipse``
    the :class:`~pellipse.geometry.BoundaryEllipse`.  ``caustic_gamma`` is
    the parameter of the conic touched by every segment (``math.inf`` for
    light-like trajectories, ``ALL_CONICS`` for the common tangents).
    ``vertices`` and ``directions`` are the same points as
    :class:`~pellipse.geometry.MVec2` tuples, built on first access and
    kept in the instance ``__dict__`` (so this class has no ``__slots__``).
    """

    @functools.cached_property
    def vertices(self) -> tuple[MVec2, ...]:
        return tuple(MVec2(x, y) for x, y in self.vertex_xy)

    @functools.cached_property
    def directions(self) -> tuple[MVec2, ...]:
        return tuple(MVec2(x, y) for x, y in self.direction_xy)

    @property
    def steps(self) -> int:
        return len(self.vertex_xy) - 1

    def to_jsonable(self, closure: ClosureStatus | None = None) -> dict:
        """JSON-ready dict (infinity as the string "inf").

        ``vertices`` is :attr:`vertex_xy` itself, a tuple of float pairs,
        which ``json`` writes as a list of lists; ``arc_classes`` lists the
        member values.
        """
        gamma = self.caustic_gamma
        if gamma is ALL_CONICS:
            gval: object = "all"
        elif isinstance(gamma, float) and math.isinf(gamma):
            gval = "inf"
        else:
            gval = float(gamma)
        doc: dict = {
            "a": float(self.ellipse.a),
            "b": float(self.ellipse.b),
            "gamma": gval,
            "segment_type": self.segment_type.value,
            "vertices": self.vertex_xy,
            # the member attribute, not the ``value`` property: 0.4 ms per 2,000 arcs
            "arc_classes": [arc._value_ for arc in self.arc_classes],
        }
        doc["closure"] = (
            None
            if closure is None
            else {"tag": closure.tag, "n": closure.n, "sigma": closure.sigma}
        )
        return doc


def reflect(v: MVec2, L: LineImplicit) -> MVec2:
    """Minkowski reflection of ``v`` across the line ``L``.

    Raises :class:`ReflectionUndefined` when the line direction is
    light-like relative to its Euclidean size.
    """
    d = L.direction()
    dd = minkowski_dot(d, d)
    scale = float(d.x) * float(d.x) + float(d.y) * float(d.y)
    if abs(float(dd)) <= LIGHTLIKE * scale:
        raise ReflectionUndefined("mirror line is light-like; reflection undefined")
    s = minkowski_dot(v, d) / dd
    return MVec2(2 * s * d.x - v.x, 2 * s * d.y - v.y)


def next_boundary_hit(P: MVec2, d: MVec2, E: BoundaryEllipse) -> MVec2:
    """Second intersection of the ray ``P + t d  (t > 0)`` with the boundary.

    ``P`` must lie on the boundary within tolerance.  The start root of the
    chord quadratic is deflated exactly, leaving ``t = -B/A`` with
    ``A = dx**2/a + dy**2/b`` and ``B = 2 (x dx / a + y dy / b)``; a
    non-positive ``t`` means the chord degenerates (tangent ray or ray
    leaving the ellipse) and raises :class:`DegenerateChord`.  Every
    operation is homogeneous in the direction, and a float ``d`` is first
    scaled by a power of two, as in :func:`simulate`, so its size decides
    nothing.
    """
    if abs(float(E.boundary_residual(P))) > BOUNDARY:
        raise DomainError(f"chord start ({P.x}, {P.y}) is not on the boundary")
    if d.x == 0 and d.y == 0:
        raise DomainError("chord direction must be nonzero")
    d = _pow2_scaled(d)
    x, y, dx, dy, a, b = polys.to_field(P.x, P.y, d.x, d.y, E.a, E.b)
    with polys.field_context(a):
        A = dx * dx / a + dy * dy / b
        B = 2 * (x * dx / a + y * dy / b)
        t = -B / A
        if float(t) * d.euclid_norm() <= DEGENERATE * E.scale():
            raise DegenerateChord(
                "degenerate chord: direction tangent at the start point"
                if float(t) >= 0
                else "degenerate chord: ray leaves the ellipse"
            )
        return MVec2(x + t * dx, y + t * dy)


def simulate(P0: MVec2, d0: MVec2, steps: int, E: BoundaryEllipse) -> Trajectory:
    """Simulate ``steps`` reflections from boundary point ``P0`` along ``d0``.

    The trajectory runs in floats: ``E``, ``P0`` and ``d0`` are replaced by
    their float images on entry, whatever their field (``int``,
    ``Fraction``, ``float`` or ``Decimal``), so the vertices, directions,
    caustic and ellipse of the result are floats.  The direction is then
    scaled by the power of two ``2**-e`` that brings its larger component
    into ``[0.5, 1)``, with ``e`` from :func:`math.frexp`.  Every operation
    of a step is homogeneous in the direction, so the scaling changes no
    bit of the vertices, arc classes, segment type or caustic that the
    direction as given computes without over- or underflow, and it keeps
    ``vx**2/a`` and the chord parameter ``t`` in range for the others:
    ``d0`` and ``d0 * 2**k`` give the same trajectory.  ``direction_xy``
    holds the scaled directions.

    Each step is one loop body over the floats ``x, y, vx, vy``.  It
    checks, in this order:

    * the caustic invariant (:class:`CausticDrift`): with
      ``c = vy x - vx y``, the chord's ``num = c**2 - a vy**2 - b vx**2``
      and ``den = vx**2 - vy**2`` (the quotient ``gamma = num/den`` of
      :func:`~pellipse.geometry.caustic_of_line`, scaled by ``c**2``) keep
      the first segment's ``(num0, den0)`` when
      ``|den0 num - num0 den| <= DRIFT (|den0| (c**2 + a vy**2 + b vx**2)
      + |num0| (vx**2 + vy**2))``.  There is no division and no special
      case: a light-like caustic is ``den0 = 0``, and a common tangent of
      the family, ``num = den = 0``, passes by itself.  The test is
      invariant under ``(a, b, x, y) -> (4**k a, 4**k b, 2**k x, 2**k y)``
      and under the size of the direction.  ``gamma`` is formed only for
      the error message, by ``caustic_of_line(line_through(...))``;
    * the chord (:func:`next_boundary_hit`): a nonzero direction, and
      :class:`DegenerateChord` for a tangent ray or one that leaves the
      ellipse;
    * the new vertex (``boundary_arc_class``): on the boundary within
      ``BOUNDARY``, and ``|x|`` not within the relative ``LIGHTLIKE xt``
      of the touch abscissa ``xt``, where the tangent line is light-like
      (:class:`ReflectionUndefined`);
    * the mirror (``tangent_line_at`` and :func:`reflect`):
      ``(p, q) != (0, 0)`` and not light-like (:class:`ReflectionUndefined`).

    The last three make the float operations of those helpers on the
    scaled direction in their order, so the vertices, directions and arc
    classes match the helpers bit for bit, and so do their errors.  A
    product the helpers compute twice, such as ``vx * vx`` in the caustic
    test and in ``A``, or ``p * p`` in ``q*q - p*p`` and ``p*p + q*q``, is
    computed once.  The segment type and the recorded ``caustic_gamma``
    are those of :func:`~pellipse.geometry.vector_type` and
    ``caustic_of_line`` on the first segment.

    The boundary residual of a vertex is computed once per vertex; the
    helpers' repeated tests of the same value are not made again.  Errors
    of a step carry its 1-based index.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    try:
        E = BoundaryEllipse(float(E.a), float(E.b))
        P, vx, vy = MVec2(float(P0.x), float(P0.y)), float(d0.x), float(d0.y)
    except OverflowError:
        raise DomainError("simulate needs axes and start data within the float range") from None
    if abs(E.boundary_residual(P)) > BOUNDARY:
        raise DomainError(f"start point ({P0.x}, {P0.y}) is not on the boundary")
    # every step is homogeneous in the direction: this power of two keeps
    # vx**2/a and t in range for a direction of any size
    v = _pow2_scaled(MVec2(vx, vy))
    seg_type = vector_type(v)
    gamma0 = caustic_of_line(line_through(P, v), E)

    vertices = [(P.x, P.y)]
    directions = [(v.x, v.y)]
    arcs = [boundary_arc_class(P, E)]
    add_vertex, add_direction, add_arc = vertices.append, directions.append, arcs.append
    hypot, lightlike, boundary = math.hypot, LIGHTLIKE, BOUNDARY
    a, b = E.a, E.b
    xt = E.touch_x()
    touch_tol = lightlike * xt
    chord_tol = DEGENERATE * E.scale()
    ellipse_arc, hyperbola_arc = ArcClass.RelativisticEllipseArc, ArcClass.RelativisticHyperbolaArc
    x, y, vx, vy = P.x, P.y, v.x, v.y
    # the caustic invariant (num0, den0) of the first segment; in the bound,
    # DRIFT |den0| weighs the terms of num and DRIFT |num0| those of den
    vxx, vyy = vx * vx, vy * vy
    c = vy * x - vx * y
    num0, den0 = c * c - a * vyy - b * vxx, vxx - vyy
    drift_num, drift_den = DRIFT * abs(den0), DRIFT * abs(num0)
    # ``-tol <= z <= tol`` is ``abs(z) <= tol`` and ``z > tol or z < -tol`` is
    # ``abs(z) > tol``, NaN included (``not -tol <= z <= tol`` is not)
    for i in range(1, steps + 1):
        # the caustic: (num, den) proportional to (num0, den0); a NaN drifts
        vxx, vyy = vx * vx, vy * vy
        c = vy * x - vx * y
        cc, avy, bvx = c * c, a * vyy, b * vxx
        tol = drift_num * (cc + avy + bvx) + drift_den * (vxx + vyy)
        z = den0 * (cc - avy - bvx) - num0 * (vxx - vyy)
        if not -tol <= z <= tol:
            gamma_i = caustic_of_line(line_through(MVec2(x, y), MVec2(vx, vy)), E)
            raise CausticDrift(f"segment {i} caustic {gamma_i} drifted from {gamma0}", step=i)
        # next_boundary_hit
        if vx == 0 and vy == 0:
            raise DomainError("chord direction must be nonzero")
        A = vxx / a + vyy / b
        B = 2.0 * (x * vx / a + y * vy / b)
        t = -B / A
        if t * hypot(vx, vy) <= chord_tol:
            raise DegenerateChord(
                "degenerate chord: direction tangent at the start point"
                if t >= 0
                else "degenerate chord: ray leaves the ellipse",
                step=i,
            )
        x, y = x + t * vx, y + t * vy
        # boundary_arc_class
        z = x * x / a + y * y / b - 1.0
        if z > boundary or z < -boundary:
            raise DomainError(f"point ({x}, {y}) is not on the boundary ellipse")
        dx = abs(x) - xt
        if -touch_tol <= dx <= touch_tol:
            raise ReflectionUndefined(
                f"vertex {i} landed on a touch point; tangent line is light-like",
                step=i,
            )
        # reflect across tangent_line_at: (x/a) X + (y/b) Y = 1, direction (y/b, -x/a)
        p, q = x / a, y / b
        if p == 0 and q == 0:
            raise DomainError("line requires (p, q) != (0, 0)")
        mx, my = q, -p
        mm, nn = mx * mx, my * my
        dd = mm - nn
        tol = lightlike * (mm + nn)
        if -tol <= dd <= tol:
            raise ReflectionUndefined(
                "mirror line is light-like; reflection undefined", step=i
            )
        s2 = 2.0 * ((vx * mx - vy * my) / dd)
        vx, vy = s2 * mx - vx, s2 * my - vy
        add_vertex((x, y))
        add_direction((vx, vy))
        add_arc(hyperbola_arc if dx > 0 else ellipse_arc)
    return Trajectory(
        vertex_xy=tuple(vertices),
        direction_xy=tuple(directions),
        arc_classes=tuple(arcs),
        segment_type=seg_type,
        caustic_gamma=gamma0,
        ellipse=E,
    )


def _unit(v: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(*v)
    return v[0] / n, v[1] / n


def _close(u: tuple[float, float], v: tuple[float, float], tol: float, sx=1, sy=1) -> bool:
    # u against the image (sx vx, sy vy) of v under a sign flip
    return max(abs(u[0] - sx * v[0]), abs(u[1] - sy * v[1])) <= tol


def closure_status(T: Trajectory, n: int, tol: float = BOUNDARY) -> ClosureStatus:
    """Closure verdict after ``n`` steps of the trajectory.

    Compares vertex ``n`` and the outgoing direction there against the
    start data, directly (``Periodic``) and under each axial symmetry
    (``EllipticPeriodic``); ``tol`` is an absolute tolerance on vertex
    coordinates and on unit direction components.  Exact periodicity takes
    precedence; an elliptic verdict requires exactly one matching symmetry.
    """
    if n < 1 or n > T.steps:
        raise DomainError(f"closure test needs 1 <= n <= {T.steps}, got {n}")
    v0, vn = T.vertex_xy[0], T.vertex_xy[n]
    # the start and its mirror images are (+-x0, +-y0): unless |xn| and |yn|
    # are within tol of |x0| and |y0|, no direction or symmetry can match
    if abs(abs(vn[0]) - abs(v0[0])) > tol or abs(abs(vn[1]) - abs(v0[1])) > tol:
        return ClosureStatus.open_()
    d0, dn = _unit(T.direction_xy[0]), _unit(T.direction_xy[n])
    if _close(vn, v0, tol) and _close(dn, d0, tol):
        return ClosureStatus.periodic(n)
    matches = [
        s
        for s, signs in _SIGMA_SIGNS.items()
        if _close(vn, v0, tol, *signs) and _close(dn, d0, tol, *signs)
    ]
    if len(matches) == 1:
        return ClosureStatus.elliptic(n, matches[0])
    return ClosureStatus.open_()


def first_closure(T: Trajectory, tol: float = BOUNDARY) -> ClosureStatus | None:
    """First verdict of :func:`closure_status` over ``n = 1 .. T.steps`` not ``Open``.

    ``None`` when every prefix is open.  One pass over the vertices:
    ``closure_status`` is called only where its own ``|x|``/``|y|``
    prefilter lets vertex ``n`` through, so the verdict is the one of the
    per-``n`` loop.
    """
    x0, y0 = map(abs, T.vertex_xy[0])
    for n, (x, y) in enumerate(T.vertex_xy[1:], 1):
        if abs(abs(x) - x0) > tol or abs(abs(y) - y0) > tol:
            continue
        status = closure_status(T, n, tol)
        if status.tag != "Open":
            return status
    return None


def partition_counts(T: Trajectory, n: int | None = None) -> tuple[int, int]:
    """Counts ``(n1, n2)`` of bounce types over one period.

    ``n1`` counts vertices on relativistic-ellipse arcs and ``n2`` those on
    relativistic-hyperbola arcs among the first ``n`` vertices.  The
    trajectory must close (``Periodic``) at ``n`` (default: all its steps)
    within ``BOUNDARY`` (see :func:`closure_status`).
    """
    if n is None:
        n = T.steps
    status = closure_status(T, n)
    if status.tag != "Periodic":
        raise DomainError(f"partition counts need a closed trajectory, got {status.tag}")
    n1 = sum(1 for arc in T.arc_classes[:n] if arc is ArcClass.RelativisticEllipseArc)
    n2 = sum(1 for arc in T.arc_classes[:n] if arc is ArcClass.RelativisticHyperbolaArc)
    return n1, n2


def start_on_caustic(
    E: BoundaryEllipse, gamma, rng: random.Random | None = None
) -> tuple[MVec2, MVec2]:
    """An admissible start ``(P0, d0)`` whose first segment touches ``gamma``.

    The first start of :func:`caustic_starts`: without ``rng`` a pure
    function of ``(E, gamma)``, with ``rng`` a random one.
    """
    return next(caustic_starts(E, gamma, rng))


#: The step of :func:`_golden_points`, ``(sqrt(5) - 1)/2``.
_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_points():
    """The golden-ratio (Weyl) sequence ``t_k = k (sqrt(5) - 1)/2 mod 1``, k = 1, 2, ..."""
    return (k * _GOLDEN % 1.0 for k in itertools.count(1))


def caustic_starts(E: BoundaryEllipse, gamma, rng: random.Random | None = None):
    """Admissible starts ``(P0, d0)`` whose first segments touch ``gamma``, one after another.

    Each start is a tangent line of the caustic, cut by the boundary.
    Lines that miss the ellipse are rejected, and so are lines whose
    endpoints come within the clearance in ``|x|`` of a touch point
    ``(+-xt, +-yt)``, where reflection is undefined.  The tangent parameter
    is an angle on an ellipse caustic; on a hyperbola it is a branch and a
    ``u`` in ``[-w, w]``, since the tangent at ``u`` meets the boundary only
    when ``sinh(u)**2 >= (1 - r) / (ra + rb)``, with ``ra = a/|a - gamma|``,
    ``rb = b/|b + gamma|`` and ``r`` the one of the major axis, so
    ``w = max(2.5, u_min + 1)`` for ``u_min`` the least such ``|u|``.

    Without ``rng`` the parameters run through the golden-ratio sequence
    ``t_k`` (the angle ``2 pi t_k``; on a hyperbola the branch is the half
    of ``[0, 1)`` holding ``t_k`` and ``u`` spans ``[-w, w]`` over each
    half) and the clearance is ``START_CLEARANCE * xt``: the starts are a
    pure function of ``(E, gamma)`` and scale with the axes.  With ``rng``
    they are drawn from it and the clearance is
    ``START_CLEARANCE * (1 + xt)``.  Raises :class:`DomainError` for a
    degenerate caustic, for a ``gamma`` beyond the float range once the
    axes are scaled to unit size, or when 500 parameters in a row give no
    admissible start; the sequence then ends.
    """
    conic = classify_conic(gamma, E)
    if conic not in (
        ConicClass.EllipseOfFamily,
        ConicClass.HyperbolaXMajor,
        ConicClass.HyperbolaYMajor,
    ):
        raise DomainError(f"cannot start on degenerate caustic gamma={gamma}")
    # on the axes scaled by 4**-k to about unit size no product over- or
    # underflows; each start scales back by s = 2**k, exactly
    k = math.frexp(max(float(E.a), float(E.b)))[1] // 2
    try:
        a, b, g = (math.ldexp(float(x), -2 * k) for x in (E.a, E.b, gamma))
    except OverflowError as exc:
        raise DomainError(f"gamma={gamma} is beyond the float range at unit scale") from exc
    xt, s = a / math.sqrt(a + b), 2.0**k
    hyperbola = conic is not ConicClass.EllipseOfFamily
    if rng is None:
        clearance = START_CLEARANCE * xt
        points = _golden_points()

        def draw():
            t = next(points)
            return (t, True) if not hyperbola else (2 * t % 1.0, t < 0.5)

    else:
        clearance = START_CLEARANCE * (1 / s + xt)  # 1 + xt in the given units

        def draw():
            t = rng.random()
            return t, (rng.random() < 0.5 if hyperbola else True)

    sa, sb = math.sqrt(abs(a - g)), math.sqrt(abs(b + g))
    if hyperbola:
        ra, rb = a / abs(a - g), b / abs(b + g)
        r = ra if conic is ConicClass.HyperbolaXMajor else rb
        w = max(2.5, math.asinh(math.sqrt(max(0.0, (1 - r) / (ra + rb)))) + 1)
    misses = 0
    while misses < 500:
        misses += 1
        t, upper = draw()
        if not hyperbola:
            phi = 2 * math.pi * t
            p, q = math.cos(phi) / sa, math.sin(phi) / sb
        else:
            u = -w + 2 * w * t
            branch = 1.0 if upper else -1.0
            if conic is ConicClass.HyperbolaXMajor:
                p, q = branch * math.cosh(u) / sa, -math.sinh(u) / sb
            else:
                p, q = -math.sinh(u) / sa, branch * math.cosh(u) / sb
        nn = p * p + q * q
        fx, fy = p / nn, q / nn  # foot of the perpendicular from the origin
        A2 = q * q / a + p * p / b
        B2 = 2 * (fx * q / a - fy * p / b)
        C2 = fx * fx / a + fy * fy / b - 1
        disc = B2 * B2 - 4 * A2 * C2
        if disc <= 1e-12 * (B2 * B2 + abs(4 * A2 * C2)):
            continue  # tangent line misses the boundary (caustic bulge)
        root = math.sqrt(disc)
        t1 = (-B2 - root) / (2 * A2)
        t2 = (-B2 + root) / (2 * A2)
        x0, y0 = fx + t1 * q, fy - t1 * p
        x1, y1 = fx + t2 * q, fy - t2 * p
        if abs(abs(x0) - xt) < clearance or abs(abs(x1) - xt) < clearance:
            continue  # too close to a touch point for stable reflection
        misses = 0
        yield MVec2(x0 * s, y0 * s), MVec2((x1 - x0) * s, (y1 - y0) * s)
    raise DomainError(f"no admissible tangent line found for gamma={gamma}")
