"""Caustic parameters of periodic and elliptic-periodic trajectories.

Every solver finds its roots in two steps, for every period and both kinds:

1. **locate**: the caustic with partition ``(n, k)`` is the root of
   ``rho = k/n`` for the rotation number ``rho`` of
   :func:`~pellipse.extremal.rotation_ratio`, which rises from 0 to 1 on
   each of three ranges, the hyperbolas as one range in ``u = 1/gamma``;
   a safeguarded Anderson-Bjorck secant step
   (:func:`~pellipse.polys.regula_falsi`) finds it in floats, in about
   ten evaluations of ``rho`` a root, and the partition rule of
   :mod:`~pellipse.cayley` (:func:`~pellipse.cayley._partition`) says
   whether it is periodic, elliptic-periodic or closed after a shorter
   period;
2. **land**: :func:`~pellipse.cayley._landed` moves that float onto the
   correctly rounded closure root, by the exact closure condition
   (:func:`~pellipse.cayley._landing_det`: a division value at an even
   period, the half-index torsion function on every other ladder) at
   rationals around it.  Its sign change across the rounding interval is
   the proof that a closure root lies there, the same proof the closure
   verdicts of :mod:`~pellipse.cayley` take for a float; a root with none
   within reach is discarded.

One generator, :func:`_roots`, takes each located root through landing
and the screens, the spurious-root filter (degenerate conics) and the
divisor periods, for both solvers and for the snap of ``certify``, and
names the exact rational value of the roots it keeps, when they have
one.  Every located root it does not yield is discarded with a reason,
the light-like root at ``u = 0`` among them, and every root it yields is
then validated by an actual simulated trajectory that must close.  So
this module locates, screens and validates; the landing, on the one
determinant that :func:`~pellipse.cayley._landing_det` builds, and the
exact candidate are :mod:`~pellipse.cayley`'s.

The closure conditions of the small periods, polynomials in ``gamma``
with coefficients polynomial in the squared semi-axes ``(a, b)``, are
generated from the Hankel determinant
(:func:`~pellipse.cayley.closure_det`) by
:func:`~pellipse.cayley.closure_poly`: their discriminants factor into
strikingly small closed forms in ``(a, b)``, which
:func:`discriminant_identity_check` verifies.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import cayley, polys
from .cayley import case_symmetry, closure_degree, closure_ladder, closure_poly_gamma
from .config import CLOSURE
from .dynamics import ClosureStatus, caustic_starts, closure_status, simulate
from .errors import DomainError, PellipseError
from .extremal import rotation_ratio
from .geometry import ArcClass, BoundaryEllipse, classify_conic, degenerate_value

__all__ = [
    "CausticResult",
    "closed_form_caustics",
    "periodic_caustics",
    "elliptic_caustics",
    "generic_caustic_scan",
    "discriminant_identity_check",
    "DISCRIMINANT_IDENTITIES",
]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class CausticResult(
    namedtuple(
        "CausticResult",
        "gamma conic n n1 n2 validated kind case sigma gamma_exact",
        defaults=(None, None, None),
    )
):
    """One caustic parameter with its validation record.

    ``gamma_exact`` is the exact rational root when one exists (denominator
    up to ``10**9``) and ``None`` when the root is irrational; certificate
    pipelines refine irrational parameters internally from the float value.
    ``n1``/``n2`` count bounces on relativistic-ellipse / -hyperbola arcs
    over one period of the validation trajectory (``None`` if the
    simulation could not be completed).  For elliptic-periodic caustics
    ``case`` is the closure case letter and ``sigma`` the axial symmetry
    (both ``None`` otherwise).  ``gamma`` is a ``float``, ``conic`` the
    :class:`~pellipse.geometry.ConicClass` of the caustic, ``validated`` a
    ``bool`` and ``kind`` ``"periodic"`` or ``"elliptic"``.
    """

    __slots__ = ()

    def to_jsonable(self) -> dict:
        return {
            "gamma": self.gamma,
            "conic": self.conic.value,
            "n": self.n,
            "n1": self.n1,
            "n2": self.n2,
            "validated": self.validated,
            "kind": self.kind,
            "case": self.case,
            "sigma": self.sigma,
            "gamma_exact": None if self.gamma_exact is None else str(self.gamma_exact),
        }


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_form_caustics(E: BoundaryEllipse, n: int) -> list:
    """Closed-form caustic parameters for periods 3 and 4, sorted ascending.

    Period 3 returns the two surd expressions
    ``ab (a - b +- 2 sqrt(a**2 + a b + b**2)) / (a + b)**2`` (floats);
    period 4 returns ``-ab/(a+b)``, ``ab/(a+b)`` and ``-ab/(a-b)``
    exactly (:class:`~fractions.Fraction` for rational input), sorted, so
    ``-ab/(a-b)`` comes first for ``a > b`` and last for ``a < b``; it
    drops out when ``a = b``.
    """
    if n == 3:
        a, b = float(E.a), float(E.b)
        r = math.sqrt(a * a + a * b + b * b)
        g1 = a * b * (a - b + 2 * r) / (a + b) ** 2
        g2 = -a * b * (b - a + 2 * r) / (a + b) ** 2
        return sorted([g1, g2])
    if n == 4:
        exact = polys.is_exact(E.a, E.b)
        a, b = (Fraction(x) if exact else Fraction(float(x)) for x in (E.a, E.b))
        vals = [-a * b / (a + b), a * b / (a + b)]
        if a != b:
            vals.append(-a * b / (a - b))
        vals.sort()
        return vals if exact else [float(v) for v in vals]
    raise DomainError(f"closed forms exist for n in {{3, 4}}, got n={n}")


# ---------------------------------------------------------------------------
# the root source: locate on the level sets of rho, land on the exact determinant
# ---------------------------------------------------------------------------

#: How far beyond ``rho`` at a window's ends :func:`_level_roots` keeps a
#: ``k``: far above the few units in the last place of its rounding.
_SLACK = 1e-12


def _normalized_det(E: BoundaryEllipse, gamma_f: float, n: int) -> int:
    """The sign, -1, 0 or 1, of the exact periodic closure determinant at ``gamma_f``.

    Nothing in the package calls it: the benchmark harness wraps it by name
    (``perfbench/tracing.py``, ``caustics.scan.det_evals``), so it stays
    defined until the harness reads spans instead.  It reads the closure
    condition of :func:`~pellipse.cayley._landing_det`, the one every
    closure verdict decides on, and returns its sign, the one value of it
    that no positive scale changes.
    """
    num, _ = cayley._landing_det(E)(closure_ladder(n), n)(*gamma_f.as_integer_ratio())
    return (num > 0) - (num < 0)


def _level_roots(E: BoundaryEllipse, n: int, elliptic: bool, window=None):
    """``(gamma, tag)`` per root of ``rho = k/n`` of the wanted kind, ascending.

    ``rho`` is :func:`~pellipse.extremal.rotation_ratio`.  It rises from 0
    to 1 on each of three ranges: ``(-b, 0)`` and ``(0, a)`` in ``gamma``,
    and the hyperbolas as one range ``(-1/b, 1/a)`` in ``u = 1/gamma``,
    through ``rho(inf)`` at ``u = 0``, the light-like caustic.  So every
    ``k`` has one root on each range, and
    :func:`~pellipse.cayley._partition` says what it is.  A periodic root's
    ``tag`` is the period it closes after, on whose closure determinant
    :func:`_roots` lands it; an elliptic root's is its case letter.  Each
    root is found by :func:`~pellipse.polys.regula_falsi` in its range's
    variable; the one map between that variable and ``gamma``, ``x -> x``
    or ``x -> 1/x``, is its own inverse.  A root at ``u = 0`` exactly is
    listed with ``gamma = inf``, for :func:`_roots` to discard.

    A finite ``window = (lo, hi)`` of ``gamma``, mapped into each range,
    keeps only the ``k`` whose ``k/n`` lies between ``rho`` at the window's
    ends on some range (within ``_SLACK``, beyond the rounding of ``rho``),
    so every root inside the window is found and only a few outside it.
    Each kept ``k`` is still located on its whole range, so its root is the
    one found without a window.
    """
    a, b = float(E.a), float(E.b)
    # (range, ends of the variable, variable <-> gamma); rho rises from 0 to 1
    # with the variable on every range
    ranges = [
        ("(-b, 0)", (-b, 0.0), float),
        ("(0, a)", (0.0, a), float),
        ("hyperbola", (-1 / b, 1 / a), lambda x: 1 / x if x else math.inf),
    ]
    roots = []
    for span, (lo, hi), flip in ranges:
        tags = [(k, cayley._partition(span, n, k)) for k in range(1, n)]
        tags = [(k, t) for k, t in tags if t is not None and isinstance(t, str) == elliptic]
        if not tags:  # no k of the wanted kind here: rho is not needed
            continue
        rho = lambda x: rotation_ratio(a, b, flip(x))  # noqa: E731
        if window is not None:
            x_lo, x_hi = sorted(map(flip, window))
            x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
            if not x_lo < x_hi:
                continue
            low = (rho(x_lo) if x_lo > lo else 0.0) - _SLACK
            high = (rho(x_hi) if x_hi < hi else 1.0) + _SLACK
            tags = [(k, t) for k, t in tags if low <= k / n <= high]
        for k, tag in tags:
            x = polys.regula_falsi(lambda x: rho(x) - k / n, lo, hi, -k / n, 1 - k / n)
            roots.append((flip(x), tag))
    return sorted(roots)


def _spurious_reason(E: BoundaryEllipse, gamma_f: float) -> str | None:
    """The spurious-root filter: the reason a landed root is a degenerate conic, else None.

    It is the one conic screen.  An odd period needs no hyperbola screen:
    the partition rule (:data:`~pellipse.cayley._RANGES`) admits a periodic
    hyperbola root only for even ``n``, and landing moves a root at most ``cayley._REACH``
    float steps, a relative ``2**-32``, which from the ranges ``(-b, 0)``
    and ``(0, a)`` stays inside the band ``DEGENERATE (1 + |v|)`` around
    ``v = -b`` and ``v = a`` that this screen rejects.
    """
    hit = degenerate_value(gamma_f, E)
    return None if hit is None else f"degenerate conic (gamma = {hit[0]})"


#: The periods at which a kept root can be rational, periodic (False) and
#: elliptic (True).  For rational axes and ``gamma`` all three 2-torsion
#: points of the curve ``y**2 = (x - a)(x + b)(x - gamma)`` are rational, and
#: on its twist by ``a b gamma`` so is ``P0``, the point over ``x = 0``.  By
#: Mazur's theorem (B. Mazur, Publ. Math. IHES 47, 1977) its torsion is
#: ``Z/2 x Z/2N``, ``N <= 4``, so ``P0`` has order at most 8: ``n`` at an even
#: period, ``2n`` at an odd one and on the elliptic ladders.
_EXACT_PERIODS = {False: {3, 4, 6, 8}, True: {2, 3, 4}}


def _roots(E: BoundaryEllipse, n: int, elliptic: bool, discarded=None, window=None):
    """Yield each landed root of period ``n`` and the wanted kind as ``(gamma, exact, case)``.

    The roots come from :func:`_level_roots` for the ``window``, ascending,
    and each lands (:func:`~pellipse.cayley._landed`) on the one closure
    determinant its tag names (:func:`~pellipse.cayley.closure_ladder`),
    as :func:`~pellipse.cayley._landing_det` builds it:
    ``(closure_ladder(d), d)`` for a periodic root of period ``d``, and
    ``(closure_ladder(n, case), n)`` for an elliptic one, whose ``case`` it
    yields (None for a periodic root).  Every screen comes first.  A root
    is discarded, in this order, at ``u = 0`` (``gamma = inf``, written
    ``"inf"``), with no sign change of that determinant within reach, at a
    degenerate conic value (:func:`_spurious_reason`), or when it closes
    after a proper divisor ``d`` of ``n``, proven by the sign change of the
    period-``d`` closure condition.  Each discard's ``gamma`` and reason are
    appended to ``discarded`` when a list is supplied.  Only a root kept
    gets its exact value, and only at the periods of
    :data:`_EXACT_PERIODS`, the only ones Mazur's bound leaves a rational
    root: ``exact`` is the rational root when the determinant is exactly 0
    at the one candidate :func:`~pellipse.cayley._exact_candidate` names,
    else None; the distance to the nearest degenerate value ``-b, 0, a``,
    which is not 0 for a kept root, bounds the candidate's error.  The
    roots are not simulated: :func:`_results` validates them.
    """
    poles = (-float(E.b), 0.0, float(E.a))
    dets = cayley._landing_det(E)
    rational = n in _EXACT_PERIODS[elliptic]
    for gamma, tag in _level_roots(E, n, elliptic, window):
        ladder, m = (closure_ladder(n, tag), n) if elliptic else (closure_ladder(tag), tag)
        det = dets(ladder, m)
        if math.isinf(gamma):
            gamma, why = "inf", "light-like root at u = 0: gamma = inf is not landed"
        elif (landed := cayley._landed(det, gamma)) is None:
            why = f"no sign change of the closure determinant within {cayley._REACH} float steps"
        else:
            gamma, secant = landed
            period = None if m == n else f"already periodic with period {m}"
            why = _spurious_reason(E, gamma) or period
        if why is None:  # kept: no degenerate value, so its distance to them is > 0
            dist = min(abs(gamma - v) for v in poles)
            cand = cayley._exact_candidate(*secant, dist) if rational else None
            exact = cand if cand and not det(*cand.as_integer_ratio())[0] else None
            yield gamma, exact, tag if elliptic else None
        elif discarded is not None:
            discarded.append({"gamma": gamma, "reason": why})


# ---------------------------------------------------------------------------
# simulated closure and results
# ---------------------------------------------------------------------------


def _sim_closure(E, gamma_f, n, want_sigma=None):
    """Simulate n steps from a tangent of the caustic; classify the closure.

    Returns ``(ok, n1, n2, last)``.  ``want_sigma=None`` demands full
    periodicity; otherwise the trajectory must close onto the
    ``want_sigma`` mirror image.  The starts are the deterministic
    :func:`~pellipse.dynamics.caustic_starts` of ``(E, gamma_f)``, so the
    verdict is a pure function of the caustic.  A simulation can still
    fail (a chord can pass too close to a touch point), so up to 6 starts
    are tried in turn; when the sequence holds no further admissible
    start, the tries end there.  ``last`` is the last failed try, an error
    or the closure it reached instead, and ``None`` when no try failed.
    The starts are floats and :func:`~pellipse.dynamics.simulate` runs on
    the float image of ``E``, so any field of the axes will do.
    """
    if want_sigma is None:
        want = ClosureStatus.periodic(n)
    else:
        want = ClosureStatus.elliptic(n, want_sigma)
    last = None
    starts = caustic_starts(E, gamma_f)
    for _ in range(6):
        try:
            P0, d0 = next(starts)
        except DomainError as exc:  # no admissible tangent left: fail fast
            return False, None, None, exc
        try:
            T = simulate(P0, d0, n, E)
        except PellipseError as exc:
            last = exc
            continue
        status = closure_status(T, n, CLOSURE)
        if status == want:
            arcs = T.arc_classes[:n]
            n1 = arcs.count(ArcClass.RelativisticEllipseArc)
            return True, n1, arcs.count(ArcClass.RelativisticHyperbolaArc), last
        last = f"closure after {n} steps is {status.tag}, not {want.tag}"
    return False, None, None, last


def _results(E, n, candidates) -> list[CausticResult]:
    """The simulated closure of each landed ``(gamma, exact, case)`` candidate.

    Every candidate carries its proof, the sign change of the exact
    closure determinant that landed it, so ``validated`` is the outcome
    of the simulation: a full closure for a periodic candidate (``case``
    None), a closure onto its mirror image under exactly the case symmetry
    for an elliptic one.  Each candidate's starts depend on it alone, so
    the verdicts do not depend on the order or number of candidates.
    """
    results = []
    for gamma_f, exact, case in candidates:
        sigma = None if case is None else case_symmetry(case)
        ok, n1, n2, _ = _sim_closure(E, gamma_f, n, want_sigma=sigma)
        results.append(
            CausticResult(
                gamma=gamma_f,
                conic=classify_conic(gamma_f, E),
                n=n,
                n1=n1,
                n2=n2,
                validated=ok,
                kind="periodic" if case is None else "elliptic",
                case=case,
                sigma=sigma,
                gamma_exact=exact,
            )
        )
    return sorted(results, key=lambda r: r.gamma)


# ---------------------------------------------------------------------------
# the solvers
# ---------------------------------------------------------------------------


def elliptic_caustics(
    E: BoundaryEllipse, n: int, *, discarded: list | None = None
) -> list[CausticResult]:
    """All elliptic ``n``-periodic caustics, any ``n >= 2``, each proven and simulated.

    The caustic with partition ``(n, k)`` is the root of ``rho = k/n`` on
    a range to which :func:`~pellipse.cayley._partition` gives it a case
    letter (:func:`_level_roots`), and it lands on the closure determinant
    of that case's ladder (:func:`~pellipse.cayley.closure_ladder`) alone.  Roots at degenerate
    conic values, roots with no sign change of that determinant within
    reach, and a root at ``u = 0`` are discarded with a reason
    (:func:`_roots`).  ``validated`` requires an
    ``n``-step simulated trajectory to close onto its mirror image under
    exactly the case symmetry.  Sorted by ``gamma``.
    """
    if n < 2:
        raise DomainError(f"elliptic caustics require n >= 2, got n={n}")
    return _results(E, n, _roots(E, n, True, discarded))


def generic_caustic_scan(
    E: BoundaryEllipse, n: int, *, discarded: list | None = None
) -> list[CausticResult]:
    """The ``n``-periodic caustics of any period ``n >= 3``, from the level sets of ``rho``.

    It is also exported as ``periodic_caustics``, one function under both
    names.  The caustic with partition ``(n, k)`` is the root of
    ``rho = k/n`` on a range whose partition rule
    (:func:`~pellipse.cayley._partition`) admits it (:func:`_level_roots`);
    ``rho`` is monotone on each range, so each admitted ``k`` has one root
    there.  Each root lands on the exact periodic closure determinant
    (:func:`~pellipse.cayley.closure_ladder`) of the period it closes
    after.  A root that closes after a proper divisor ``d`` of ``n`` lands
    on the period-``d`` condition, whose sign change proves it, and is
    discarded as already periodic with period ``d``.  The others land on
    the period-``n`` condition, which proves each, and are validated by a
    simulated closure.  A root with no sign change of its determinant
    within reach (a double root, or a light-like caustic near infinity) is
    discarded with a reason, and so are a root at a degenerate conic value
    and a root at ``u = 0`` (:func:`_roots`); the reasons are appended to
    ``discarded`` when a list is supplied.
    Sorted by ``gamma``.
    """
    if n < 3:
        raise DomainError(f"periodic caustics require n >= 3, got n={n}")
    return _results(E, n, _roots(E, n, False, discarded))


periodic_caustics = generic_caustic_scan


# ---------------------------------------------------------------------------
# discriminant identities
# ---------------------------------------------------------------------------


def _sym12(a, b):
    coeffs = [
        84375,
        506250,
        4266243,
        16690590,
        34989622,
        45383698,
        46564971,
        45383698,
        34989622,
        16690590,
        4266243,
        506250,
        84375,
    ]
    return sum(c * a ** (12 - i) * b**i for i, c in enumerate(coeffs))


def _asym26(a, b):
    coeffs = [
        8,
        200,
        2427,
        19048,
        108652,
        479688,
        1703702,
        4993208,
        12286692,
        25688608,
        46007797,
        70961808,
        94556312,
        108998288,
        108671412,
        93545968,
        69297712,
        43955208,
        23703317,
        10761608,
        4059132,
        1248808,
        305302,
        57048,
        7652,
        656,
        27,
    ]
    return sum(c * a ** (26 - i) * b**i for i, c in enumerate(coeffs))


def _identity(ladder: str, n: int, c: int, rhs):
    """``(builder, rhs, generic degree)`` of one closure condition and its discriminant.

    ``builder(a, b)`` is the closure condition of ``ladder`` at period
    ``n`` as a polynomial in ``gamma``, ascending, from
    :func:`~pellipse.cayley.closure_poly_gamma`, scaled to the constant
    term ``c (a b)**g`` for the generic degree ``g`` of
    :func:`~pellipse.cayley.closure_degree`.  Where the determinant has a
    further factor ``u = 1/gamma``, its degree in ``gamma`` drops below ``g``.
    """
    degree = closure_degree(ladder, n)

    def build(a, b) -> list:
        p = closure_poly_gamma(1 / Fraction(a), 1 / Fraction(b), ladder, n)
        return polys.pscale(p, c * (a * b) ** degree / Fraction(p[0]))

    return build, rhs, degree


#: identity name -> (builder, closed-form discriminant, generic degree): the
#: periodic conditions of n = 3..8, named by their degree in ``gamma``, the
#: elliptic quadratics of n = 3 and the elliptic quartics of n = 4.
DISCRIMINANT_IDENTITIES = {
    "G2": _identity("C", 3, 3, lambda a, b: 16 * (a**2 + a * b + b**2) * a**2 * b**2),
    "G3": _identity("B", 4, -1, lambda a, b: 64 * a**8 * b**8 * (a + b) ** 2),
    "G6": _identity(
        "C",
        5,
        5,
        lambda a, b: -5
        * 2**44
        * (
            27 * a**6
            + 81 * a**5 * b
            + 322 * a**4 * b**2
            + 509 * a**3 * b**3
            + 322 * a**2 * b**4
            + 81 * a * b**5
            + 27 * b**6
        )
        * (a + b) ** 8
        * a**38
        * b**38,
    ),
    "G8": _identity(
        "B", 6, 3, lambda a, b: -(2**88) * (a**2 + a * b + b**2) * (a + b) ** 18 * a**74 * b**74
    ),
    "G12": _identity(
        "C", 7, 7, lambda a, b: -(2**184) * 49 * (a + b) ** 40 * (a * b) ** 172 * _sym12(a, b)
    ),
    "G15": _identity(
        "B",
        8,
        -1,
        lambda a, b: -(2**246)
        * (a * b) ** 278
        * (27 * a**2 + 46 * a * b + 27 * b**2)
        * (a + b) ** 20
        * _asym26(a, b)
        * _asym26(b, a),
    ),
    "G1e": _identity("E", 3, 1, lambda a, b: 16 * a**3 * b**2 * (a + b)),
    "G2e": _identity("D", 3, 1, lambda a, b: 16 * a**2 * b**3 * (a + b)),
    "G3e": _identity(
        "D",
        4,
        1,
        lambda a, b: -(2**16) * a**16 * b**14 * (8 * a**2 + 8 * a * b + 27 * b**2) * (a + b) ** 4,
    ),
    "G4e": _identity(
        "E",
        4,
        1,
        lambda a, b: -(2**16) * a**14 * b**16 * (27 * a**2 + 8 * a * b + 8 * b**2) * (a + b) ** 4,
    ),
    "G5e": _identity(
        "C",
        4,
        1,
        lambda a, b: -(2**16) * a**16 * b**16 * (a + b) ** 2 * (27 * a**2 + 46 * a * b + 27 * b**2),
    ),
}


def discriminant_identity_check(identity: str, a, b) -> Fraction:
    """Exact residual of one discriminant identity at rational ``(a, b)``.

    Computes the discriminant of the named condition polynomial in
    ``gamma``, generated from the exact closure determinant by
    :func:`~pellipse.cayley.closure_poly`, by exact resultants and
    subtracts the paper's closed form; the return value is ``0`` precisely
    when the identity holds.  Available names: ``G2 G3 G6 G8 G12 G15``
    (periodic conditions for n = 3..8) and ``G1e``-``G5e`` (elliptic
    conditions: the ``E`` and ``D`` quadratics of n = 3 and the ``D``,
    ``E`` and ``C`` quartics of n = 4).  Pairs where the condition
    polynomial degenerates (its leading coefficient vanishes, e.g.
    ``a = b`` for ``G3`` or ``a = 3b`` for ``G2e``) are outside the
    identity's domain and raise :class:`DomainError`.
    """
    if identity not in DISCRIMINANT_IDENTITIES:
        names = " ".join(sorted(DISCRIMINANT_IDENTITIES))
        raise DomainError(f"unknown identity {identity!r}; available: {names}")
    fa, fb = Fraction(a), Fraction(b)
    if fa <= 0 or fb <= 0:
        raise DomainError(f"squared semi-axes must be positive, got a={a}, b={b}")
    builder, rhs, generic_degree = DISCRIMINANT_IDENTITIES[identity]
    poly = builder(fa, fb)
    if polys.degree(poly) < generic_degree:
        raise DomainError(
            f"identity {identity} degenerates at a={a}, b={b}: the condition "
            f"polynomial drops below its generic degree {generic_degree}"
        )
    return polys.discriminant(poly) - rhs(fa, fb)
