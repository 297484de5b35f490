"""Caustic parameters of periodic and elliptic-periodic trajectories.

Every solver finds its roots in two steps, for every period and both kinds:

1. **locate**: the caustic with partition ``(n, k)`` is the root of
   ``rho = k/n`` for the rotation number ``rho`` of
   :func:`~pellipse.extremal.rotation_ratio`, monotone on each ``gamma``
   range; a safeguarded Anderson-Bjorck secant step
   (:func:`~pellipse.polys.regula_falsi`) finds it in floats, in about
   ten evaluations of ``rho`` a root, and the parity of ``k`` and
   ``n - k`` on its range says whether it is periodic, elliptic-periodic
   or closed after a shorter period;
2. **land**: the exact closure determinant
   (:func:`~pellipse.cayley.closure_det`) at rationals around that float
   moves it onto the correctly rounded closure root.  Its sign change
   across the rounding interval is the proof that a closure root lies
   there; a root with none within reach is discarded.

Candidates also pass the spurious-root filter (degenerate conics,
hyperbolas at odd periods), each discard keeping a reason, and every
landed root is then validated by an actual simulated trajectory that must
close.

The closure conditions of the small periods, polynomials in ``gamma``
with coefficients polynomial in the squared semi-axes ``(a, b)``, are
generated from that same determinant by
:func:`~pellipse.cayley.closure_poly`: their discriminants factor into
strikingly small closed forms in ``(a, b)``, which
:func:`discriminant_identity_check` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from . import polys
from .cayley import (
    _elliptic_candidates,
    _periodic_ladder,
    case_symmetry,
    closure_degree,
    closure_det,
    closure_poly_gamma,
)
from .config import CLOSURE
from .dynamics import ClosureStatus, caustic_starts, closure_status, simulate
from .errors import DomainError, PellipseError
from .extremal import rotation_ratio
from .geometry import ArcClass, BoundaryEllipse, ConicClass, classify_conic, degenerate_value

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


@dataclass(frozen=True)
class CausticResult:
    """One caustic parameter with its validation record.

    ``gamma_exact`` is the exact rational root when one exists (denominator
    up to ``10**9``) and ``None`` when the root is irrational; certificate
    pipelines refine irrational parameters internally from the float value.
    ``n1``/``n2`` count bounces on relativistic-ellipse / -hyperbola arcs
    over one period of the validation trajectory (``None`` if the
    simulation could not be completed).  For elliptic-periodic caustics
    ``case`` is the closure case letter and ``sigma`` the axial symmetry.
    """

    gamma: float
    conic: ConicClass
    n: int
    n1: int | None
    n2: int | None
    validated: bool
    kind: str
    case: str | None = None
    sigma: str | None = None
    gamma_exact: Fraction | None = None

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
    period 4 returns ``[-ab/(a-b), -ab/(a+b), ab/(a+b)]`` exactly
    (:class:`~fractions.Fraction` for rational input), the middle value
    dropping out when ``a = b``.
    """
    if n == 3:
        a, b = float(E.a), float(E.b)
        r = math.sqrt(a * a + a * b + b * b)
        g1 = a * b * (a - b + 2 * r) / (a + b) ** 2
        g2 = -a * b * (b - a + 2 * r) / (a + b) ** 2
        return sorted([g1, g2])
    if n == 4:
        exact = polys.is_exact(E.a, E.b)
        a = Fraction(E.a) if exact else Fraction(float(E.a))
        b = Fraction(E.b) if exact else Fraction(float(E.b))
        vals = [-a * b / (a + b), a * b / (a + b)]
        if a != b:
            vals.append(-a * b / (a - b))
        vals.sort()
        return vals if exact else [float(v) for v in vals]
    raise DomainError(f"closed forms exist for n in {{3, 4}}, got n={n}")


# ---------------------------------------------------------------------------
# the root source: locate on the level sets of rho, land on the exact determinant
# ---------------------------------------------------------------------------

#: Float steps from a located root within which landing looks for the sign
#: change of the exact closure determinant, and the secant steps it takes.
_REACH = 2**20
_STEPS = 6

#: How far beyond ``rho`` at a window's ends :func:`_level_roots` keeps a
#: ``k``: far above the few units in the last place of its rounding.
_SLACK = 1e-12


def _normalized_det(E: BoundaryEllipse, gamma_f: float, n: int) -> int:
    """The sign, -1, 0 or 1, of the exact periodic closure determinant at ``gamma_f``.

    Nothing in the package calls it: the benchmark harness wraps it by name
    (``perfbench/tracing.py``, ``caustics.scan.det_evals``), so it stays
    defined until the harness reads spans instead.  It reads
    :func:`~pellipse.cayley.closure_det`, the one determinant every closure
    verdict decides on, and returns its sign, the one value of it that no
    scale of the block changes.
    """
    ia, ib, u = (1 / Fraction(x) for x in (E.a, E.b, gamma_f))
    num, _ = closure_det(ia, ib, u, _periodic_ladder(n), n)
    return (num > 0) - (num < 0)


def _level_roots(E: BoundaryEllipse, n: int, elliptic: bool, window=None):
    """``(gamma, tag)`` per root of ``rho = k/n`` of the wanted kind, ascending.

    ``rho`` is :func:`~pellipse.extremal.rotation_ratio`, monotone on each
    of the four ``gamma`` ranges; its values at their ends bound the ``k``
    with a root.  The parity rule admits a periodic root on ``(-b, 0)``
    when ``n - k`` is even, on ``(0, a)`` when ``k`` is even, and on a
    hyperbola range when both are (so ``n`` even).  A periodic root's
    ``tag`` is the least proper divisor ``d >= 3`` of ``n`` whose partition
    ``(d, k d / n)`` is integral and admitted as well, else ``n``: the root
    closes after ``d`` steps, and :func:`_periodic_roots` lands it on the
    period-``d`` closure determinant.  A root the rule does not admit is
    elliptic-periodic when ``k`` and ``n`` are coprime (else it closes onto
    its mirror image after a proper divisor of ``n``); its ``tag`` is
    ``k``.  Each root is found by :func:`~pellipse.polys.regula_falsi` in
    ``gamma`` on the finite ranges and in ``u = 1/gamma`` on the unbounded
    ones.

    A finite ``window = (lo, hi)`` of ``gamma`` keeps only the ``k`` whose
    ``k/n`` lies between ``rho`` at the window's ends on some range (within
    ``_SLACK``, beyond the rounding of ``rho``), so every root inside the
    window is found and only a few outside it.  Each kept ``k`` is still
    located on its whole range, so its root is the one found without a
    window.
    """
    a, b = float(E.a), float(E.b)
    # rho at gamma = +-inf, computed once a hyperbola range is searched
    far = cache(partial(rotation_ratio, a, b, math.inf))
    # (ends of the variable, rho at those ends when called, the gamma range,
    # variable -> gamma, parity rule on a partition (m, j)); rho increases
    # with the variable on every range
    both = lambda m, j: j % 2 == (m - j) % 2 == 0  # noqa: E731
    ranges = [
        ((-1 / b, 0.0), lambda: (0.0, far()), (-math.inf, -b), lambda u: 1 / u, both),
        ((-b, 0.0), lambda: (0.0, 1.0), (-b, 0.0), float, lambda m, j: (m - j) % 2 == 0),
        ((0.0, a), lambda: (0.0, 1.0), (0.0, a), float, lambda m, j: j % 2 == 0),
        ((0.0, 1 / a), lambda: (far(), 1.0), (a, math.inf), lambda u: 1 / u, both),
    ]
    roots = []
    for (lo, hi), rho_ends, (g_lo, g_hi), to_gamma, admits in ranges:
        ks = [k for k in range(1, n) if admits(n, k) != elliptic]
        ks = [k for k in ks if not elliptic or math.gcd(k, n) == 1]
        if not ks:  # no k of the wanted kind here: rho is not needed
            continue
        low, high = 0.0, 1.0
        if window is not None:
            w_lo, w_hi = max(window[0], g_lo), min(window[1], g_hi)
            if not w_lo < w_hi:
                continue
            # rho at the window's ends; it jumps from 1 to 0 at gamma = 0
            rho_lo = rotation_ratio(a, b, w_lo) if w_lo else 0.0
            rho_hi = rotation_ratio(a, b, w_hi) if w_hi else 1.0
            low, high = min(rho_lo, rho_hi) - _SLACK, max(rho_lo, rho_hi) + _SLACK
        r_lo, r_hi = rho_ends()
        for k in ks:
            if not (r_lo < k / n < r_hi and low <= k / n <= high):
                continue
            divisors = (d for d in range(3, n) if n % d == 0 and k * d % n == 0)
            tag = k if elliptic else next((d for d in divisors if admits(d, k * d // n)), n)
            f = lambda x: rotation_ratio(a, b, to_gamma(x)) - k / n  # noqa: E731
            x = polys.regula_falsi(f, lo, hi, r_lo - k / n, r_hi - k / n)
            gamma = to_gamma(x) if x else math.inf
            if math.isfinite(gamma):  # else it is the light-like caustic at infinity
                roots.append((gamma, tag))
    return sorted(roots)


def _midpoint_above(x: float) -> tuple[int, int]:
    """``(num, den)`` in lowest terms of the midpoint from the float ``x`` to the next one up.

    The two floats are adjacent multiples of their gap ``g``; below
    ``g = 1`` one of them has the denominator ``1/g``, and the midpoint
    ``(2X + 1) g / 2`` is in lowest terms.
    """
    p, q = x.as_integer_ratio()
    r, s = math.nextafter(x, math.inf).as_integer_ratio()
    d = max(q, s)
    num = p * (d // q) + r * (d // s)
    return (num, 2 * d) if num % 2 else (num // 2, d)


def _landed(det, gamma: float, poles):
    """``(gamma, exact)`` for the exact closure root near the float ``gamma``, or None.

    ``det(p, q)`` is the exact closure determinant at the rational
    ``p/q``, as the ``(num, den)`` pair of
    :func:`~pellipse.cayley.closure_det`.  The ends of the rounding
    interval of a float are the exact midpoints to its neighbours, built
    by :func:`_midpoint_above`; when the determinant changes sign between
    them, the float is the correctly rounded root, and that sign change is
    the proof.  Otherwise the secant through the two ends, linear to high
    order at this scale, gives the next float to try.  None means no sign
    change after ``_STEPS`` steps, or a step beyond ``_REACH`` float steps.

    ``exact`` is the rational root when the determinant is exactly 0 at
    the one candidate :func:`_exact_candidate` names, else None; ``poles``
    are the degenerate values ``-b, 0, a``, whose distance bounds the
    candidate's error.
    """
    # the midpoint between the float x and the next one up, and det there
    above = cache(lambda x: (m := _midpoint_above(x), det(*m)))
    start = gamma
    for _ in range(_STEPS):
        if not math.isfinite(gamma) or abs(gamma - start) > _REACH * math.ulp(start):
            return None
        below, up = math.nextafter(gamma, -math.inf), math.nextafter(gamma, math.inf)
        (lo, (p_lo, q_lo)), (hi, (p_hi, q_hi)) = above(below), above(gamma)
        # the secant root lies num/den interval widths below the upper end
        num, den = p_hi * q_lo, p_hi * q_lo - p_lo * q_hi
        if (p_lo < 0) != (p_hi < 0) or not p_lo or not p_hi:  # a sign change
            break
        if abs(den) * _REACH < abs(num):
            return None
        gamma += (up - gamma) / 2 - num / den * (up - below) / 2
    else:
        return None
    dist = min(abs(gamma - v) for v in poles)
    cand = _exact_candidate(lo, hi, num, den, dist) if dist else None
    return gamma, cand if cand and det(cand.numerator, cand.denominator)[0] == 0 else None


def _exact_candidate(lo, hi, num: int, den: int, dist: float) -> Fraction | None:
    """The one rational that may be the closure root in a rounding interval, or None.

    ``lo`` and ``hi`` are the interval's ends as ``(num, den)`` pairs, the
    secant through the determinant ``f`` there lies ``num/den`` of the
    width ``w`` below ``hi``, and ``dist`` is the distance from the root
    to the nearest degenerate value.  The secant misses the root by about
    ``w**2 |f''/f'| / 8``, and ``|f''/f'|`` was measured below
    ``136/dist`` for periods up to 12, so ``eps = 2**12 w**2 / dist``
    bounds that with room to spare: about twice the float's digits.  The
    candidate is the fraction ``p/q`` nearest the secant with
    ``q <= N = min(10**9, (2**10 eps) ** -1/2)``, kept when it lies within
    ``eps`` of it.  Two such fractions lie ``1/N**2 >= 2**10 eps`` apart
    or more, so a rational root with such a denominator is the candidate,
    and an irrational root meets one only about once in ``2**9`` roots.
    None when there is none, or it lies outside the interval, or at 0,
    which is never a root.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    d = max(lo_d, hi_d)
    lo_n, hi_n = lo_n * (d // lo_d), hi_n * (d // hi_d)
    # the secant over d * 2**64, to 64 bits of the width: far below eps
    secant = Fraction((hi_n << 64) - (hi_n - lo_n) * ((num << 64) // den if den else 0), d << 64)
    w = (hi_n - lo_n) / d
    eps = 2**12 * w * w / dist
    bound = min(10**9, int((2**10 * eps) ** -0.5)) if eps else 10**9
    if not bound:  # far roots: no denominator is small enough
        return None
    cand = secant.limit_denominator(bound)
    near = abs(cand - secant) <= min(eps, w)
    return cand if cand and near and Fraction(lo_n, d) <= cand <= Fraction(hi_n, d) else None


def _land(E: BoundaryEllipse, candidates, ladders, discarded):
    """Yield each ``(gamma, tag)`` candidate landed, as ``(gamma, exact, label)``.

    ``ladders(gamma, tag)`` lists the ``(label, ladder, period)`` triples
    whose closure determinant may vanish at the root, in the order to try
    them; the first that :func:`_landed` confirms gives the label.  A
    candidate that none confirms is discarded with a reason.
    """
    ia, ib = 1 / Fraction(E.a), 1 / Fraction(E.b)
    poles = (-float(E.b), 0.0, float(E.a))
    for gamma, tag in candidates:
        for label, ladder, m in ladders(gamma, tag):
            det = lambda p, q: closure_det(ia, ib, Fraction(q, p), ladder, m)  # noqa: E731
            landed = _landed(det, gamma, poles)
            if landed is not None:
                yield (*landed, label)
                break
        else:
            reason = f"no sign change of the closure determinant within {_REACH} float steps"
            _record_discard(discarded, gamma, reason)


# ---------------------------------------------------------------------------
# candidate filters
# ---------------------------------------------------------------------------


def _record_discard(discarded, gamma_f: float, reason: str) -> None:
    if discarded is not None:
        discarded.append({"gamma": gamma_f, "reason": reason})


def _screen(candidates, reason, discarded):
    """Yield the candidates ``reason`` passes (None); record why the others fail."""
    for cand in candidates:
        why = reason(cand[0])
        if why is None:
            yield cand
        else:
            _record_discard(discarded, cand[0], why)


def _spurious_reason(E: BoundaryEllipse, n: int, gamma_f: float) -> str | None:
    """The spurious-root filter; ``n = 0`` skips the odd-period rule."""
    hit = degenerate_value(gamma_f, E)
    if hit is not None:
        return f"degenerate conic (gamma = {hit[0]})"
    if n % 2 == 1 and not (-float(E.b) < gamma_f < float(E.a)):
        return "odd period requires an ellipse caustic"
    return None


def _of_period(n: int, candidates, discarded):
    """Yield the periodic candidates that close after ``n`` steps; discard the rest."""
    for gamma_f, exact, d in candidates:
        if d == n:
            yield gamma_f, exact, None
        else:
            _record_discard(discarded, gamma_f, f"already periodic with period {d}")


def _periodic_roots(E: BoundaryEllipse, n: int, discarded: list | None = None, window=None):
    """Yield the landed ``(gamma, exact, None)`` candidates of period ``n``, ascending.

    They pass the spurious-root filter and close after ``n`` steps, found
    without a simulation; :func:`generic_caustic_scan` validates them.
    Each root lands on the closure determinant of the period ``d`` it is
    tagged with, ``n`` or the least proper divisor it closes after, whose
    Hankel block is the smaller; a root of period ``d < n`` is then
    discarded on that determinant's sign change.  A ``window`` of
    ``gamma`` locates and lands only the roots that :func:`_level_roots`
    keeps for it.
    """
    located = _level_roots(E, n, False, window)
    roots = _land(E, located, lambda gamma, d: [(d, _periodic_ladder(d), d)], discarded)
    roots = _screen(roots, partial(_spurious_reason, E, n), discarded)
    return _of_period(n, roots, discarded)


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
# the three solvers
# ---------------------------------------------------------------------------


def periodic_caustics(
    E: BoundaryEllipse, n: int, *, discarded: list | None = None
) -> list[CausticResult]:
    """All new ``n``-periodic caustics, any ``n >= 3``, each proven and simulated.

    The caustics of :func:`generic_caustic_scan`, which serves every
    period: roots that close after a proper divisor of ``n`` are discarded
    as already periodic, with the other spurious roots (degenerate conic
    values; hyperbola parameters at odd periods), with reasons appended to
    ``discarded`` when a list is supplied.  Sorted by ``gamma``.
    """
    return generic_caustic_scan(E, n, discarded=discarded)


def elliptic_caustics(
    E: BoundaryEllipse, n: int, *, discarded: list | None = None
) -> list[CausticResult]:
    """All elliptic ``n``-periodic caustics, any ``n >= 2``, each proven and simulated.

    The caustic with partition ``(n, k)`` is the root of ``rho = k/n`` on
    a range whose parity rule does not admit ``k``, for ``k`` coprime to
    ``n`` (:func:`_level_roots`).  Its case is the one of
    :func:`~pellipse.cayley._elliptic_candidates` whose ladder's closure
    determinant changes sign at the root, for the odd-period hyperbola
    tried ``E`` first for odd ``k`` and ``D`` first for even ``k``.  Roots
    at degenerate conic values, and roots no ladder lands, are discarded
    with a reason.  ``validated`` requires an ``n``-step simulated
    trajectory to close onto its mirror image under exactly the case
    symmetry.  Sorted by ``gamma``.
    """
    if n < 2:
        raise DomainError(f"elliptic caustics require n >= 2, got n={n}")

    def ladders(gamma, k):
        order = "E" if k % 2 else "D"
        cases = sorted(_elliptic_candidates(E, gamma, n), key=lambda c: c[1] != order)
        return [(case, ladder, n) for case, ladder in cases]

    roots = _land(E, _level_roots(E, n, True), ladders, discarded)
    return _results(E, n, _screen(roots, partial(_spurious_reason, E, 0), discarded))


def generic_caustic_scan(
    E: BoundaryEllipse, n: int, *, discarded: list | None = None
) -> list[CausticResult]:
    """The ``n``-periodic caustics of any period ``n >= 3``, from the level sets of ``rho``.

    The caustic with partition ``(n, k)`` is the root of ``rho = k/n`` on
    a ``gamma`` range whose parity rule admits ``k`` (:func:`_level_roots`);
    ``rho`` is monotone on each range, so each admitted ``k`` has one root
    there.  Each root lands on the exact periodic closure determinant
    (``C`` ladder for odd periods, ``B`` for even) of the period it closes
    after.  A root that closes after a proper divisor ``d`` of ``n`` lands
    on the small period-``d`` block, whose sign change proves it, and is
    discarded as already periodic with period ``d``.  The others land on
    the period-``n`` block, which proves each, and are validated by a
    simulated closure.  A root with no sign change of its determinant
    within reach (a double root, or a light-like caustic near infinity) is
    discarded with a reason.
    """
    if n < 3:
        raise DomainError(f"periodic caustics require n >= 3, got n={n}")
    return _results(E, n, _periodic_roots(E, n, discarded))


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
