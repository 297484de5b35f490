"""Caustic parameters of periodic and elliptic-periodic trajectories.

For each small period the closure condition on the caustic parameter
``gamma`` reduces to a polynomial with coefficients polynomial in the
squared semi-axes ``(a, b)``.  This module carries those polynomials in
exact rational arithmetic (periodic ``n = 3..8``, elliptic ``n = 2..5``).
All solvers share one path from root to result:

1. a root source yields candidates: the exact real roots of a table
   (Sturm isolation) or, for other periods, the roots of ``rho = k/n``
   for the rotation number ``rho`` of
   :func:`~pellipse.extremal.rotation_ratio`;
2. every candidate passes the spurious-root filter (degenerate conics,
   parity violations) and its source's filter: table roots are
   deduplicated, level-set roots of a divisor period are dropped,
   elliptic roots get a case letter; discards keep a reason;
3. each survivor is cross-validated twice, by the Hankel-determinant (or
   case) test and by an actual simulated trajectory that must close.

The discriminants of the condition polynomials factor into strikingly
small closed forms in ``(a, b)``; :func:`discriminant_identity_check`
verifies those identities exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import polys
from .cayley import (
    _closure_blocks,
    _elliptic_candidates,
    _periodic_ladder,
    case_symmetry,
    elliptic_case_test,
    is_periodic,
)
from .config import CLOSURE, DEGENERATE
from .dynamics import ClosureStatus, closure_status, simulate, start_on_caustic
from .errors import DomainError, PellipseError
from .extremal import rotation_ratio
from .geometry import ArcClass, BoundaryEllipse, ConicClass, classify_conic

__all__ = [
    "CausticResult",
    "closed_form_caustics",
    "periodic_caustics",
    "table_roots",
    "elliptic_caustics",
    "generic_caustic_scan",
    "discriminant_identity_check",
    "DISCRIMINANT_IDENTITIES",
]


# ---------------------------------------------------------------------------
# condition polynomials (ascending coefficients in gamma)
# ---------------------------------------------------------------------------


def _p3(a, b):
    """3-periodic condition (quadratic)."""
    return [3 * a**2 * b**2, 2 * a * b * (a - b), -((a + b) ** 2)]


def _p4(a, b):
    """4-periodic condition: ``-(ab + (a+b)g)(ab + (a-b)g)(ab - (a+b)g)``."""
    prod = polys.pmul(
        polys.pmul([a * b, a + b], [a * b, a - b]), [a * b, -(a + b)]
    )
    return polys.pneg(prod)


def _p5(a, b):
    """5-periodic condition (sextic)."""
    return [
        5 * a**6 * b**6,
        10 * a**5 * b**5 * (a - b),
        -(a**4) * b**4 * (9 * a**2 + 34 * a * b + 9 * b**2),
        -36 * a**3 * b**3 * (a - b) * (a + b) ** 2,
        -(a**2) * b**2 * (29 * a**2 - 54 * a * b + 29 * b**2) * (a + b) ** 2,
        -2 * a * b * (a - b) * (a - 3 * b) * (3 * a - b) * (a + b) ** 2,
        (a + b) ** 6,
    ]


def _e2_quad(a, b):
    """Odd E-ladder quadratic: elliptic cases a/d at n = 3, new factor at n = 6."""
    return [a**2 * b**2, -2 * a * b * (a + b), -(a + b) * (3 * a - b)]


def _d2_quad(a, b):
    """Odd D-ladder quadratic: elliptic cases b/e at n = 3, new factor at n = 6."""
    return [a**2 * b**2, 2 * a * b * (a + b), (a + b) * (a - 3 * b)]


def _f3_quad(a, b):
    """The complex-conjugate factor of the 6-periodic condition (no real roots)."""
    return [a**2 * b**2, 2 * a * b * (a - b), (a + b) ** 2]


def _p6_full(a, b):
    """Full 6-periodic condition: 3-periodic factor times the three quadratics."""
    out = _p3(a, b)
    for f in (_d2_quad(a, b), _f3_quad(a, b), _e2_quad(a, b)):
        out = polys.pmul(out, f)
    return out


def _p7(a, b):
    """7-periodic condition (degree 12)."""
    return [
        7 * a**12 * b**12,
        28 * a**11 * b**11 * (a - b),
        -14 * a**10 * b**10 * (3 * a**2 + 14 * a * b + 3 * b**2),
        -4 * a**9 * b**9 * (a - b) * (121 * a**2 + 250 * a * b + 121 * b**2),
        -3 * a**8 * b**8 * (437 * a**2 - 726 * a * b + 437 * b**2) * (a + b) ** 2,
        -24 * a**7 * b**7 * (a - b) * (75 * a**2 - 106 * a * b + 75 * b**2) * (a + b) ** 2,
        -12
        * a**6
        * b**6
        * (105 * a**4 - 420 * a**3 * b + 422 * a**2 * b**2 - 420 * a * b**3 + 105 * b**4)
        * (a + b) ** 2,
        -8
        * a**5
        * b**5
        * (a - b)
        * (21 * a**4 - 420 * a**3 * b - 50 * a**2 * b**2 - 420 * a * b**3 + 21 * b**4)
        * (a + b) ** 2,
        a**4
        * b**4
        * (7 * a**2 + 30 * a * b + 7 * b**2)
        * (63 * a**4 - 84 * a**3 * b - 38 * a**2 * b**2 - 84 * a * b**3 + 63 * b**4)
        * (a + b) ** 2,
        28 * a**3 * b**3 * (a - b) * (13 * a**2 - 38 * a * b + 13 * b**2) * (a + b) ** 6,
        2
        * a**2
        * b**2
        * (59 * a**4 - 332 * a**3 * b + 626 * a**2 * b**2 - 332 * a * b**3 + 59 * b**4)
        * (a + b) ** 6,
        4 * a * b * (a - b) * (a - 3 * b) * (3 * a - b) * (a**2 - 6 * a * b + b**2) * (a + b) ** 6,
        -((a + b) ** 12),
    ]


def _q1(a, b):
    """Even D-ladder quartic: elliptic case a at n = 4, new factor at n = 8."""
    return [
        a**4 * b**4,
        -4 * a**3 * b**3 * (a + b),
        -2 * a**2 * b**2 * (a + b) * (5 * a - 3 * b),
        -4 * a * b * (a + b) * (a - b) ** 2,
        (a + b) ** 4,
    ]


def _q2(a, b):
    """Even E-ladder quartic: elliptic case b at n = 4, new factor at n = 8."""
    return [
        a**4 * b**4,
        4 * a**3 * b**3 * (a + b),
        2 * a**2 * b**2 * (a + b) * (3 * a - 5 * b),
        4 * a * b * (a + b) * (a - b) ** 2,
        (a + b) ** 4,
    ]


def _q3(a, b):
    """Even C-ladder quartic: elliptic case c at n = 4, new factor at n = 8."""
    return [
        a**4 * b**4,
        4 * a**3 * b**3 * (a - b),
        2 * a**2 * b**2 * (3 * a**2 + 2 * a * b + 3 * b**2),
        4 * a * b * (a - b) * (a + b) ** 2,
        (a**2 - 6 * a * b + b**2) * (a + b) ** 2,
    ]


def _p8_full(a, b):
    """Full 8-periodic condition: 4-periodic factor times the three quartics."""
    out = _p4(a, b)
    for f in (_q1(a, b), _q2(a, b), _q3(a, b)):
        out = polys.pmul(out, f)
    return out


def _e5_sextic(a, b):
    """Odd E-ladder sextic: elliptic cases a/d at n = 5."""
    return [
        a**6 * b**6,
        -6 * a**5 * b**5 * (a + b),
        -(a**4) * b**4 * (a + b) * (29 * a - 15 * b),
        -4 * a**3 * b**3 * (a + b) * (9 * a**2 - 10 * a * b + 5 * b**2),
        -(a**2) * b**2 * (a + b) * (9 * a**3 - 45 * a**2 * b - 5 * a * b**2 - 15 * b**3),
        2 * a * b * (5 * a - 3 * b) * (a + b) ** 4,
        (5 * a**2 - 10 * a * b + b**2) * (a + b) ** 4,
    ]


def _d5_sextic(a, b):
    """Odd D-ladder sextic: elliptic cases b/e at n = 5."""
    return [
        a**6 * b**6,
        6 * a**5 * b**5 * (a + b),
        a**4 * b**4 * (a + b) * (15 * a - 29 * b),
        4 * a**3 * b**3 * (a + b) * (5 * a**2 - 10 * a * b + 9 * b**2),
        a**2 * b**2 * (a + b) * (15 * a**3 + 5 * a**2 * b + 45 * a * b**2 - 9 * b**3),
        2 * a * b * (3 * a - 5 * b) * (a + b) ** 4,
        (a**2 - 10 * a * b + 5 * b**2) * (a + b) ** 4,
    ]


def _lin_d(a, b):
    """n = 2, case a: ``gamma = ab/(a+b)``."""
    return [-a * b, a + b]


def _lin_e(a, b):
    """n = 2, case b: ``gamma = -ab/(a+b)``."""
    return [a * b, a + b]


def _lin_c(a, b):
    """n = 2, case c: ``gamma = ab/(b-a)``; drops out when ``a = b``."""
    return [-a * b, b - a]


#: Factors carrying the *new* caustics of each period (retraced shorter
#: periods and factors without real roots are excluded).
_PERIODIC_NEW = {
    3: (_p3,),
    4: (_p4,),
    5: (_p5,),
    6: (_d2_quad, _e2_quad),
    7: (_p7,),
    8: (_q1, _q2, _q3),
}

#: Elliptic closure factors per period: (ladder, builder).
_ELLIPTIC_POLYS = {
    2: (("D", _lin_d), ("E", _lin_e), ("C", _lin_c)),
    3: (("E", _e2_quad), ("D", _d2_quad)),
    4: (("D", _q1), ("E", _q2), ("C", _q3)),
    5: (("E", _e5_sextic), ("D", _d5_sextic)),
}


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
# root sources: the tables and the level sets of the rotation number
# ---------------------------------------------------------------------------

def _table_roots(E: BoundaryEllipse, factors):
    """Yield ``(gamma, exact or None, ladder)`` per real root of ``(ladder, builder)`` factors."""
    a, b = Fraction(E.a), Fraction(E.b)
    for ladder, builder in factors:
        coeffs = polys.trim(builder(a, b))
        if polys.degree(coeffs) >= 1:
            for root in polys.real_roots(coeffs):
                yield float(root), polys.rationalize_root(coeffs, root), ladder


def _normalized_det(E: BoundaryEllipse, gamma_f: float, n: int) -> float:
    """The periodic closure determinant at ``gamma_f`` over its row scale.

    Nothing in the package calls it: the benchmark harness wraps it by name
    (``perfbench/tracing.py``, ``caustics.scan.det_evals``), so it stays
    defined until the harness reads spans instead.
    """
    ((value, scale),) = _closure_blocks(E, gamma_f, n, [_periodic_ladder(n)])
    return float(value) / scale if scale > 0 else float(value)


def _level_roots(E: BoundaryEllipse, n: int):
    """Yield ``(gamma, None, d)`` per root of ``rho = k/n`` the parity rule admits.

    ``rho`` is :func:`~pellipse.extremal.rotation_ratio`, monotone on each
    of the four ``gamma`` ranges; its values at their ends bound the ``k``
    with a root.  A root on ``(-b, 0)`` needs ``n - k`` even, one on
    ``(0, a)`` needs ``k`` even, and one on a hyperbola range needs both
    (so ``n`` even).  ``d`` is the least proper divisor ``d >= 3`` of ``n``
    whose partition ``(d, k d / n)`` is integral and admitted as well,
    else ``n``: the root closes after ``d`` steps.  Each root is bisected to
    adjacent floats in ``gamma`` on the finite ranges and in ``u = 1/gamma``
    on the unbounded ones, and reported as it is.  Roots come in ascending
    ``gamma``.
    """
    a, b = float(E.a), float(E.b)
    far = rotation_ratio(a, b, math.inf)
    # (ends of the variable, rho at those ends, variable -> gamma, parity rule
    # on a partition (m, j)); rho increases with the variable on every range
    ranges = [
        ((-1 / b, 0.0), (0.0, far), lambda u: 1 / u, lambda m, j: j % 2 == (m - j) % 2 == 0),
        ((-b, 0.0), (0.0, 1.0), float, lambda m, j: (m - j) % 2 == 0),
        ((0.0, a), (0.0, 1.0), float, lambda m, j: j % 2 == 0),
        ((0.0, 1 / a), (far, 1.0), lambda u: 1 / u, lambda m, j: j % 2 == (m - j) % 2 == 0),
    ]
    roots = []
    for (lo, hi), (r_lo, r_hi), to_gamma, admits in ranges:
        for k in range(1, n):
            if not (r_lo < k / n < r_hi and admits(n, k)):
                continue
            divisors = (d for d in range(3, n) if n % d == 0 and k * d % n == 0)
            d = next((d for d in divisors if admits(d, k * d // n)), n)
            x = polys.bisect_float(
                lambda x: rotation_ratio(a, b, to_gamma(x)) - k / n, lo, hi, r_lo - k / n
            )
            roots.append((to_gamma(x), None, d))
    yield from sorted(roots)


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
    a, b = float(E.a), float(E.b)
    if abs(gamma_f) <= DEGENERATE:
        return "degenerate conic (gamma = 0)"
    if abs(gamma_f - a) <= DEGENERATE * (1 + a):
        return "degenerate conic (gamma = a)"
    if abs(gamma_f + b) <= DEGENERATE * (1 + b):
        return "degenerate conic (gamma = -b)"
    if n % 2 == 1 and not (-b < gamma_f < a):
        return "odd period requires an ellipse caustic"
    return None


def _distinct(candidates, rel: float):
    """Candidates farther than ``rel`` (relative) from every earlier one."""
    seen: list[float] = []
    for cand in candidates:
        if not any(abs(cand[0] - s) <= rel * max(1.0, abs(s)) for s in seen):
            seen.append(cand[0])
            yield cand


def _of_period(n: int, candidates, discarded):
    """Yield the level-set candidates that close after ``n`` steps; discard the rest."""
    for gamma_f, exact, d in candidates:
        if d == n:
            yield gamma_f, exact, None
        else:
            _record_discard(discarded, gamma_f, f"already periodic with period {d}")


def _with_case(E: BoundaryEllipse, n: int, candidates, discarded):
    """Yield elliptic candidates with the case their ladder admits; discard the rest."""
    for gamma_f, exact, ladder in candidates:
        case = next(
            (c for c, lad in _elliptic_candidates(E, gamma_f, n) if lad == ladder), None
        )
        if case is None:
            reason = f"no elliptic case for a {ladder}-ladder root of this conic class"
            _record_discard(discarded, gamma_f, reason)
        else:
            yield gamma_f, exact, case


# ---------------------------------------------------------------------------
# verdict and simulated closure
# ---------------------------------------------------------------------------


def _sim_closure(E, gamma_f, n, rng, want_sigma=None):
    """Simulate n steps from a random caustic tangent; classify the closure.

    Returns ``(ok, n1, n2, last)``.  ``want_sigma=None`` demands full
    periodicity; otherwise the trajectory must close onto the
    ``want_sigma`` mirror image.  Up to 6 tries start on fresh random
    tangents of the caustic (a start can land too close to a touch point);
    ``last`` is the last failed try, an error or the closure it reached
    instead, and ``None`` when no try failed.  The starts are floats and
    :func:`~pellipse.dynamics.simulate` runs on the float image of ``E``,
    so any field of the axes will do.
    """
    if want_sigma is None:
        want = ClosureStatus.periodic(n)
    else:
        want = ClosureStatus.elliptic(n, want_sigma)
    last = None
    for _ in range(6):
        try:
            P0, d0 = start_on_caustic(E, gamma_f, rng)
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


def _results(E, n, candidates, rng) -> list[CausticResult]:
    """Verdict and simulated closure of each ``(gamma, exact, case)`` candidate.

    A periodic candidate (``case`` None) needs the Hankel test at period
    ``n`` and a full closure; an elliptic one needs
    :func:`~pellipse.cayley.elliptic_case_test` to confirm its case and a
    closure onto its mirror image under exactly the case symmetry.
    """
    rng = random.Random(0) if rng is None else rng
    results = []
    for gamma_f, exact, case in candidates:
        if case is None:
            verdict, sigma = is_periodic(E, gamma_f, n).periodic, None
        else:
            sigma = case_symmetry(case)
            verdict = elliptic_case_test(E, gamma_f, n).case == case
        ok, n1, n2, _ = _sim_closure(E, gamma_f, n, rng, want_sigma=sigma)
        results.append(
            CausticResult(
                gamma=gamma_f,
                conic=classify_conic(gamma_f, E),
                n=n,
                n1=n1,
                n2=n2,
                validated=bool(verdict and ok),
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
    E: BoundaryEllipse,
    n: int,
    rng: random.Random | None = None,
    discarded: list | None = None,
) -> list[CausticResult]:
    """All new ``n``-periodic caustics, any ``n >= 3``, doubly validated.

    For ``3 <= n <= 8`` the roots of the period-``n`` condition
    polynomials are isolated exactly; other periods go to
    :func:`generic_caustic_scan`.  Spurious roots (degenerate conic
    values; hyperbola parameters at odd periods) are dropped, with
    reasons appended to ``discarded`` when a list is supplied.  Every
    returned caustic carries the outcome of the Hankel test *and* of an
    ``n``-step simulated closure (tolerance ``CLOSURE``) in ``validated``;
    results are sorted by ``gamma``.  Factors already accounting for
    shorter periods (the 3-periodic factor inside the period-6 condition,
    the 4-periodic one inside period 8) are excluded, as is the period-6
    factor without real roots.
    """
    if n not in _PERIODIC_NEW:
        return generic_caustic_scan(E, n, rng=rng, discarded=discarded)
    return _results(E, n, table_roots(E, n, discarded), rng)


def table_roots(E: BoundaryEllipse, n: int, discarded: list | None = None):
    """Yield the ``(gamma, exact, None)`` candidates :func:`periodic_caustics` validates.

    They are the period-``n`` table roots that pass the spurious-root
    filter, deduplicated, in table order, found without a Hankel test or
    a simulation; there are none when ``n`` has no table.
    """
    roots = _table_roots(E, [(None, builder) for builder in _PERIODIC_NEW.get(n, ())])
    roots = _screen(roots, partial(_spurious_reason, E, n), discarded)
    return _distinct(roots, 1e-9)


def elliptic_caustics(
    E: BoundaryEllipse,
    n: int,
    rng: random.Random | None = None,
    discarded: list | None = None,
) -> list[CausticResult]:
    """All elliptic ``n``-periodic caustics, 2 <= n <= 5, doubly validated.

    Roots of the mirror-closure factor polynomials are assigned a case
    letter from the ladder, the parity of ``n`` and the conic class of the
    root (roots admitting no case are discarded with a reason).  Validation
    requires :func:`~pellipse.cayley.elliptic_case_test` to confirm the
    case *and* an ``n``-step simulated trajectory to close onto its mirror
    image under exactly the case symmetry.  Sorted by ``gamma``.
    """
    if n not in _ELLIPTIC_POLYS:
        raise DomainError(f"elliptic closure polynomials cover n in 2..5, got n={n}")
    roots = _table_roots(E, _ELLIPTIC_POLYS[n])
    roots = _screen(roots, partial(_spurious_reason, E, 0), discarded)
    return _results(E, n, _with_case(E, n, roots, discarded), rng)


def generic_caustic_scan(
    E: BoundaryEllipse,
    n: int,
    rng: random.Random | None = None,
    discarded: list | None = None,
) -> list[CausticResult]:
    """The ``n``-periodic caustics of any period, from the level sets of the rotation number.

    The root source for periods outside the polynomial tables: the caustic
    with partition ``(n, k)`` is the root of ``rho = k/n`` on a ``gamma``
    range whose parity rule admits ``k`` (:func:`_level_roots`).  ``rho``
    is monotone on each range, so each admitted ``k`` has one root there,
    double roots of the closure determinant included.  Roots that close
    after a proper divisor ``d`` of ``n`` are discarded as already
    periodic with period ``d``.  Survivors are validated like
    :func:`periodic_caustics`.
    """
    if n < 3:
        raise DomainError(f"periodic caustics require n >= 3, got n={n}")
    roots = _screen(_level_roots(E, n), partial(_spurious_reason, E, n), discarded)
    return _results(E, n, _of_period(n, roots, discarded), rng)


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


#: identity name -> (builder, closed-form discriminant, generic degree).
DISCRIMINANT_IDENTITIES = {
    "G2": (_p3, lambda a, b: 16 * (a**2 + a * b + b**2) * a**2 * b**2, 2),
    "G3": (_p4, lambda a, b: 64 * a**8 * b**8 * (a + b) ** 2, 3),
    "G6": (
        _p5,
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
        6,
    ),
    "G8": (
        _p6_full,
        lambda a, b: -(2**88) * (a**2 + a * b + b**2) * (a + b) ** 18 * a**74 * b**74,
        8,
    ),
    "G12": (
        _p7,
        lambda a, b: -(2**184) * 49 * (a + b) ** 40 * (a * b) ** 172 * _sym12(a, b),
        12,
    ),
    "G15": (
        _p8_full,
        lambda a, b: -(2**246)
        * (a * b) ** 278
        * (27 * a**2 + 46 * a * b + 27 * b**2)
        * (a + b) ** 20
        * _asym26(a, b)
        * _asym26(b, a),
        15,
    ),
    "G1e": (_e2_quad, lambda a, b: 16 * a**3 * b**2 * (a + b), 2),
    "G2e": (_d2_quad, lambda a, b: 16 * a**2 * b**3 * (a + b), 2),
    "G3e": (
        _q1,
        lambda a, b: -(2**16) * a**16 * b**14 * (8 * a**2 + 8 * a * b + 27 * b**2) * (a + b) ** 4,
        4,
    ),
    "G4e": (
        _q2,
        lambda a, b: -(2**16) * a**14 * b**16 * (27 * a**2 + 8 * a * b + 8 * b**2) * (a + b) ** 4,
        4,
    ),
    "G5e": (
        _q3,
        lambda a, b: -(2**16) * a**16 * b**16 * (a + b) ** 2 * (27 * a**2 + 46 * a * b + 27 * b**2),
        4,
    ),
}


def discriminant_identity_check(identity: str, a, b) -> Fraction:
    """Exact residual of one discriminant identity at rational ``(a, b)``.

    Computes the discriminant of the named condition polynomial by exact
    resultants and subtracts the closed form; the return value is ``0``
    precisely when the identity holds.  Available names:
    ``G2 G3 G6 G8 G12 G15`` (periodic conditions for n = 3..8) and
    ``G1e``-``G5e`` (elliptic factors: the two odd quadratics and the
    three even quartics).  Pairs where the condition polynomial degenerates
    (its leading coefficient vanishes, e.g. ``a = b`` for ``G3`` or
    ``a = 3b`` for ``G2e``) are outside the identity's domain and raise
    :class:`DomainError`.
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
