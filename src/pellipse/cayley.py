"""Cayley-type closure conditions via Taylor series and Hankel determinants.

For the boundary ellipse ``x**2/a + y**2/b = 1`` and a caustic parameter
``gamma`` the key object is the square root

    B(x) = sqrt(eps * (a - x) * (b + x) * (gamma - x)),   eps = sign(gamma),

expanded at ``x = 0``.  Internally all recurrences run on the *scaled*
series ``Bhat = B / B0`` with ``B0 = sqrt(|a b gamma|)``, whose
coefficients are rational in ``(a, b, gamma)``; true coefficients differ
by the common factor ``B0``, so Hankel determinant zero tests are
unaffected.  Dividing by ``gamma - x``, ``a - x`` or ``b + x`` yields the
ladders ``C``, ``D`` and ``E`` used by the closure conditions:

* ``n``-periodicity: a Hankel determinant of ``C`` (odd ``n``) or ``B``
  (even ``n``) vanishes;
* elliptic ``n``-periodicity (closure onto a mirror image): a Hankel
  determinant of ``D``, ``E`` or ``C`` vanishes, the ladder depending on
  the parity, the sign of ``gamma`` and the conic type of the caustic.

:func:`closure_ladder` is the one rule that names the ladder of a period
and a case.

The series run in the common field of ``(a, b, gamma)``
(:func:`pellipse.polys.to_field`): exact rational arithmetic for
``int``/``Fraction`` inputs, 50 significant digits when any input is a
``decimal.Decimal``, ``float`` otherwise.  :func:`closure_det` evaluates
the same determinants exactly, in integers, in ``u = 1/gamma``, and it is
the one source of every closure verdict.  An int or ``Fraction``
``gamma`` is a root when the determinant is 0 there.  Any other root is
proven one way, by :func:`_landed`: from a float, it walks to the float
whose rounding interval the determinant changes sign across, the
correctly rounded root.  The solvers' landing, the snap of ``certify``,
and :func:`is_periodic` and :func:`elliptic_case_test` on a float or
``Decimal`` ``gamma`` all take that walk.  No verdict compares a rounded
determinant with a tolerance.  :func:`closure_poly` interpolates the
same determinant into the closure condition as an integer polynomial in
``u``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache

from . import polys
from .errors import DomainError, InsufficientOrder
from .geometry import BoundaryEllipse, ConicClass, classify_conic, degenerate_value

__all__ = [
    "TruncatedSeries",
    "PeriodicityVerdict",
    "EllipticVerdict",
    "closure_det",
    "closure_poly",
    "cubic_sqrt_series",
    "divided_series",
    "hankel_test",
    "is_periodic",
    "elliptic_case_test",
    "case_symmetry",
    "closure_ladder",
]

#: Divisor keyword accepted by :func:`divided_series` for each ladder.
_DIVISORS = {"gamma-x": "C", "a-x": "D", "b+x": "E"}

#: Ladder -> (index of its divisor ``c`` in ``(a, b, gamma)``, ``sign``),
#: where ``bhat[k] = c*out[k] - sign*out[k-1]``.
_LADDERS = {"C": (2, 1), "D": (0, 1), "E": (1, -1)}

#: Each elliptic case: its caustic (an ellipse with ``gamma`` of one sign,
#: or a hyperbola), the axial symmetry of its half-period closure, and the
#: ladder of its closure determinant at even and at odd ``n`` (None where
#: the case does not occur).
_CASES = {
    "a": ("ellipse>0", "flip-x", "D", "E"),
    "b": ("ellipse<0", "flip-y", "E", "D"),
    "c": ("hyperbola", "flip-both", "C", None),
    "d": ("hyperbola", "flip-x", None, "E"),
    "e": ("hyperbola", "flip-y", None, "D"),
}


def closure_ladder(n: int, case: str | None = None) -> str:
    """The ladder whose Hankel block decides closure at period ``n``.

    Periodic closure (no ``case``) uses ``C`` for odd ``n`` and the base
    series ``B`` for even ``n``; an elliptic case uses its ladder at the
    parity of ``n`` (:data:`_CASES`).  Raises :class:`DomainError` for a
    case that does not occur at that parity or is no case at all.
    """
    if case is None:
        return "C" if n % 2 else "B"
    if (ladder := _CASES.get(case, (None,) * 4)[2 + n % 2]) is None:
        raise DomainError(f"unknown elliptic case {case!r} for n={n}")
    return ladder


def case_symmetry(case: str) -> str:
    """Mirror symmetry (``flip-x``/``flip-y``/``flip-both``) of a case.

    ``flip-x`` is the reflection across the x-axis ``(x, y) -> (x, -y)``,
    ``flip-y`` the reflection across the y-axis, ``flip-both`` the point
    reflection through the origin.
    """
    try:
        return _CASES[case][1]
    except KeyError as exc:
        raise DomainError(f"unknown elliptic case {case!r}") from exc


def _elliptic_candidates(E: BoundaryEllipse, gamma, n: int) -> list[tuple[str, str]]:
    """The ``(case, ladder)`` pairs open to the caustic ``gamma`` at period ``n``.

    They follow from the parity of ``n``, the conic class of the caustic
    and the sign of ``gamma``, in the order :func:`elliptic_case_test`
    tries them.
    """
    if classify_conic(gamma, E) is not ConicClass.EllipseOfFamily:
        caustic = "hyperbola"
    else:
        caustic = "ellipse>0" if gamma > 0 else "ellipse<0"
    return [
        (case, row[2 + n % 2])
        for case, row in _CASES.items()
        if row[0] == caustic and row[2 + n % 2]
    ]


# ---------------------------------------------------------------------------
# series recurrences
# ---------------------------------------------------------------------------


def _scaled_sqrt(a, b, gamma, order: int) -> list:
    """Scaled coefficients of ``sqrt(eps (a-x)(b+x)(gamma-x)) / B0``.

    The square of the scaled series is the cubic
    ``(1 - x/a)(1 + x/b)(1 - x/gamma)``; coefficients are rational in the
    inputs and are computed by the standard square-root recurrence.
    """
    ia, ib, ig = 1 / a, 1 / b, 1 / gamma
    one = a / a
    c1 = -ia + ib - ig
    c2 = -ia * ib + ia * ig - ib * ig
    c3 = ia * ib * ig
    cubic = [one, c1, c2, c3] + [0 * one] * max(0, order - 3)
    out = [one]
    for k in range(1, order + 1):
        s = cubic[k] if k < len(cubic) else 0 * one
        for j in range(1, k):
            s = s - out[j] * out[k - j]
        out.append(s / 2)
    return out


def _divided(bhat: list, letter: str, field: tuple) -> list:
    """Ladder ``letter`` of ``bhat`` for the scalars ``field = (a, b, gamma)``."""
    index, sign = _LADDERS[letter]
    c = field[index]
    out = [bhat[0] / c]
    for k in range(1, len(bhat)):
        out.append((bhat[k] + sign * out[k - 1]) / c)
    return out


def _ladder(a, b, gamma, variant: str, order: int) -> list:
    """Scaled series for any of the four variants in the given field."""
    if variant != "B" and variant not in _LADDERS:
        raise DomainError(f"unknown series variant {variant!r}")
    bh = _scaled_sqrt(a, b, gamma, order)
    return bh if variant == "B" else _divided(bh, variant, (a, b, gamma))


# ---------------------------------------------------------------------------
# public series objects
# ---------------------------------------------------------------------------


class TruncatedSeries(namedtuple("TruncatedSeries", "variant scaled order a b gamma")):
    """Truncated Taylor series of one of the variants ``B, C, D, E``.

    ``variant`` is the letter, ``order`` (an ``int``) the index of the last
    coefficient and ``a``, ``b``, ``gamma`` the inputs, ``float`` or
    ``Fraction``.  ``scaled`` is the tuple of coefficients divided by
    ``B0 = sqrt(|a b gamma|)`` (rational in the inputs, stored in the
    arithmetic of the inputs); the ``coeffs`` property restores the true
    coefficients, which involves the generally irrational factor ``B0`` and
    is therefore floating point.
    """

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[float, ...]:
        b0 = math.sqrt(abs(float(self.a) * float(self.b) * float(self.gamma)))
        return tuple(b0 * float(s) for s in self.scaled)


class PeriodicityVerdict(namedtuple("PeriodicityVerdict", "periodic n")):
    """Outcome of the exact periodicity test: ``periodic``, a ``bool``, at period ``n``."""

    __slots__ = ()


class EllipticVerdict(namedtuple("EllipticVerdict", "case")):
    """Outcome of the elliptic closure test: the matched case letter or ``none``."""

    __slots__ = ()


def _check_gamma(E: BoundaryEllipse, gamma) -> None:
    """Raise :class:`DomainError` for a ``gamma`` at a degenerate value or off the floats.

    An int or ``Fraction`` ``gamma`` of any size is decided exactly; a
    float or ``Decimal`` one must have a finite float, which a NaN, an
    infinity or a ``Decimal`` beyond the float range has not.
    """
    if not polys.is_exact(gamma):
        try:
            finite = math.isfinite(gamma)
        except ValueError:  # a signalling NaN has no float
            finite = False
        if not finite:
            raise DomainError(f"gamma={gamma} has no finite float")
    hit = degenerate_value(gamma, E)
    if hit is not None:
        raise DomainError(f"gamma={gamma} coincides with degenerate value {hit[1]}")


def cubic_sqrt_series(E: BoundaryEllipse, gamma, order: int) -> TruncatedSeries:
    """Truncated series of ``sqrt(eps (a-x)(b+x)(gamma-x))`` at ``x = 0``.

    ``gamma`` must avoid the degenerate values ``{0, a, -b}``.  ``order``
    is the index of the last retained coefficient.
    """
    if order < 0:
        raise DomainError(f"order must be non-negative, got {order}")
    _check_gamma(E, gamma)
    a, b, g = polys.to_field(E.a, E.b, gamma)
    with polys.field_context(g):
        scaled = _scaled_sqrt(a, b, g, order)
    return TruncatedSeries("B", tuple(scaled), order, E.a, E.b, gamma)


def divided_series(B: TruncatedSeries, divisor: str) -> TruncatedSeries:
    """Series of ``B(x)`` divided by one of ``gamma - x``, ``a - x``, ``b + x``.

    ``divisor`` is the keyword ``"gamma-x"``, ``"a-x"`` or ``"b+x"`` (or
    the ladder letter ``"C"``, ``"D"``, ``"E"``).
    """
    if B.variant != "B":
        raise DomainError("divided_series expects the base sqrt series (variant B)")
    letter = _DIVISORS.get(divisor, divisor)
    if letter not in _LADDERS:
        raise DomainError(f"unknown divisor {divisor!r}")
    field = polys.to_field(B.a, B.b, B.gamma)
    with polys.field_context(field[2]):
        scaled = _divided(B.scaled, letter, field)
    return TruncatedSeries(letter, tuple(scaled), B.order, B.a, B.b, B.gamma)


# ---------------------------------------------------------------------------
# Hankel determinants
# ---------------------------------------------------------------------------


def _hankel_layout(variant: str, n: int) -> tuple[int, int]:
    """(start, size) of the closure block at period ``n``; certificates share it."""
    if variant == "B":
        if n % 2 != 0 or n < 4:
            raise DomainError("variant B tests even periods n >= 4")
        return 3, n // 2 - 1
    if variant not in _LADDERS:
        raise DomainError(f"unknown series variant {variant!r}")
    if n < 2:
        raise DomainError(f"ladder {variant} tests periods n >= 2")
    return 1 + n % 2, n // 2


def _hankel_block(scaled, ladder: str, n: int) -> list[list]:
    """The Hankel block ``M[i][j] = scaled[start + i + j]`` of ``ladder`` at period ``n``."""
    start, size = _hankel_layout(ladder, n)
    if len(scaled) < n:  # every block ends at coefficient n - 1
        raise InsufficientOrder(
            f"series order {len(scaled) - 1} < {n - 1} required for variant {ladder}, n={n}"
        )
    return [[scaled[start + i + j] for j in range(size)] for i in range(size)]


def hankel_test(S: TruncatedSeries, n: int):
    """Closure-condition Hankel determinant of the series ``S`` at period ``n``.

    Built on the scaled coefficients ``M[i][j] = scaled[start + i + j]``
    with the layout determined by the variant and the parity of ``n``; the
    scaled determinant differs from the true one by a power of ``B0``, so
    the zero locus is identical.  Raises :class:`InsufficientOrder` when
    the series is shorter than ``n - 1``.
    """
    m = _hankel_block(S.scaled, S.variant, n)
    with polys.field_context(m[0][0]):
        return polys.det(m)


def closure_degree(ladder: str, n: int) -> int:
    """``size (start + size - 1)`` for the Hankel layout ``(start, size)``: the degree in ``gamma``.

    The generic degree of the closure condition of ``ladder`` at period
    ``n`` as a polynomial in ``gamma``, and the power of ``4D`` in the
    scale of :func:`closure_det`.
    """
    start, size = _hankel_layout(ladder, n)
    return size * (start + size - 1)


def closure_det(ia: Fraction, ib: Fraction, u: Fraction, ladder: str, n: int) -> tuple[int, int]:
    """The exact closure determinant of ``ladder`` at period ``n`` as ``(num, den)`` integers.

    The inputs are the rationals ``ia = 1/a``, ``ib = 1/b`` and
    ``u = 1/gamma``; ``u = 0`` is an ordinary point, where the cubic is
    ``(1 - x/a)(1 + x/b)``.  With ``D`` the lcm of their denominators and
    ``I = D x`` for each of them, ``B_k = bhat_k (4D)**k`` are integers.
    The square root ``y`` of the cubic ``P`` solves ``2 P y' = P' y``, so
    with ``c_i = (4D)**i cubic_i`` they follow the three-term recurrence
    ``(2k + 2) B_(k+1) = -(c1 (2k - 1) B_k + c2 (2k - 4) B_(k-1) + c3 (2k - 7)
    B_(k-2))``, whose division is exact: three small-by-big products a
    coefficient, where squaring the series takes about ``k/2`` big-by-big
    ones.  A ladder with divisor ``c`` is ``O_k = D (4D)**k out_k = I_c (B_k
    + 4 sign O_(k-1))``.  Each differs from the scaled series by the
    positive factor of one row and one column of the Hankel block, so the
    determinant ``num`` of the integer block over the product ``den > 0``
    of those factors is the value of :func:`hankel_test` on the exact
    series of ``ladder``, and ``num`` has its sign.  The block is
    symmetric, and :func:`~pellipse.polys._symmetric_bareiss_det`
    eliminates on its upper triangle.  No ``Fraction`` arithmetic is done
    on the way, and the quotient is left unreduced.
    """
    d = math.lcm(ia.denominator, ib.denominator, u.denominator)
    Ia, Ib, Iu = (x.numerator * (d // x.denominator) for x in (ia, ib, u))
    c1, c2, c3 = 4 * (Ib - Ia - Iu), 16 * (Ia * Iu - Ia * Ib - Ib * Iu), 64 * Ia * Ib * Iu
    B = [0, 0, 1]  # B_-2, B_-1, B_0
    for k in range(n - 1):
        s = c1 * (2 * k - 1) * B[-1] + c2 * (2 * k - 4) * B[-2] + c3 * (2 * k - 7) * B[-3]
        B.append(-s // (2 * k + 2))
    B = B[2:]
    if ladder != "B":
        index, sign = _LADDERS[ladder]
        ic, prev = (Ia, Ib, Iu)[index], 0
        B = [prev := ic * (b + 4 * sign * prev) for b in B]
    start, size = _hankel_layout(ladder, n)
    det = polys._symmetric_bareiss_det([B[start + i : start + i + size] for i in range(size)])
    # row i carries (4D)**(start + i), times D on a ladder, and column j (4D)**j
    scale = (4 * d) ** closure_degree(ladder, n) * (d**size if ladder != "B" else 1)
    return det, scale


def closure_poly(ia: Fraction, ib: Fraction, ladder: str, n: int) -> list[int]:
    """The numerator of :func:`closure_det` as an integer polynomial in ``Iu``, ascending.

    With ``D`` the lcm of the denominators of ``ia = 1/a`` and ``ib = 1/b``
    and ``u = Iu/D``, the scale of :func:`closure_det` is fixed, and its
    numerator is a polynomial with integer coefficients in the integer
    ``Iu``: these are the Cayley-type closure conditions of the paper,
    generated, not typed.  Its degree is at most ``deg``, the
    :func:`closure_degree` ``size (start + size - 1)`` of the Hankel layout
    ``(start, size)`` of ``ladder`` at period ``n``, plus ``size`` on the
    ``C`` ladder, whose every row carries the factor ``Iu``, so that its
    polynomial is divisible by ``Iu**size``.  The numerator at
    ``Iu = 0 .. deg`` gives the Newton forward differences, integers
    divisible by ``k!`` at order ``k``, and the falling-factorial basis is
    expanded by Horner's rule.  The list has ``deg + 1`` entries, the top
    ones 0 where the degree drops.
    """
    deg = closure_degree(ladder, n) + (_hankel_layout(ladder, n)[1] if ladder == "C" else 0)
    d = math.lcm(ia.denominator, ib.denominator)
    diffs = [closure_det(ia, ib, Fraction(i, d), ladder, n)[0] for i in range(deg + 1)]
    for k in range(1, deg + 1):  # diffs[k] becomes the k-th difference at 0
        for i in range(deg, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    poly = [0] * (deg + 1)
    for k in range(deg, -1, -1):  # poly <- poly * (Iu - k) + diffs[k] / k!
        poly = [poly[i - 1] - k * poly[i] if i else -k * poly[0] for i in range(deg + 1)]
        poly[0] += diffs[k] // math.factorial(k)
    return poly


def closure_poly_gamma(ia: Fraction, ib: Fraction, ladder: str, n: int) -> list[int]:
    """The closure condition of ``ladder`` at period ``n`` in ``gamma``, ascending, integer.

    ``gamma**deg P(D/gamma)`` for the polynomial ``P(Iu)`` of
    :func:`closure_poly`, ``u = Iu/D = 1/gamma``, trimmed: the factor
    ``u**size`` of the ``C`` ladder is the zero top it drops.  Its degree
    is :func:`closure_degree` unless ``P`` has a further factor ``u``.
    """
    d = math.lcm(ia.denominator, ib.denominator)
    return polys.trim([c * d**i for i, c in enumerate(closure_poly(ia, ib, ladder, n))][::-1])


# ---------------------------------------------------------------------------
# landing: the one proof of a closure root
# ---------------------------------------------------------------------------

#: Float steps from a float within which landing looks for the sign change
#: of the exact closure determinant, and the secant steps it takes.
_REACH = 2**20
_STEPS = 6


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


def _landed(det, gamma: float):
    """``(gamma, secant)`` for the closure root correctly rounded near the float ``gamma``, or None.

    ``det(p, q)`` is the exact closure determinant at the rational
    ``p/q``, as the ``(num, den)`` pair of :func:`closure_det`.  The ends
    of the rounding interval of a float are the exact midpoints to its
    neighbours, built by :func:`_midpoint_above`; when the determinant
    changes sign between them, the float is the correctly rounded root,
    and that sign change is the proof.  Otherwise the secant through the
    two ends, linear to high order at this scale, gives the next float to
    try: it lies ``num/den`` interval widths below the upper end, an
    unreduced quotient of integer products of the determinants, each
    formed once a step.  None means no sign change after ``_STEPS``
    steps, or a step beyond ``_REACH`` float steps.

    ``secant`` is ``(lo, hi, num, den)`` for the landed float: the ends of
    its rounding interval as ``(num, den)`` pairs and the secant there,
    which :func:`_exact_candidate` reads.
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
        num = p_hi * q_lo
        den = num - p_lo * q_hi
        if (p_lo < 0) != (p_hi < 0) or not p_lo or not p_hi:  # a sign change
            return gamma, (lo, hi, num, den)
        if abs(den) * _REACH < abs(num):
            return None
        gamma += (up - gamma) / 2 - num / den * (up - below) / 2
    return None


def _exact_candidate(lo, hi, num: int, den: int, dist: float) -> Fraction | None:
    """The one rational that may be the closure root in a rounding interval, or None.

    ``lo`` and ``hi`` are the interval's ends as ``(num, den)`` pairs, the
    secant through the determinant ``f`` there lies ``num/den`` of the
    width ``w`` below ``hi``, as :func:`_landed` gives them, and ``dist``
    is the distance from the root to the nearest degenerate value.  The
    secant misses the root by about ``w**2 |f''/f'| / 8``, and
    ``|f''/f'|`` was measured below ``136/dist`` for periods up to 12, so
    ``eps = 2**12 w**2 / dist`` bounds that with room to spare: about
    twice the float's digits.  The candidate is the fraction ``p/q``
    nearest the secant with ``q <= N = min(10**9, (2**10 eps) ** -1/2)``,
    kept when it lies within ``eps`` of it.  Two such fractions lie
    ``1/N**2 >= 2**10 eps`` apart or more, so a rational root with such a
    denominator is the candidate, and an irrational root meets one only
    about once in ``2**9`` roots.  None when there is none, or it lies
    outside the interval, or at 0, which is never a root.  It runs on
    integers: the secant is the unreduced ``s/t``, the candidate comes
    from :func:`_limit_denominator`, and both tests cross-multiply; one
    ``Fraction`` is built, for the candidate kept.
    """
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    d = max(lo_d, hi_d)
    lo_n, hi_n = lo_n * (d // lo_d), hi_n * (d // hi_d)
    # the secant s/t, t = d * 2**64, to 64 bits of the width: far below eps
    s, t = (hi_n << 64) - (hi_n - lo_n) * ((num << 64) // den if den else 0), d << 64
    w = (hi_n - lo_n) / d
    eps = 2**12 * w * w / dist
    bound = min(10**9, int((2**10 * eps) ** -0.5)) if eps else 10**9
    if not bound:  # far roots: no denominator is small enough
        return None
    p, q = _limit_denominator(s, t, bound)
    # |p/q - s/t| <= min(eps, w) and lo <= p/q <= hi, cross-multiplied
    mn, md = min(eps, w).as_integer_ratio()
    near = abs(p * t - s * q) * md <= mn * q * t
    inside = lo_n * q <= p * d <= hi_n * q
    return Fraction(p, q) if p and near and inside else None


def _limit_denominator(s: int, t: int, bound: int) -> tuple[int, int]:
    """``Fraction(s, t).limit_denominator(bound)`` as ``(p, q)`` in lowest terms, ``t > 0``.

    The standard library's walk on the continued fraction of ``s/t``, run
    on the unreduced integers, whose quotients are those of the reduced
    fraction; it ends at a remainder 0 when the reduced denominator is
    within ``bound``, and otherwise takes the nearer of the two bounding
    semiconvergents, compared by cross-multiplication, ``p1/q1`` on a tie.
    """
    p0, q0, p1, q1, x, y = 0, 1, 1, 0, s, t
    while y and (q2 := q0 + (a := x // y) * q1) <= bound:
        p0, q0, p1, q1, x, y = p1, q1, p0 + a * p1, q2, y, x - a * y
    if y:
        k = (bound - q0) // q1
        p2, q2 = p0 + k * p1, q0 + k * q1
        if abs(p1 * t - s * q1) * q2 > abs(p2 * t - s * q2) * q1:
            return p2, q2
    return p1, q1


# ---------------------------------------------------------------------------
# the verdicts
# ---------------------------------------------------------------------------


def _root_test(E: BoundaryEllipse, gamma, n: int):
    """The root test of the closure determinants at ``gamma`` and period ``n``.

    ``gamma`` is checked once, and the returned ``test(ladder)`` says
    whether it is a root of the determinant of ``ladder``
    (:func:`closure_det`).  An int or ``Fraction`` ``gamma`` is one when
    the determinant is 0 there.  A float or ``Decimal`` one is when
    landing (:func:`_landed`) from its float reaches a sign change: the
    rule the solvers apply to the roots they report.
    """
    _check_gamma(E, gamma)
    ia, ib = 1 / Fraction(E.a), 1 / Fraction(E.b)
    if polys.is_exact(gamma):
        u = 1 / Fraction(gamma)
        return lambda ladder: not closure_det(ia, ib, u, ladder, n)[0]
    g = float(gamma)

    def test(ladder: str) -> bool:
        return _landed(lambda p, q: closure_det(ia, ib, Fraction(q, p), ladder, n), g) is not None

    return test


def _periodic(E: BoundaryEllipse, gamma, n: int, test) -> bool:
    """Whether the root ``test`` at ``gamma`` passes the periodic ladder of period ``n``.

    Odd periods also need an ellipse of the confocal family: a hyperbola
    caustic closes only after an even period.
    """
    structural = n % 2 == 0 or classify_conic(gamma, E) is ConicClass.EllipseOfFamily
    return structural and test(closure_ladder(n))


def is_periodic(E: BoundaryEllipse, gamma, n: int) -> PeriodicityVerdict:
    """The exact closure test for an ``n``-periodic trajectory with caustic ``gamma``.

    Uses the ``C`` ladder for odd ``n`` and the base series for even
    ``n``, and decides on their exact determinant by the root test of
    :func:`_root_test`: an int or ``Fraction`` ``gamma`` of any size is
    periodic when the determinant is 0 there, a float or ``Decimal`` one
    when landing from its float reaches a sign change within ``2**20``
    float steps, as it does for every root the solvers report.  Odd
    periods additionally require the caustic to be an ellipse of the
    confocal family (hyperbola caustics only support even periods).
    Raises :class:`DomainError` for a degenerate ``gamma`` and for an
    inexact one without a finite float.
    """
    if n < 3:
        raise DomainError(f"periodicity test requires n >= 3, got {n}")
    return PeriodicityVerdict(_periodic(E, gamma, n, _root_test(E, gamma, n)), n)


def elliptic_case_test(E: BoundaryEllipse, gamma, n: int) -> EllipticVerdict:
    """Test closure of an ``n``-step trajectory onto a mirror image of itself.

    Returns the matched case letter: for even ``n`` the cases are ``a``
    (ellipse caustic, ``gamma > 0``, ladder ``D``), ``b`` (ellipse,
    ``gamma < 0``, ladder ``E``) and ``c`` (hyperbola, ladder ``C``);
    for odd ``n`` they are ``a`` (ellipse, ``gamma > 0``, ladder ``E``),
    ``b`` (ellipse, ``gamma < 0``, ladder ``D``) and the hyperbola cases
    ``d`` (ladder ``E``) and ``e`` (ladder ``D``).  A ``gamma`` that is
    fully ``n``-periodic reports ``none``, as does one matching no case.
    Each ladder is decided as in :func:`is_periodic`, exactly for an int
    or ``Fraction`` ``gamma`` and by landing from the float of any other.
    """
    if n < 2:
        raise DomainError(f"elliptic closure test requires n >= 2, got {n}")
    test = _root_test(E, gamma, n)
    if n >= 3 and _periodic(E, gamma, n, test):
        return EllipticVerdict("none")
    cases = (case for case, ladder in _elliptic_candidates(E, gamma, n) if test(ladder))
    return EllipticVerdict(next(cases, "none"))
