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
the one source of every closure verdict: the solvers' root landing and
:func:`is_periodic` and :func:`elliptic_case_test` for every input field,
which read a float or ``Decimal`` as the exact rational it is and prove
a root by a sign change of the determinant within a relative
``ROOT_BRACKET`` of it.  No verdict compares a rounded determinant with a
tolerance.  :func:`closure_poly` interpolates the same determinant into
the closure condition as an integer polynomial in ``u``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import polys
from .config import ROOT_BRACKET
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
        caustic = "ellipse>0" if float(gamma) > 0 else "ellipse<0"
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


class PeriodicityVerdict(namedtuple("PeriodicityVerdict", "periodic determinant_value n")):
    """Outcome of the exact periodicity test for ``(gamma, n)``.

    ``periodic`` is a ``bool`` and ``n`` the period.  ``determinant_value``
    is the exact closure determinant at ``gamma`` (a ``Fraction``, for
    every input field).
    """

    __slots__ = ()


class EllipticVerdict(namedtuple("EllipticVerdict", "case determinant_value")):
    """Outcome of the elliptic closure test: matched case letter or ``none``.

    ``case`` is that string; ``determinant_value`` is an exact ``Fraction``,
    as in :class:`PeriodicityVerdict`.
    """

    __slots__ = ()


def _check_gamma(E: BoundaryEllipse, gamma) -> None:
    if isinstance(gamma, float) and (math.isinf(gamma) or math.isnan(gamma)):
        raise DomainError(f"gamma={gamma} is degenerate")
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


def _closure_roots(E: BoundaryEllipse, gamma, n: int):
    """The root test of the closure determinants at ``gamma`` and period ``n``.

    ``gamma`` is checked once, and the returned ``test(ladder)`` gives
    ``(root, value)``: ``value`` is the exact determinant of ``ladder`` at
    ``gamma`` (:func:`closure_det`) as a ``Fraction``.  An int or
    ``Fraction`` ``gamma`` is a root when it is 0.  A float or ``Decimal``
    ``gamma``, read as the exact rational it is, is a root when it is 0 or
    its sign differs from that at one of the floats nearest
    ``gamma (1 -+ ROOT_BRACKET)``; the determinant is a polynomial in
    ``u = 1/gamma``, so the sign change proves a root between them.
    """
    _check_gamma(E, gamma)
    ia, ib = 1 / Fraction(E.a), 1 / Fraction(E.b)
    u, g = 1 / Fraction(gamma), float(gamma)
    ends = [] if polys.is_exact(gamma) else [g * (1 + s * ROOT_BRACKET) for s in (-1, 1)]

    def test(ladder: str) -> tuple[bool, Fraction]:
        num, den = closure_det(ia, ib, u, ladder, n)
        root = not num or any(
            num * closure_det(ia, ib, 1 / Fraction(x), ladder, n)[0] <= 0
            for x in ends
            if math.isfinite(x)
        )
        return root, Fraction(num, den)

    return test


def _periodic_verdict(E: BoundaryEllipse, gamma, n: int, test) -> PeriodicityVerdict:
    """The periodic ladder's verdict at period ``n`` from the root ``test`` at ``gamma``."""
    root, value = test(closure_ladder(n))
    structural = n % 2 == 0 or classify_conic(gamma, E) is ConicClass.EllipseOfFamily
    return PeriodicityVerdict(root and structural, value, n)


def is_periodic(E: BoundaryEllipse, gamma, n: int) -> PeriodicityVerdict:
    """The exact closure test for an ``n``-periodic trajectory with caustic ``gamma``.

    Uses the ``C`` ladder for odd ``n`` and the base series for even
    ``n``, and decides on their exact determinant by the root test of
    :func:`_closure_roots` for every input field: an int or ``Fraction``
    ``gamma`` is periodic when it is a root, a float or ``Decimal`` one
    when a root lies within a relative ``ROOT_BRACKET`` of it.  Odd
    periods additionally require the caustic to be an ellipse of the
    confocal family (hyperbola caustics only support even periods).
    ``determinant_value`` is the exact determinant at ``gamma``.
    """
    if n < 3:
        raise DomainError(f"periodicity test requires n >= 3, got {n}")
    return _periodic_verdict(E, gamma, n, _closure_roots(E, gamma, n))


def elliptic_case_test(E: BoundaryEllipse, gamma, n: int) -> EllipticVerdict:
    """Test closure of an ``n``-step trajectory onto a mirror image of itself.

    Returns the matched case letter: for even ``n`` the cases are ``a``
    (ellipse caustic, ``gamma > 0``, ladder ``D``), ``b`` (ellipse,
    ``gamma < 0``, ladder ``E``) and ``c`` (hyperbola, ladder ``C``);
    for odd ``n`` they are ``a`` (ellipse, ``gamma > 0``, ladder ``E``),
    ``b`` (ellipse, ``gamma < 0``, ladder ``D``) and the hyperbola cases
    ``d`` (ladder ``E``) and ``e`` (ladder ``D``).  A ``gamma`` that is
    fully ``n``-periodic reports ``none``, as does one matching no case;
    the latter carries the determinant of least magnitude.  Each ladder is
    decided as in :func:`is_periodic`, on its exact determinant, which
    every verdict carries at ``gamma``.
    """
    if n < 2:
        raise DomainError(f"elliptic closure test requires n >= 2, got {n}")
    test = _closure_roots(E, gamma, n)
    if n >= 3:
        pv = _periodic_verdict(E, gamma, n, test)
        if pv.periodic:
            return EllipticVerdict("none", pv.determinant_value)
    values = []
    for case, ladder in _elliptic_candidates(E, gamma, n):
        root, value = test(ladder)
        if root:
            return EllipticVerdict(case, value)
        values.append(value)
    return EllipticVerdict("none", min(values, key=abs))
