"""Dense univariate polynomial utilities over exact and floating scalars.

Polynomials are plain lists of coefficients in **ascending** order
(``[c0, c1, ...]`` represents ``c0 + c1 x + ...``).  All arithmetic is
scalar-generic: it works uniformly for ``int``/``Fraction`` (exact),
``decimal.Decimal`` and ``float``.  Resultants and discriminants use a
Sylvester matrix with fraction-free Bareiss elimination over the integers.

Scalar field: :func:`to_field` puts the scalars of one computation in a
common field, and :func:`field_context` gives the decimal context to run
it in.  Exact ``int``/``Fraction`` values stay rational; when any value is
a ``Decimal`` all of them become 50-digit ``Decimal`` (a ``Fraction`` as
its 50-digit quotient, a ``float`` exactly); otherwise all become
``float``.

Exact real roots run on primitive integer polynomials: each polynomial
is replaced once by the primitive integer polynomial that is a positive
multiple of it, which has the same signs.  One sign-preserving integer
pseudo-remainder drives both the gcd of the square-free part and the
Sturm chain, so every member of the chain is the primitive positive
multiple of the rational Euclidean remainder.  Isolation bisects from
Fujiwara's root bound by Sturm counts, and refinement bisects each
isolating interval; every sign test ``sign p(num/den)`` is an integer
homogeneous Horner sum, with no ``Fraction`` arithmetic per step.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import DomainError

__all__ = [
    "DECIMAL_PRECISION",
    "is_exact",
    "to_field",
    "field_context",
    "trim",
    "degree",
    "padd",
    "psub",
    "pneg",
    "pscale",
    "pmul",
    "peval",
    "pderiv",
    "pdivmod",
    "pcompose",
    "poly_sqrt",
    "resultant",
    "discriminant",
    "sturm_chain",
    "count_real_roots",
    "isolate_real_roots",
    "refine_root",
    "regula_falsi",
    "real_roots",
    "det",
    "nullspace_vector",
    "frac_sqrt",
]

Poly = Sequence

#: Significant digits of ``decimal.Decimal`` arithmetic.
DECIMAL_PRECISION = 50

_DECIMAL = Context(prec=DECIMAL_PRECISION)
_NO_CONTEXT = nullcontext()


# ---------------------------------------------------------------------------
# scalar field
# ---------------------------------------------------------------------------


def is_exact(*values) -> bool:
    """True when every value is an exact rational (``int`` or ``Fraction``)."""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def to_field(*values) -> tuple:
    """The values in their common field: ``Decimal``, ``Fraction`` or ``float``."""
    for v in values:
        if isinstance(v, Decimal):
            with localcontext(_DECIMAL):
                return tuple(
                    Decimal(x.numerator) / Decimal(x.denominator)
                    if isinstance(x, Fraction)
                    else Decimal(x)
                    for x in values
                )
    if is_exact(*values):
        return tuple(map(Fraction, values))
    return tuple(map(float, values))


def field_context(x):
    """Context for arithmetic in the field of ``x``: 50 digits for ``Decimal``."""
    return localcontext(_DECIMAL) if isinstance(x, Decimal) else _NO_CONTEXT


# ---------------------------------------------------------------------------
# basic arithmetic
# ---------------------------------------------------------------------------


def trim(c: Poly) -> list:
    """Drop trailing zero coefficients (keeping at least the constant term)."""
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def degree(c: Poly) -> int:
    """Degree of the trimmed polynomial (the zero polynomial has degree 0)."""
    return len(trim(c)) - 1


def padd(u: Poly, v: Poly) -> list:
    """Coefficient-wise sum."""
    n = max(len(u), len(v))
    out = []
    for k in range(n):
        a = u[k] if k < len(u) else 0
        b = v[k] if k < len(v) else 0
        out.append(a + b)
    return out


def pneg(u: Poly) -> list:
    """Negation."""
    return [-a for a in u]


def psub(u: Poly, v: Poly) -> list:
    """Difference ``u - v``."""
    return padd(u, pneg(v))


def pscale(u: Poly, s) -> list:
    """Scalar multiple ``s * u``."""
    return [s * a for a in u]


def pmul(u: Poly, v: Poly) -> list:
    """Product by convolution."""
    out = [0 * (u[0] * v[0])] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def peval(c: Poly, x):
    """Evaluate by Horner's rule."""
    acc = 0 * x
    for a in reversed(list(c)):
        acc = acc * x + a
    return acc


def pderiv(c: Poly) -> list:
    """Formal derivative."""
    if len(c) <= 1:
        return [0 * c[0]] if c else [0]
    return [k * c[k] for k in range(1, len(c))]


def pdivmod(u: Poly, v: Poly) -> tuple[list, list]:
    """Quotient and remainder of ``u / v`` over a field."""
    u = trim(u)
    v = trim(v)
    if v == [0] or all(a == 0 for a in v):
        raise ZeroDivisionError("polynomial division by zero")
    q = [0 * v[-1]] * max(1, len(u) - len(v) + 1)
    r = list(u)
    dv = len(v) - 1
    lead = v[-1]
    while len(r) - 1 >= dv and any(a != 0 for a in r):
        k = len(r) - 1 - dv
        coef = r[-1] / lead
        q[k] = q[k] + coef
        for i in range(len(v)):
            r[k + i] = r[k + i] - coef * v[i]
        r.pop()
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return trim(q), trim(r)


def pcompose(outer: Poly, inner: Poly) -> list:
    """Composition ``outer(inner(x))`` by Horner over polynomials."""
    acc: list = [0 * outer[-1]]
    for a in reversed(list(outer)):
        acc = padd(pmul(acc, inner), [a])
    return acc


def frac_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a rational perfect square.

    Raises :class:`DomainError` when ``q`` is negative or not a perfect
    square of a rational.
    """
    if q < 0:
        raise DomainError(f"square root of negative rational {q}")
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise DomainError(f"{q} is not the square of a rational")
    return Fraction(rn, rd)


def poly_sqrt(q: Poly) -> list:
    """Square root of a perfect-square polynomial, leading coefficient > 0.

    Coefficients are recovered top-down from the leading term, which keeps
    the recurrence well-posed even when the constant term vanishes.  The
    leading coefficient's root is :func:`frac_sqrt` for exact input and
    ``math.sqrt`` otherwise.  The reconstruction is *not* verified here;
    callers should check ``q - root**2`` themselves when the input may fail
    to be square.
    """
    q = trim(q)
    d2 = len(q) - 1
    if d2 % 2 != 0:
        raise DomainError("perfect-square polynomial must have even degree")
    d = d2 // 2
    c = [0 * q[0]] * (d + 1)
    c[d] = frac_sqrt(Fraction(q[d2])) if is_exact(q[d2]) else math.sqrt(q[d2])
    for j in range(1, d + 1):
        s = q[d2 - j]
        for i in range(1, j):
            if d - j + i >= 0:
                s = s - c[d - i] * c[d - j + i]
        c[d - j] = s / (2 * c[d])
    return c


# ---------------------------------------------------------------------------
# resultant / discriminant (exact)
# ---------------------------------------------------------------------------


def _to_int_poly(c: Poly) -> tuple[list[int], int]:
    """Scale a rational polynomial to integers; return (poly, multiplier)."""
    fracs = [Fraction(a) for a in c]
    m = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (m // f.denominator) for f in fracs], m


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(u: Poly, v: Poly) -> Fraction:
    """Exact resultant of two rational polynomials via Sylvester/Bareiss."""
    ui, lu = _to_int_poly(trim(u))
    vi, lv = _to_int_poly(trim(v))
    m, n = len(ui) - 1, len(vi) - 1
    if m == 0 or n == 0:
        # Res(const, q) = const**deg(q)
        if m == 0:
            return Fraction(ui[0], lu) ** n
        return Fraction(vi[0], lv) ** m
    size = m + n
    rows: list[list[int]] = []
    urev = list(reversed(ui))
    vrev = list(reversed(vi))
    for i in range(n):
        rows.append([0] * i + urev + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + vrev + [0] * (size - n - 1 - i))
    det_int = _bareiss_det(rows)
    return Fraction(det_int) / (Fraction(lu) ** n * Fraction(lv) ** m)


def discriminant(c: Poly) -> Fraction:
    """Exact discriminant ``(-1)^(d(d-1)/2) Res(p, p') / lead(p)``."""
    p = [Fraction(a) for a in trim(c)]
    d = len(p) - 1
    if d < 1:
        raise DomainError("discriminant requires degree >= 1")
    if d == 1:
        return Fraction(1)
    res = resultant(p, pderiv(p))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res / p[-1]


# ---------------------------------------------------------------------------
# Sturm isolation and refinement on primitive integer polynomials
# ---------------------------------------------------------------------------


def _int_poly(c: Poly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of trimmed ``c``."""
    ci, _ = _to_int_poly(trim(c))
    g = gcd(*ci) or 1
    return [a // g for a in ci]


def _prem(u: list[int], v: list[int]) -> list[int]:
    """The remainder of ``|lc(v)|**k * u`` by ``v``, made primitive.

    Each elimination step scales the running remainder by ``|lc(v)| > 0``,
    so the result is a positive multiple of the remainder over the
    rationals and has the same signs everywhere.
    """
    if v[-1] < 0:
        v = pneg(v)  # the same remainder, by a divisor with lc(v) > 0
    r = list(u)
    while len(r) >= len(v) and r != [0]:
        k, top = len(r) - len(v), r[-1]
        r = [a * v[-1] for a in r]
        for i, b in enumerate(v):
            r[k + i] -= top * b
        r = trim(r[:-1] or [0])
    return _int_poly(r)


def _gcd(u: list[int], v: list[int]) -> list[int]:
    """A gcd of the primitive integer ``u`` and ``v``, primitive: Euclid on :func:`_prem`."""
    while v != [0]:
        u, v = v, _prem(u, v)
    return u


def squarefree_part(c: Poly) -> list[int]:
    """``p / gcd(p, p')`` as a primitive integer polynomial: same real roots, all simple."""
    p = _int_poly(c)
    u = _gcd(p, _int_poly(pderiv(p)))
    if len(u) == 1:
        return p
    q, r = pdivmod(p, [Fraction(a, u[-1]) for a in u])  # by the monic gcd
    if any(a != 0 for a in r):  # pragma: no cover - exact division by gcd
        raise DomainError("square-free reduction failed")
    return _int_poly(q)


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free integer ``p``; each member primitive."""
    chain = [p, _int_poly(pderiv(p))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append(pneg(r))
    return chain


def sturm_chain(c: Poly) -> list[list[int]]:
    """Sturm chain of the square-free part of ``c``, as primitive integer polynomials."""
    return _sturm(squarefree_part(c))


def _sign_at(p: list[int], x: Fraction) -> int:
    """Sign of ``p(x)`` by homogeneous Horner.

    With ``x = num/den``, ``den > 0``, the integer
    ``den**d * p(x) = sum(p[i] * num**i * den**(d-i))`` has the sign of ``p(x)``.
    """
    num, den = x.numerator, x.denominator
    acc = 0
    dpow = 1
    for a in reversed(p):
        acc = acc * num + a * dpow
        dpow *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in ``(lo, hi]`` by Sturm's theorem on a :func:`sturm_chain`."""
    return _variations(chain, Fraction(lo)) - _variations(chain, Fraction(hi))


def _root_bound(p: list[int]) -> Fraction:
    """A power of two above the modulus of every root of the integer ``p``, strictly.

    Fujiwara's bound: every root has modulus at most twice the largest
    ``|c_(d-i) / c_d| ** (1/i)``, ``i = 1 .. d``, the last term taken of
    ``c_0 / 2``.  From bit lengths, ``|c_(d-i) / c_d| < 2**e`` with
    ``e = len(c_(d-i)) - len(c_d) + 1``, one less for the halved last term,
    so each term is below ``2**ceil(e/i)``.  When every root has modulus
    at most ``R``, each term is at most ``d R``, so the bound stays near
    the roots at every scale; the Cauchy bound ``1 + max|c_i / c_d|`` can
    be about ``R**d``.
    """
    d, top = len(p) - 1, abs(p[-1]).bit_length()
    terms = (
        -((top - abs(c).bit_length() - (i < d)) // i)
        for i, c in enumerate(reversed(p[:-1]), 1)
        if c
    )
    return Fraction(2) ** (1 + max(terms, default=0))


def _isolate(chain: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of the roots of ``chain[0]``, an integer Sturm chain."""
    p = chain[0]
    if len(p) == 1:
        return []
    hi = _root_bound(p)
    lo = -hi
    out: list[tuple[Fraction, Fraction]] = []
    # (a, b, variations at a, variations at b); the root count is their difference
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        shift = (b - a) / 4
        while _sign_at(p, mid) == 0:
            # the midpoint hit a root exactly; step off it by a strictly
            # decreasing offset (stays inside (a, b), and a polynomial has
            # only finitely many roots, so this terminates)
            mid += shift
            shift /= 2
        vm = _variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort(key=lambda ab: ab[0])
    return out


def isolate_real_roots(c: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals each containing exactly one real root."""
    return _isolate(sturm_chain(c))


def _refine(p: list[int], lo, hi) -> Fraction:
    """Bisect a root of the square-free integer polynomial ``p`` in ``[lo, hi]``.

    After ``k`` steps the bracket is ``[L, H] / (den * 2**k)``: integer
    numerators over a doubling denominator, so the width numerator ``H - L``
    never changes and the stop test ``(H - L) * 10**60 <= max(|L|, |H|)``
    needs no division.  With ``q_i = p_i * den**(d-i)`` the sign of
    ``p(x / (den * 2**k))`` is the sign of ``sum(q_i * x**i * 2**(k*(d-i)))``,
    a homogeneous Horner sum whose powers of two are shifts.
    """
    flo, fhi = Fraction(lo), Fraction(hi)
    slo = _sign_at(p, flo)
    if slo == 0:
        return lo
    shi = _sign_at(p, fhi)
    if shi == 0:
        return hi
    if shi == slo:
        raise DomainError("refine_root requires a sign change on the bracket")
    if flo < 0 < fhi and p[0] == 0:
        return Fraction(0)  # the relative stop rule never ends on a root at 0
    den = lcm(flo.denominator, fhi.denominator)
    L = flo.numerator * (den // flo.denominator)
    H = fhi.numerator * (den // fhi.denominator)
    d = len(p) - 1
    q = [a * den ** (d - i) for i, a in enumerate(p)]
    width = (H - L) * 10**60
    k = 0
    while width > max(abs(L), abs(H)):
        mid = L + H
        L, H, k = 2 * L, 2 * H, k + 1
        acc, shift = 0, 0
        for a in reversed(q):
            acc = acc * mid + (a << shift)
            shift += k
        if acc == 0:
            return Fraction(mid, den << k)
        if (acc > 0) == (slo > 0):
            L = mid
        else:
            H = mid
    return Fraction(L + H, den << (k + 1))


def refine_root(c: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """Bisect a sign-changing bracket until its width is ``10**-60`` of its larger end.

    The width is relative to the current bracket, not to ``[lo, hi]``, so
    the root has 60 correct digits at every scale.
    """
    return _refine(squarefree_part(c), lo, hi)


def regula_falsi(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of ``f`` between the floats ``lo < hi``, narrowed to adjacent floats.

    ``f_lo`` and ``f_hi`` are ``f`` at the ends, of opposite signs, passed
    in because callers have them.  Each step takes the secant point of the
    bracket.  An end kept twice in a row has its value scaled by
    ``m = 1 - f(x) / f(replaced end)``, or by ``1/2`` when ``m <= 0``
    (Anderson and Bjorck, BIT 13, 1973).  A secant point that rounds onto
    an end, or beyond it, becomes the float next to that end inside the
    bracket, so a root next to an end costs one step, not a bisection down
    to it.  The midpoint is taken instead when the secant point is not a
    number or three steps have not halved the bracket.  A point where
    ``f`` is exactly zero is returned at once; otherwise the bracket ends
    on two adjacent floats, and the one where ``|f|``, unscaled, is
    smaller is returned (the upper one on a tie).
    """
    up, kept, stalls, target = f_lo > 0, 0, 0, (hi - lo) / 2
    v_lo, v_hi = f_lo, f_hi  # f at the ends, unscaled
    while (mid := (lo + hi) / 2) not in (lo, hi):
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi)) if stalls < 3 else mid
        if x <= lo:
            x = math.nextafter(lo, hi)
        elif x >= hi:
            x = math.nextafter(hi, lo)
        elif not lo < x < hi:  # not a number
            x = mid
        if (v := f(x)) == 0:
            return x
        if (v > 0) == up:  # x replaces lo; hi kept a second time is scaled
            if kept == 1 and x != mid:
                m = 1 - v / v_lo
                f_hi *= m if m > 0 else 0.5
            lo, f_lo, v_lo, kept = x, v, v, 1
        else:
            if kept == -1 and x != mid:
                m = 1 - v / v_hi
                f_lo *= m if m > 0 else 0.5
            hi, f_hi, v_hi, kept = x, v, v, -1
        stalls = 0 if hi - lo <= target else stalls + 1
        target = (hi - lo) / 2 if stalls == 0 else target
    return lo if abs(v_lo) < abs(v_hi) else hi


def real_roots(c: Poly) -> list[Fraction]:
    """All distinct real roots, refined as by :func:`refine_root`, ascending.

    The square-free part is computed once and shared by isolation and
    every refinement.
    """
    chain = sturm_chain(c)
    return [_refine(chain[0], a, b) for a, b in _isolate(chain)]


# ---------------------------------------------------------------------------
# generic dense linear algebra (works for Fraction / Decimal / float)
# ---------------------------------------------------------------------------


def det(matrix: Sequence[Sequence]) -> object:
    """Determinant by Gaussian elimination with partial pivoting.

    Pivoting by absolute value is valid for all supported scalar types;
    for exact scalars the result is exact.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        raise DomainError("empty matrix")
    zero = a[0][0] - a[0][0]  # typed zero
    sign = 1
    detv = None
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[piv][k] == 0:
            return zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        detv = a[k][k] if detv is None else detv * a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return -detv if sign < 0 else detv


def nullspace_vector(matrix: Sequence[Sequence]) -> list:
    """One null vector of a square matrix of rank ``n-1``.

    Full pivoting with column-permutation tracking; the free variable is
    set to 1 and the system back-substituted.  For exact scalars on a
    genuinely singular matrix the vector is exact.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        raise DomainError("empty matrix")
    perm = list(range(n))
    for k in range(n - 1):
        piv = max(range(k, n), key=lambda r: max(abs(a[r][c]) for c in range(k, n)))
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        pc = max(range(k, n), key=lambda c: abs(a[k][c]))
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
            perm[k], perm[pc] = perm[pc], perm[k]
        if a[k][k] == 0:
            break
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    one = 0 * a[0][0] + 1  # multiplicative identity in the matrix's field
    x = [0 * a[0][0]] * n
    x[n - 1] = one
    for k in range(n - 2, -1, -1):
        s = 0 * a[0][0]
        for j in range(k + 1, n):
            s = s + a[k][j] * x[j]
        if a[k][k] == 0:
            raise DomainError("matrix rank below n-1; null space not unique")
        x[k] = -s / a[k][k]
    out = [0 * a[0][0]] * n
    for i, p in enumerate(perm):
        out[p] = x[i]
    return out
