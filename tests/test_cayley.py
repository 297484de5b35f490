"""Taylor-series and Hankel-determinant periodicity conditions."""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pellipse import (
    BoundaryEllipse,
    TruncatedSeries,
    cubic_sqrt_series,
    divided_series,
    elliptic_case_test,
    hankel_test,
    is_periodic,
    case_symmetry,
)
from pellipse.errors import DomainError, InsufficientOrder
from pellipse.extremal import pell_construct
from pellipse import cayley, polys

F = Fraction


def test_cubic_sqrt_series_squared_identity_exact():
    # the scaled series squares exactly to (1 - x/a)(1 + x/b)(1 - x/gamma)
    # in rational mode
    E = BoundaryEllipse(F(3), F(2))
    gamma = F(4, 3)
    S = cubic_sqrt_series(E, gamma, 12)
    c = list(S.scaled)
    assert all(isinstance(x, Fraction) for x in c)
    cubic = polys.pmul(polys.pmul([F(1), F(-1, 3)], [F(1), F(1, 2)]), [F(1), F(-3, 4)])
    square = polys.pmul(c, c)[: len(c)]
    for got, want in zip(square, cubic + [F(0)] * len(c)):
        assert got == want


def test_coeffs_carry_the_sqrt_prefactor():
    # true coefficients are sqrt(|a b gamma|) times the scaled ones
    E = BoundaryEllipse(F(3), F(2))
    S = cubic_sqrt_series(E, F(4, 3), 6)
    assert float(S.coeffs[0]) == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_divided_series_is_exact_quotient():
    # (gamma - x) * C-series == B-series, term by term
    E = BoundaryEllipse(F(3), F(2))
    gamma = F(4, 3)
    B = cubic_sqrt_series(E, gamma, 10)
    C = divided_series(B, "C")
    prod = polys.pmul([gamma, F(-1)], list(C.scaled))[: len(B.scaled)]
    assert list(prod) == list(B.scaled)


def test_insufficient_order():
    E = BoundaryEllipse(3, 2)
    S = cubic_sqrt_series(E, 1.2, 3)
    with pytest.raises(InsufficientOrder):
        hankel_test(S, 8)


def test_hankel_layout_is_two_rules():
    # B tests even periods n >= 4; C, D and E share one block at every
    # n >= 2; every block ends at the series coefficient n - 1
    for n in range(2, 17):
        layouts = {ladder: cayley._hankel_layout(ladder, n) for ladder in "CDE"}
        assert set(layouts.values()) == {(1 + n % 2, n // 2)}
        if n % 2 == 0 and n >= 4:
            layouts["B"] = cayley._hankel_layout("B", n)
            assert layouts["B"] == (3, n // 2 - 1)
        for start, size in layouts.values():
            assert start + 2 * (size - 1) == n - 1


def test_hankel_test_rejects_periods_without_a_block():
    B = cubic_sqrt_series(BoundaryEllipse(F(3), F(2)), F(4, 3), 12)
    for ladder in "CDE":
        with pytest.raises(DomainError):
            hankel_test(divided_series(B, ladder), 1)
    for n in (2, 3, 5, 7):
        with pytest.raises(DomainError):
            hankel_test(B, n)


def test_is_periodic_exact_rational_root():
    E = BoundaryEllipse(F(2), F(4))
    verdict = is_periodic(E, F(4, 3), 4)
    assert verdict.periodic


def test_is_periodic_float_roots_and_rejections():
    E = BoundaryEllipse(3, 2)
    for gamma, expect in ((2.3322714928995234, True), (-1.8522714928995232, True),
                          (1.0, False), (0.7, False), (-1.0, False)):
        assert is_periodic(E, gamma, 3).periodic is expect, gamma


def test_odd_period_requires_ellipse_caustic():
    # hyperbola caustics close only with even period; the odd-n test is
    # structurally negative for them
    E = BoundaryEllipse(3, 2)
    assert not is_periodic(E, -2.5, 3).periodic
    assert not is_periodic(E, 4.5, 5).periodic


def test_degenerate_gamma_rejected():
    E = BoundaryEllipse(3, 2)
    for gamma in (0, 3, -2):
        with pytest.raises(DomainError):
            is_periodic(E, gamma, 4)


def test_elliptic_case_test_even_cases():
    # closed forms at n=2: a <-> ab/(a+b), b <-> -ab/(a+b), c <-> ab/(b-a)
    E = BoundaryEllipse(F(5), F(3))
    assert elliptic_case_test(E, F(15, 8), 2).case == "a"
    assert elliptic_case_test(E, F(-15, 8), 2).case == "b"
    assert elliptic_case_test(E, F(-15, 2), 2).case == "c"


def test_elliptic_case_test_odd_fixture():
    # roots of the (6,3) odd E-ladder quadratic: -1.2 -+ 0.8*sqrt(6)
    E = BoundaryEllipse(6, 3)
    r = 0.8 * math.sqrt(6)
    assert elliptic_case_test(E, -1.2 - r, 3).case == "d"
    assert elliptic_case_test(E, -1.2 + r, 3).case == "a"


#: Rational closure roots and a non-root on the axes (6, 3) and (2, 4):
#: ``(a, b, gamma, n, periodic, case)``; ``periodic`` is None at n = 2,
#: below the periods of :func:`is_periodic`.  ab/(a + b), -ab/(a + b) and
#: ab/(b - a) are the n = 4 roots and the n = 2 cases a, b and c.
_RATIONAL_ROOTS = [
    (6, 3, 2, 4, True, "none"),
    (6, 3, -2, 4, True, "none"),
    (6, 3, -6, 4, True, "none"),
    (2, 4, F(4, 3), 4, True, "none"),
    (6, 3, 2, 2, None, "a"),
    (6, 3, -2, 2, None, "b"),
    (6, 3, -6, 2, None, "c"),
    (2, 4, F(-4, 3), 2, None, "b"),
    (6, 3, 1, 4, False, "none"),
    (6, 3, 1, 3, False, "none"),
]

#: The four input fields of the verdicts, from an exact rational.
_FIELDS = [
    lambda x: x,
    F,
    float,
    lambda x: Decimal(F(x).numerator) / Decimal(F(x).denominator),
]


@pytest.mark.parametrize("a, b, gamma, n, periodic, case", _RATIONAL_ROOTS)
def test_the_verdicts_are_one_exact_path_in_every_field(
    monkeypatch, a, b, gamma, n, periodic, case
):
    # the same roots as int, Fraction, float and Decimal axes and gamma get
    # the same verdicts, all read off the exact integer determinant: no
    # verdict builds a series in a field or takes a field determinant
    def forbidden(*args):
        raise AssertionError("a verdict left the exact closure determinant")

    monkeypatch.setattr(cayley, "_scaled_sqrt", forbidden)
    monkeypatch.setattr(polys, "det", forbidden)
    for axis_field in _FIELDS:
        E = BoundaryEllipse(axis_field(a), axis_field(b))
        for gamma_field in _FIELDS:
            g = gamma_field(gamma)
            if periodic is not None:
                pv = is_periodic(E, g, n)
                assert pv.periodic is periodic, (E, g)
            ev = elliptic_case_test(E, g, n)
            assert ev.case == case, (E, g)


@pytest.mark.parametrize("axes", [(3, 2), (3.0, 2.0), (F(3), Decimal(2))])
@pytest.mark.parametrize(
    "verdict, gamma, n, want",
    [
        (is_periodic, F(10**400), 4, (False, 4)),
        (is_periodic, -(10**400), 3, (False, 3)),
        (elliptic_case_test, -(10**400), 3, ("none",)),
        (elliptic_case_test, F(10**400, 3), 2, ("none",)),
        (elliptic_case_test, F(1, 10**400) + 1, 2, ("none",)),
    ],
    ids=["periodic-huge", "periodic-odd", "elliptic-odd", "elliptic-even", "elliptic-long"],
)
def test_an_exact_gamma_of_any_size_gets_a_verdict(axes, verdict, gamma, n, want):
    # an int or Fraction gamma is decided on the exact determinant alone,
    # beyond the float range too
    assert tuple(verdict(BoundaryEllipse(*axes), gamma, n)) == want


@pytest.mark.parametrize(
    "gamma",
    [Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("1e400")]
    + [math.nan, math.inf],
)
@pytest.mark.parametrize("check", [is_periodic, elliptic_case_test, pell_construct])
def test_an_inexact_gamma_without_a_finite_float_raises_domain_error(check, gamma):
    with pytest.raises(DomainError, match="no finite float"):
        check(BoundaryEllipse(3, 2), gamma, 4)


#: A periodic caustic of (7, 11) at n = 9, landed by the solver.
_ROOT_7_11_9 = 3.4107975309243574


@pytest.mark.parametrize(
    "steps, periodic", [(2**19, True), (-(2**19), True), (2**21, False), (-(2**21), False)]
)
def test_a_float_is_periodic_when_landing_from_it_reaches_a_sign_change(steps, periodic):
    # the one rule of the solvers, the snap and the verdicts: landing from
    # a float reaches the root within 2**20 float steps, not beyond
    E = BoundaryEllipse(7, 11)
    g = _ROOT_7_11_9 + steps * math.ulp(_ROOT_7_11_9)  # one binade: exact
    assert abs(F(g) - F(_ROOT_7_11_9)) == abs(steps) * F(math.ulp(_ROOT_7_11_9))
    assert is_periodic(E, g, 9).periodic is periodic
    assert is_periodic(E, Decimal(g), 9).periodic is periodic
    assert elliptic_case_test(E, g, 9).case == "none"


def test_fully_periodic_is_not_elliptic():
    # an n-periodic caustic mirrors onto itself trivially; the elliptic test
    # must report no proper case
    E = BoundaryEllipse(3, 2)
    assert elliptic_case_test(E, 2.3322714928995234, 3).case == "none"


def test_case_symmetry_map():
    assert case_symmetry("a") == "flip-x"
    assert case_symmetry("b") == "flip-y"
    assert case_symmetry("c") == "flip-both"
    assert case_symmetry("d") == "flip-x"
    assert case_symmetry("e") == "flip-y"


@pytest.mark.parametrize("n", range(2, 14))
def test_closure_ladder_names_the_ladder_of_every_period_and_case(n):
    # periodic closure: C for odd n, the base series B for even n; each
    # elliptic case its ladder at the parity of n, and a DomainError where
    # the case does not occur
    ladders = {0: {"a": "D", "b": "E", "c": "C"}, 1: {"a": "E", "b": "D", "d": "E", "e": "D"}}
    assert cayley.closure_ladder(n) == ("C" if n % 2 else "B")
    for case in "abcdefz":
        if case in ladders[n % 2]:
            assert cayley.closure_ladder(n, case) == ladders[n % 2][case]
        else:
            with pytest.raises(DomainError, match=f"unknown elliptic case '{case}' for n={n}$"):
                cayley.closure_ladder(n, case)


def test_the_partition_rule_is_consistent_with_the_cases_and_the_verdicts():
    # one table states the rule; for n = 2..12, every k and each range, the
    # case letters it names have a ladder and a symmetry, every case is
    # reached, every period is a divisor of n of at least 3, and the
    # hyperbolas admit no periodic partition at an odd n.  The verdicts
    # read the same table: a caustic on each range is offered the letters
    # that range names at the parity of n, and the periodic ladder only
    # where the range admits some k
    E = BoundaryEllipse(3, 2)
    caustic = {"(-b, 0)": F(-1), "(0, a)": F(1), "hyperbola": F(5)}
    assert set(cayley._RANGES) == set(caustic)
    reached = set()
    for n in range(2, 13):
        for span, gamma in caustic.items():
            tags = [cayley._partition(span, n, k) for k in range(1, n)]
            letters = {t for t in tags if isinstance(t, str)}
            periods = [t for t in tags if isinstance(t, int)]
            for case in letters:
                assert cayley.closure_ladder(n, case) in "CDE", (n, span, case)
                assert case_symmetry(case) in ("flip-x", "flip-y", "flip-both")
            assert all(p >= 3 and n % p == 0 for p in periods), (n, span, periods)
            if span == "hyperbola" and n % 2:
                assert periods == [], n
            reached |= letters
            offered = [case for case, _ in cayley._elliptic_candidates(E, gamma, n)]
            assert offered == sorted(letters), (n, span)
            admitted = cayley._periodic(cayley._rule(E, gamma), n, lambda ladder: True)
            assert admitted == bool(periods), (n, span)
    assert reached == set(cayley._CASES)


def test_series_variants_agree_on_prefix():
    E = BoundaryEllipse(3, 2)
    S8 = cubic_sqrt_series(E, 1.2, 8)
    S12 = cubic_sqrt_series(E, 1.2, 12)
    for a, b in zip(S8.coeffs, S12.coeffs):
        assert a == pytest.approx(b, rel=1e-15)


@pytest.mark.parametrize(
    "a, b, gamma, kind",
    [
        (3, F(2), F(4, 3), Fraction),
        (F(7, 3), 2, 5, Fraction),
        (3.0, 2.0, 1.2, float),
        (3, F(2), 1.2, float),
        (F(7, 3), 2, Decimal("1.2"), Decimal),
        (Decimal(3), 2.0, F(4, 3), Decimal),
    ],
)
def test_series_field_follows_the_inputs(a, b, gamma, kind):
    # exact inputs stay rational, any Decimal input switches to Decimal,
    # and anything else (a float among them) runs in float
    B = cubic_sqrt_series(BoundaryEllipse(a, b), gamma, 8)
    for S in (B, *(divided_series(B, letter) for letter in "CDE")):
        assert all(type(c) is kind for c in S.scaled), S.variant


def test_decimal_series_run_at_50_digits_with_fraction_axes_exact():
    # a Fraction axis enters the Decimal field as num/den at 50 digits, not
    # through float, and the series arithmetic keeps all 50 digits
    B = cubic_sqrt_series(BoundaryEllipse(F(7, 3), 2), Decimal("1.2"), 8)
    D = divided_series(B, "a-x")
    with localcontext(Context(prec=50)):
        a = Decimal(7) / Decimal(3)
        c1 = (-(1 / a) + 1 / Decimal(2) - 1 / Decimal("1.2")) / 2
        d0 = 1 / a
        via_float = 1 / Decimal(7 / 3)
    assert B.scaled[1] == c1 and D.scaled[0] == d0
    assert len(d0.as_tuple().digits) == 50 and d0 != via_float


# ---------------------------------------------------------------------------
# the integer closure sign
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(-12, 12),
    a=st.fractions(F(1, 9), 60, max_denominator=9),
    b=st.fractions(F(1, 9), 60, max_denominator=9),
    gamma=st.fractions(-200, 200, max_denominator=97),
    n=st.integers(2, 20),
    ladder=st.sampled_from("BCDE"),
)
def test_closure_det_matches_the_fraction_determinant(k, a, b, gamma, n, ladder):
    # the integer Hankel block differs from the scaled Fraction block of
    # hankel_test by positive row and column factors, on every ladder and
    # at every scale, so it gives the same value and, above all, the same
    # sign: the series recurrence and the symmetric elimination are checked
    # against the square-root recurrence and Fraction elimination on blocks
    # up to 10 x 10
    assume(ladder != "B" or (n % 2 == 0 and n >= 4))
    lam = F(10) ** k
    E = BoundaryEllipse(lam * a, lam * b)
    gamma *= lam
    assume(gamma not in (0, E.a, -E.b))
    S = cubic_sqrt_series(E, gamma, n)
    det = hankel_test(S if ladder == "B" else divided_series(S, ladder), n)
    assert F(*cayley.closure_det(1 / E.a, 1 / E.b, 1 / gamma, ladder, n)) == det


@pytest.mark.parametrize(
    "a, b, n, zero",
    [
        (F(3, 10), F(9, 10), 6, True),
        (2, 2, 4, True),
        (3, 1, 6, True),
        (1, 1, 8, True),
        (5, 5, 12, True),
        (3, 2, 4, False),
        (3, 2, 6, False),
    ],
)
def test_closure_det_at_u_zero_marks_lightlike_axes(a, b, n, zero):
    # u = 1/gamma = 0 is an ordinary point: the periodic determinant
    # vanishes there exactly when a/b = cot**2(k pi/n), and changes sign
    ia, ib = 1 / F(a), 1 / F(b)
    dets = [cayley.closure_det(ia, ib, F(u), "B", n)[0] for u in (-1e-9, 0, 1e-9)]
    if zero:
        assert dets[1] == 0 and dets[0] * dets[2] < 0
    else:
        assert dets[1] != 0


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(-12, 12),
    a=st.one_of(st.integers(1, 60), st.fractions(F(1, 9), 60, max_denominator=9)),
    b=st.one_of(st.integers(1, 60), st.fractions(F(1, 9), 60, max_denominator=9)),
    n=st.integers(2, 12),
    ladder=st.sampled_from("BCDE"),
    x=st.integers(-(10**6), 10**6),
)
def test_closure_poly_is_the_closure_det_numerator(k, a, b, n, ladder, x):
    # the interpolated polynomial agrees with the determinant away from its
    # nodes Iu = 0..deg, so the closed-form degree bounds the true one, on
    # int and fraction axes scaled by 10**k
    assume(ladder != "B" or (n % 2 == 0 and n >= 4))
    lam = F(10) ** k
    ia, ib = 1 / (lam * a), 1 / (lam * b)
    poly = cayley.closure_poly(ia, ib, ladder, n)
    size = cayley._hankel_layout(ladder, n)[1]
    assert len(poly) == cayley.closure_degree(ladder, n) + (size if ladder == "C" else 0) + 1
    d = math.lcm(ia.denominator, ib.denominator)
    for iu in (x, len(poly) + abs(x)):
        assert polys.peval(poly, iu) == cayley.closure_det(ia, ib, F(iu, d), ladder, n)[0]
    if ladder == "C":  # every row of the C block carries the factor Iu
        assert not any(poly[:size])
