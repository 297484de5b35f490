"""Taylor-series and Hankel-determinant periodicity conditions."""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

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
    assert verdict.determinant_value == 0  # exact zero in rational mode


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


def test_elliptic_case_test_builds_one_series(monkeypatch):
    # the periodicity test and every ladder share one order-2n+2 series,
    # and gamma is checked against the degenerate values once
    calls = {"series": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cayley, "cubic_sqrt_series", counted("series", cayley.cubic_sqrt_series))
    monkeypatch.setattr(cayley, "_check_gamma", counted("check", cayley._check_gamma))
    assert elliptic_case_test(BoundaryEllipse(6, 3), -1.2 - 0.8 * math.sqrt(6), 3).case == "d"
    assert calls == {"series": 1, "check": 1}


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
