"""Condition-polynomial caustic solvers and discriminant identities."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from pellipse import (
    BoundaryEllipse,
    ConicClass,
    DISCRIMINANT_IDENTITIES,
    closed_form_caustics,
    discriminant_identity_check,
    elliptic_caustics,
    generic_caustic_scan,
    periodic_caustics,
)
from pellipse.errors import DomainError

F = Fraction


def test_closed_form_n3():
    # gamma_{1,2} = ab(a-b +- 2 sqrt(a^2+ab+b^2)) / (a+b)^2 (+ upper sign)
    got = closed_form_caustics(BoundaryEllipse(3, 2), 3)
    s = 2 * math.sqrt(19)
    want = sorted([6 * (1 - s) / 25, 6 * (1 + s) / 25])
    assert [float(g) for g in got] == pytest.approx(want, rel=1e-14)


def test_closed_form_n4_exact():
    got = closed_form_caustics(BoundaryEllipse(F(5), F(3)), 4)
    assert got == [F(-15, 2), F(-15, 8), F(15, 8)]
    # a = b drops the hyperbola value
    sym = closed_form_caustics(BoundaryEllipse(F(2), F(2)), 4)
    assert sym == [F(-1), F(1)]


def test_closed_form_bad_period():
    with pytest.raises(DomainError):
        closed_form_caustics(BoundaryEllipse(3, 2), 5)


def test_periodic_caustics_n3_validated():
    rs = periodic_caustics(BoundaryEllipse(3, 2), 3)
    assert len(rs) == 2
    assert all(r.validated and r.kind == "periodic" for r in rs)
    assert (rs[0].n1, rs[0].n2) == (1, 2)  # x-axis ellipse caustic
    assert (rs[1].n1, rs[1].n2) == (2, 1)
    assert all(r.conic is ConicClass.EllipseOfFamily for r in rs)


def test_periodic_caustics_rational_root_is_exact():
    rs = periodic_caustics(BoundaryEllipse(F(2), F(4)), 4)
    by_gamma = {r.gamma: r for r in rs}
    assert by_gamma[4.0 / 3.0].gamma_exact == F(4, 3)
    # irrational roots expose no exact value
    rs3 = periodic_caustics(BoundaryEllipse(3, 2), 3)
    assert all(r.gamma_exact is None for r in rs3)


def test_periodic_caustics_symmetry_swap():
    # swapping (a, b) mirrors gamma -> -gamma and swaps the partition
    r1 = periodic_caustics(BoundaryEllipse(3, 7), 7)
    r2 = periodic_caustics(BoundaryEllipse(7, 3), 7)
    g1 = sorted(r.gamma for r in r1)
    g2 = sorted(-r.gamma for r in r2)
    assert g1 == pytest.approx(g2, rel=1e-9)


def test_elliptic_caustics_n2_cases():
    rs = elliptic_caustics(BoundaryEllipse(F(5), F(3)), 2)
    table = {r.case: r for r in rs}
    assert table["a"].gamma_exact == F(15, 8) and table["a"].sigma == "flip-x"
    assert table["b"].gamma_exact == F(-15, 8) and table["b"].sigma == "flip-y"
    assert table["c"].gamma_exact == F(-15, 2) and table["c"].sigma == "flip-both"
    assert all(r.validated for r in rs)


def test_elliptic_caustics_odd_hyperbola_cases():
    rs = elliptic_caustics(BoundaryEllipse(6, 3), 3)
    cases = {r.case for r in rs}
    assert "d" in cases  # hyperbola root of the E-ladder quadratic
    d = next(r for r in rs if r.case == "d")
    assert d.gamma == pytest.approx(-3.1595918, abs=1e-6)
    assert d.sigma == "flip-x" and d.validated


def test_generic_scan_discards_lower_periods():
    E = BoundaryEllipse(3, 2)
    disc = []
    rs = generic_caustic_scan(E, 9, discarded=disc)
    assert all(r.validated for r in rs)
    reasons = [d["reason"] for d in disc]
    assert any("period 3" in r for r in reasons)
    # odd period: every caustic is an ellipse of the family
    assert all(r.conic is ConicClass.EllipseOfFamily for r in rs)


def test_generic_scan_matches_closed_forms():
    E = BoundaryEllipse(5, 3)
    got = sorted(r.gamma for r in generic_caustic_scan(E, 6))
    want = sorted(r.gamma for r in periodic_caustics(E, 6))
    assert got == pytest.approx(want, rel=1e-6)


def test_decimal_axes_solve_like_their_fractions():
    # the validation trajectories run on the float image of the axes, so
    # Decimal axes give the Fraction results; the scan at n = 9 runs its
    # determinants in 50 digits and moves the roots in their last bits
    dec = BoundaryEllipse(Decimal("2.3"), Decimal("10.4"))
    frac = BoundaryEllipse(F(23, 10), F(52, 5))

    def rows(solver, E, n):
        return [(r.gamma, r.n1, r.n2, r.validated, r.case) for r in solver(E, n)]

    for solver, n in ((periodic_caustics, 5), (elliptic_caustics, 3), (elliptic_caustics, 4)):
        assert rows(solver, dec, n) == rows(solver, frac, n)
    got, want = rows(periodic_caustics, dec, 9), rows(periodic_caustics, frac, 9)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert g[1:] == w[1:]
        assert g[0] == pytest.approx(w[0], rel=1e-9)


def test_discriminant_spot_value():
    builder, rhs, _deg = DISCRIMINANT_IDENTITIES["G2"]
    assert rhs(3, 2) == 10944
    assert discriminant_identity_check("G2", 3, 2) == 0


def test_discriminant_exact_zero_all_identities():
    for name in DISCRIMINANT_IDENTITIES:
        assert discriminant_identity_check(name, F(7, 2), F(5, 3)) == 0, name


def test_discriminant_degenerate_pairs_rejected():
    for name, (a, b) in (("G3", (2, 2)), ("G8", (9, 3)), ("G1e", (2, 6)), ("G2e", (6, 2))):
        with pytest.raises(DomainError):
            discriminant_identity_check(name, a, b)


def test_discriminant_unknown_name():
    with pytest.raises(DomainError):
        discriminant_identity_check("G99", 3, 2)


def test_to_jsonable_round_trip():
    r = periodic_caustics(BoundaryEllipse(F(2), F(4)), 4)[0]
    doc = r.to_jsonable()
    assert doc["kind"] == "periodic" and doc["n"] == 4
    assert isinstance(doc["gamma"], float)
    assert doc["gamma_exact"] is None or isinstance(doc["gamma_exact"], str)
