"""Condition-polynomial caustic solvers and discriminant identities."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pellipse.cayley import _closure_blocks, _periodic_ladder
from pellipse.errors import DomainError
from pellipse.extremal import rotation_ratio

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


#: Axes whose table roots for n = 3..8 all lie farther than 1e-5 (relative)
#: from -b, 0 and a.
_CLEAR_AXES = [(5, 3), (3, 2), (F(41, 7), F(7, 2)), (7, 11)]


def test_generic_scan_matches_closed_forms():
    # the exact table roots check the level sets of the rotation number:
    # the same caustics, partitions and verdicts
    for a, b in _CLEAR_AXES:
        E = BoundaryEllipse(a, b)
        for n in range(3, 9):
            got, want = generic_caustic_scan(E, n), periodic_caustics(E, n)
            rows = [[(r.n1, r.n2, r.validated, r.conic) for r in rs] for rs in (got, want)]
            assert rows[0] == rows[1], (a, b, n)
            gammas = [r.gamma for r in want]
            assert [r.gamma for r in got] == pytest.approx(gammas, rel=1e-14, abs=0), (a, b, n)


#: Axes for the rotation-number checks: integer, fraction and 10**k-scaled.
_ROTATION_AXES = [
    (3, 2),
    (3, 10),
    (6, 4),
    (F(41, 7), F(7, 2)),
    (F(5, 3), F(35, 4)),
    (F(3, 4), F(3, 2)),
    (3000, 2000),
    (F(41, 7000), F(7, 2000)),
    (3e12, 2e12),
]


@pytest.mark.parametrize("a, b", _ROTATION_AXES)
def test_validated_caustics_lie_on_their_level_set(a, b):
    # n rho(gamma) = n1 on every validated caustic, tables and level sets
    # alike.  Within about 1e-8 of -b or a the float spacing of gamma alone
    # moves n rho by more than 1e-9, so n1 may also lie between n rho at
    # the floats two steps either side of gamma
    E = BoundaryEllipse(a, b)
    checked = 0
    for n in range(3, 13):
        for r in periodic_caustics(E, n):
            if not r.validated:
                continue
            step = 2 * math.ulp(r.gamma)
            lo, hi = sorted(n * rotation_ratio(a, b, r.gamma + s) for s in (-step, step))
            assert lo - 1e-9 <= r.n1 <= hi + 1e-9, (n, r.gamma, r.n1)
            checked += 1
    assert checked >= 10


def test_level_sets_keep_the_caustics_at_scale_1e12():
    # the float Hankel test at the divisors called all six "already
    # periodic with period 6" at this scale; the divisor rule is arithmetic
    # on k, and the caustics are reported, validated or not
    disc = []
    rs = generic_caustic_scan(BoundaryEllipse(3e12, 2e12), 12, discarded=disc)
    unit = generic_caustic_scan(BoundaryEllipse(3, 2), 12)
    assert len(rs) == len(unit) == 6
    assert [r.gamma for r in rs] == pytest.approx([1e12 * r.gamma for r in unit], rel=1e-9)
    assert [r.n1 for r in rs if r.validated] == [r.n1 for r in unit if r.validated]
    assert all(d["gamma"] not in {r.gamma for r in rs} for d in disc)


#: Axes for the exact sign-change check of the level-set roots, n = 9..12.
#: Far hyperbola roots, with |gamma| in the hundreds of a + b, sit where rho
#: is flat and can lie hundreds of float steps from the exact root.
_BRACKET_AXES = [
    (3, 2),
    (6, 4),
    (F(41, 7), F(7, 2)),
    (F(5, 3), F(35, 4)),
    (3, 10),
    (12, 3),
    (7, 11),
    (F(7, 5), F(47, 4)),
]


@pytest.mark.parametrize("a, b", _BRACKET_AXES)
def test_level_set_roots_bracket_an_exact_closure_root(a, b):
    # the exact periodic closure determinant changes sign within 1e-14
    # (relative) of every reported caustic and every root discarded as
    # already periodic: the root of rho = k/n is the closure root
    E = BoundaryEllipse(a, b)
    checked = 0
    for n in range(9, 13):
        disc = []
        gammas = [r.gamma for r in generic_caustic_scan(E, n, discarded=disc)]
        gammas += [d["gamma"] for d in disc if d["reason"].startswith("already periodic")]
        for g in gammas:
            ends = (F(g * (1 - 1e-14)), F(g * (1 + 1e-14)))
            lo, hi = (_closure_blocks(E, x, n, [_periodic_ladder(n)])[0][0] for x in ends)
            assert lo * hi < 0, (n, g)
            checked += 1
    assert checked >= 20


def _level_gammas(a, b, n):
    """Sorted gamma of the caustics and the discards of the level-set solver."""
    disc = []
    rs = generic_caustic_scan(BoundaryEllipse(a, b), n, discarded=disc)
    return sorted([r.gamma for r in rs] + [d["gamma"] for d in disc])


@settings(max_examples=30)
@given(
    axes=st.sampled_from([(3, 2), (6, 4), (3, 10), (F(41, 7), F(7, 2)), (F(5, 3), F(35, 4))]),
    n=st.integers(9, 12),
    k=st.integers(-60, 60),
)
def test_level_sets_are_power_of_two_and_swap_equivariant(axes, n, k):
    # (a, b, gamma) -> 2**k (a, b, gamma) is exact in floats, and rho
    # normalises the axes by a power of two, so the bisection of each level
    # set takes the same steps, scaled: the roots scale bit for bit.  The
    # swap (a, b, gamma) -> (b, a, -gamma) bisects on other floats, so it
    # holds to the last bits.  The validation flags are not compared: they
    # are not scale-invariant yet
    a, b = axes
    unit = _level_gammas(a, b, n)
    lam = F(2) ** k
    assert _level_gammas(lam * a, lam * b, n) == [float(lam) * g for g in unit]
    swapped = [-g for g in reversed(_level_gammas(b, a, n))]
    assert swapped == pytest.approx(unit, rel=5e-14, abs=0)


def test_decimal_axes_solve_like_their_fractions():
    # the validation trajectories and the level sets at n = 9 read the
    # float image of the axes, so Decimal axes give the Fraction results
    dec = BoundaryEllipse(Decimal("2.3"), Decimal("10.4"))
    frac = BoundaryEllipse(F(23, 10), F(52, 5))

    def rows(solver, E, n):
        return [(r.gamma, r.n1, r.n2, r.validated, r.case) for r in solver(E, n)]

    for solver, n in ((periodic_caustics, 5), (elliptic_caustics, 3), (elliptic_caustics, 4)):
        assert rows(solver, dec, n) == rows(solver, frac, n)
    got = rows(periodic_caustics, dec, 9)
    assert len(got) == 5
    assert got == rows(periodic_caustics, frac, 9)


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
