"""The caustic solvers, their root source, and the discriminant identities."""

import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pellipse import (
    BoundaryEllipse,
    caustics,
    cayley,
    dynamics,
    polys,
    ConicClass,
    DISCRIMINANT_IDENTITIES,
    closed_form_caustics,
    discriminant_identity_check,
    elliptic_caustics,
    generic_caustic_scan,
    periodic_caustics,
)
from pellipse.caustics import _level_roots, _roots, _spurious_reason
from pellipse.cayley import (
    _elliptic_candidates,
    closure_det,
    closure_ladder,
    closure_poly_gamma,
    elliptic_case_test,
    is_periodic,
)
from pellipse.cli import main
from pellipse.config import DEGENERATE
from pellipse.errors import DomainError
from pellipse.extremal import kln_partition, rotation_ratio
from pellipse.geometry import degenerate_value

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


def test_closed_form_n4_values_are_exact_closure_roots():
    # the exact period-4 closure determinant vanishes at each closed form
    axes = [(5, 3), (3, 2), (12, 2), (7, 11), (F(41, 7), F(7, 2)), (F(3, 10**12), F(2, 10**12))]
    axes.append((F(41, 7) * 10**6, F(7, 2) * 10**6))
    for a, b in axes:
        values = closed_form_caustics(BoundaryEllipse(a, b), 4)
        assert len(values) == 3
        assert all(closure_det(1 / F(a), 1 / F(b), 1 / v, "B", 4)[0] == 0 for v in values), (a, b)


_axis = st.one_of(st.integers(1, 60), st.fractions(F(1, 9), 60, max_denominator=9))


@settings(max_examples=30, deadline=None)
@given(a=_axis, b=_axis, k=st.integers(-12, 12))
def test_closed_form_n3_surds_lie_near_the_exact_roots(a, b, k):
    # the surds are floats, not correctly rounded: within 8 units in the
    # last place of the exact real roots of the generated condition (4.1
    # measured), on int and fraction axes scaled by 10**k
    E = BoundaryEllipse(F(a) * F(10) ** k, F(b) * F(10) ** k)
    roots = [float(r) for r in polys.real_roots(gamma_poly(E, "C", 3))]
    got = closed_form_caustics(E, 3)
    assert len(roots) == len(got) == 2
    assert all(abs(g - r) <= 8 * math.ulp(r) for g, r in zip(got, roots)), (got, roots)


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


def test_far_hyperbola_caustics_get_a_start():
    # their tangents meet the boundary only where |u| is well beyond 2.5, so
    # the start widens its draw window past that bound
    far = min(periodic_caustics(BoundaryEllipse(F(31, 5), F(13, 4)), 10), key=lambda r: r.gamma)
    assert far.gamma == pytest.approx(-675.87, rel=1e-5)
    assert far.validated and (far.n1, far.n2) == (6, 4)
    far = min(elliptic_caustics(BoundaryEllipse(F(52, 5), F(83, 8)), 2), key=lambda r: r.gamma)
    assert far.gamma_exact == -4316
    assert far.validated and (far.n1, far.n2) == (1, 1)


def test_one_degenerate_rule_for_screen_series_and_quadrature():
    # 3.5e-9 from a = 3 lies within DEGENERATE * (1 + a) = 4e-9
    E, gamma = BoundaryEllipse(3, 2), 3 + 3.5e-9
    assert degenerate_value(gamma, E) == ("a", 3)
    assert _spurious_reason(E, gamma) == "degenerate conic (gamma = a)"
    with pytest.raises(DomainError, match="degenerate value 3"):
        is_periodic(E, gamma, 4)
    with pytest.raises(DomainError, match="degenerate value 3"):
        kln_partition(E, gamma)
    # exact parameters on exact axes compare exactly
    exact = BoundaryEllipse(F(3), F(2))
    assert degenerate_value(F(3) + F(1, 10**12), exact) is None
    assert degenerate_value(F(-2), exact) == ("-b", -2) and degenerate_value(0, exact) == ("0", 0)


def test_generic_scan_discards_lower_periods():
    E = BoundaryEllipse(3, 2)
    disc = []
    rs = generic_caustic_scan(E, 9, discarded=disc)
    assert all(r.validated for r in rs)
    reasons = [d["reason"] for d in disc]
    assert any("period 3" in r for r in reasons)
    # odd period: every caustic is an ellipse of the family
    assert all(r.conic is ConicClass.EllipseOfFamily for r in rs)


# ---------------------------------------------------------------------------
# the table oracle: the closure conditions as explicit polynomials in gamma,
# generated from the exact determinant, whose exact real roots check the
# level-set source; literal fixtures of the small periods check the generator
# ---------------------------------------------------------------------------


def _lin_d(a, b):
    """n = 2, case a: ``gamma = ab/(a+b)``."""
    return [-a * b, a + b]


def _lin_e(a, b):
    """n = 2, case b: ``gamma = -ab/(a+b)``."""
    return [a * b, a + b]


def _lin_c(a, b):
    """n = 2, case c: ``gamma = ab/(b-a)``; drops out when ``a = b``."""
    return [-a * b, b - a]


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


#: (period, ladder, literal condition in gamma) of the small elliptic periods.
_LITERAL_FIXTURES = [
    (2, "D", _lin_d),
    (2, "E", _lin_e),
    (2, "C", _lin_c),
    (5, "E", _e5_sextic),
    (5, "D", _d5_sextic),
]

#: The ladders of the elliptic closure cases at even and at odd periods.
_ELLIPTIC_LADDERS = {0: "DEC", 1: "ED"}


@cache
def gamma_poly(E, ladder, n):
    """The closure condition of ``ladder`` at period ``n`` in ``gamma``, ascending, exactly."""
    return closure_poly_gamma(1 / F(E.a), 1 / F(E.b), ladder, n)


def _without(p, others):
    """``p``, primitive, divided by its gcd with each of ``others``."""
    p = polys._int_poly(p)
    for q in others:
        p = _divide(p, polys._gcd(p, polys._int_poly(q)))
    return p


def _divide(p, u):
    """``p / u`` for primitive integer polynomials, ``u`` a factor: integral by Gauss's lemma.

    In integers: ``polys.pdivmod``, in ``Fraction`` over a field, is far
    slower at these sizes.
    """
    q, r = [], list(p)
    while len(r) >= len(u):
        c, rem = divmod(r[-1], u[-1])
        shift = len(r) - len(u)
        r = [x - c * u[i - shift] if i >= shift else x for i, x in enumerate(r)][:-1]
        q.append(c)
        assert rem == 0
    assert not any(r)
    return q[::-1]


def periodic_factor(E, n):
    """The factor of the period-``n`` condition whose real roots are new ``n``-periodic caustics.

    The roots of each proper divisor period ``d >= 3`` are divided out.
    """
    shorter = [gamma_poly(E, closure_ladder(d), d) for d in range(3, n) if n % d == 0]
    return _without(gamma_poly(E, closure_ladder(n), n), shorter)


def elliptic_factors(E, n):
    """``(ladder, factor)`` per elliptic ladder at period ``n``, without shorter mirror closures.

    A root that closes onto its mirror image after a proper divisor ``d``
    of ``n`` does so after ``n`` steps too when ``n/d`` is odd.
    """
    shorter = [
        gamma_poly(E, ladder, d)
        for d in range(2, n)
        if n % d == 0 and (n // d) % 2
        for ladder in _ELLIPTIC_LADDERS[d % 2]
    ]
    ladders = _ELLIPTIC_LADDERS[n % 2]
    return [(ladder, _without(gamma_poly(E, ladder, n), shorter)) for ladder in ladders]


def _variations_at(chain, side):
    """Sturm's sign variations of ``chain`` at ``+inf`` (``side`` 1) or ``-inf`` (``side`` -1)."""
    signs = [side ** (len(p) - 1) * (1 if p[-1] > 0 else -1) for p in chain]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _root_count(f, E, keep):
    """Sturm's count of the distinct real roots ``r`` of square-free ``f`` with ``keep(float(r))``.

    ``keep`` must be constant between the cuts: ``-b``, 0 and ``a``, and
    the ends of the windows of the degenerate-value screen around them.
    The count between two cuts is the drop of Sturm's sign variations.
    """
    chain = polys._sturm(f)
    assert len(chain[-1]) == 1, "not square-free"
    width = F(DEGENERATE)
    cuts = sorted({F(v) + s * width * (1 + abs(F(v))) for v in (-E.b, 0, E.a) for s in (-1, 0, 1)})
    inner = [cuts[0] - 1, *((x + y) / 2 for x, y in zip(cuts, cuts[1:])), cuts[-1] + 1]

    @cache
    def var(i):  # at cuts[i]; -inf before the first cut, +inf after the last
        if i in (-1, len(cuts)):
            return _variations_at(chain, -1 if i < 0 else 1)
        return polys._variations(chain, cuts[i])

    return sum(var(i - 1) - var(i) for i, x in enumerate(inner) if keep(float(x)))


def _rounds_a_root(f, gamma, exact):
    """Whether the float ``gamma`` is a root of ``f`` correctly rounded, rational as ``exact`` says.

    An ``exact`` root must round to ``gamma``.  Otherwise ``f`` changes
    sign across the rounding interval of ``gamma``, and the root has no
    rational with a denominator up to ``10**9`` next to it: once the
    bracket is narrower than ``10**-18``, the least gap between two such
    rationals, the nearest of them is the only one it can be.
    """
    if exact is not None:
        return float(exact) == gamma and polys.peval(f, exact) == 0
    lo, hi = (F(*cayley._midpoint_above(x)) for x in (math.nextafter(gamma, -math.inf), gamma))
    sign = polys._sign_at(f, lo)
    if sign * polys._sign_at(f, hi) >= 0:
        return False
    while hi - lo > F(1, 10**18):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if polys._sign_at(f, mid) == sign else (lo, mid)
    cand = ((lo + hi) / 2).limit_denominator(10**9)
    return not (lo <= cand <= hi and polys.peval(f, cand) == 0)


def _assert_one_for_one(f, E, keep, landed):
    """The landed ``(gamma, exact)`` are the real roots of ``f`` that ``keep`` keeps, one for one.

    The floats are distinct, ascending and kept, each rounds a root of
    ``f``, and so distinct roots, for the rounding intervals of distinct
    floats are disjoint; there are as many as Sturm counts on the kept
    ranges.
    """
    gammas = [gamma for gamma, _ in landed]
    assert gammas == sorted(set(gammas)), gammas
    assert all(keep(gamma) for gamma in gammas), gammas
    assert _root_count(f, E, keep) == len(landed), gammas
    assert all(_rounds_a_root(f, gamma, exact) for gamma, exact in landed), landed


#: Axes for the oracle: integer, fraction and 10**k-scaled, none light-like.
_ORACLE_AXES = [
    (5, 3),
    (3, 2),
    (12, 2),
    (7, 11),
    (F(41, 7), F(7, 2)),
    (F(74, 7), F(25, 9)),
    (F(4, 3), 2),
    (F(3, 10**3), F(2, 10**3)),
    (F(41, 7) * 10**6, F(7, 2) * 10**6),
    (F(7, 10**12), F(11, 10**12)),
]


@pytest.mark.parametrize("a, b", _ORACLE_AXES)
def test_literal_fixtures_are_the_generated_conditions(a, b):
    # the conditions of the small periods typed out by hand are the
    # generated ones up to a constant factor
    E = BoundaryEllipse(a, b)
    for n, ladder, fixture in _LITERAL_FIXTURES:
        got, want = gamma_poly(E, ladder, n), polys.trim(fixture(F(a), F(b)))
        assert len(got) == len(want), (n, ladder)
        assert all(g * want[0] == w * got[0] for g, w in zip(got, want)), (n, ladder)


@pytest.fixture
def unsimulated(monkeypatch):
    """The solvers without their simulated validation, which the oracle does not read."""
    monkeypatch.setattr(caustics, "_sim_closure", lambda *args, **kwargs: (False, None, None, None))


def test_generic_scan_matches_closed_forms(unsimulated):
    # the landed level-set roots are the exact real roots of the periodic
    # condition polynomials rounded to floats, bit for bit, with their exact
    # values, for n = 3..12: Sturm's theorem counts the roots on the ranges
    # the spurious-root filter keeps, and each reported float rounds one.
    # The oracle's own filter drops the hyperbola roots of odd periods,
    # which the solver's parity rule never locates
    for a, b in _ORACLE_AXES:
        E = BoundaryEllipse(a, b)
        for n in range(3, 13):
            f = periodic_factor(E, n)
            got = [(r.gamma, r.gamma_exact) for r in generic_caustic_scan(E, n)]
            keep = lambda g: (  # noqa: E731
                _spurious_reason(E, g) is None and (n % 2 == 0 or -b < g < a)
            )
            _assert_one_for_one(f, E, keep, got)


_LANDING = "no sign change of the closure determinant within 1048576 float steps"
_U_ZERO = "light-like root at u = 0: gamma = inf is not landed"


@pytest.mark.parametrize(
    "a, b, n, gammas, reasons",
    [
        # a/b = cot**2(pi/3): the light-like root near u = 0 finds no sign
        # change within reach in gamma, and is discarded
        (F(3, 10), F(9, 10), 6, [-0.0823557158514987, 0.1125, 0.3073557158514987],
         [_LANDING] + ["already periodic with period 3"] * 2),
        # a = b, a/b = cot**2(pi/4): the locator meets u = 0 exactly, and
        # the root at gamma = inf is discarded as such
        (2, 2, 4, [-1.0, 1.0], [_U_ZERO]),
        (1, 1, 8, [-1.0290855136357462, -0.9734826640642023, -0.11263521304945992,
                   0.11263521304945992, 0.9734826640642023, 1.0290855136357462],
         ["already periodic with period 4"] * 2 + [_U_ZERO]),
    ],
)
def test_lightlike_axes_keep_their_caustics(a, b, n, gammas, reasons):
    # on light-like axes the hyperbola range passes through the light-like
    # caustic at u = 0; the other caustics are found and validated as on
    # any axes
    discarded = []
    rs = periodic_caustics(BoundaryEllipse(a, b), n, discarded=discarded)
    assert [r.gamma for r in rs] == gammas and all(r.validated for r in rs)
    assert [d["reason"] for d in discarded] == reasons
    assert all(abs(d["gamma"]) > 1e15 for d in discarded if d["reason"] == _LANDING)
    assert all(d["gamma"] == "inf" for d in discarded if d["reason"] == _U_ZERO)


@pytest.mark.parametrize("a, b", _ORACLE_AXES)
def test_elliptic_caustics_match_the_table_roots(unsimulated, a, b):
    # the same for the mirror-closure factors, n = 2..12, ladder by ladder:
    # the landed roots ascend, each takes the case of a ladder of its parity
    # whose factor has it as a root, and the count runs over the ranges
    # where that ladder is open
    E = BoundaryEllipse(a, b)
    for n in range(2, 13):
        got = elliptic_caustics(E, n)
        assert [r.gamma for r in got] == sorted(r.gamma for r in got), n
        ladders = {closure_ladder(n, r.case) for r in got}
        assert ladders <= set(_ELLIPTIC_LADDERS[n % 2]), (n, ladders)
        for ladder, f in elliptic_factors(E, n):
            mine = [r for r in got if closure_ladder(n, r.case) == ladder]
            keep = lambda g: (  # noqa: E731
                ladder in [lad for _, lad in _elliptic_candidates(E, g, n)]
                and _spurious_reason(E, g) is None
            )
            _assert_one_for_one(f, E, keep, [(r.gamma, r.gamma_exact) for r in mine])
            for r in mine:
                cases = [c for c, lad in _elliptic_candidates(E, r.gamma, n) if lad == ladder]
                assert r.case == cases[0], (n, r.gamma)


@pytest.mark.parametrize(
    "a, b",
    [
        (3, 2),
        (5, 11),
        (F(41, 7), F(7, 2)),
        (F(5, 3) * 10**6, F(35, 4) * 10**6),
        (F(3, 10**4), F(1, 10**3)),
    ],
)
def test_an_odd_period_hyperbola_root_lands_on_its_own_ladder_alone(a, b):
    # for odd n the parity of k names the one ladder of a hyperbola root:
    # E for case d (k odd), D for case e (k even).  Every root that lands
    # on it lands on no other, so a trial of the other ladder, as a
    # fallback, could find nothing; on int, fraction and 10**k-scaled axes
    E = BoundaryEllipse(a, b)
    other = {"d": "D", "e": "E"}
    checked = 0
    for n in range(3, 12, 2):
        for gamma, case in _level_roots(E, n, True):
            if case not in other or _landed_on(E, gamma, n, closure_ladder(n, case)) is None:
                continue
            assert _landed_on(E, gamma, n, other[case]) is None, (n, gamma, case)
            checked += 1
    assert checked >= 25


@pytest.mark.parametrize("a, b", [(3, 2), (5, 11), ("41/7", "7/2"), (12, 3)])
def test_odd_period_elliptic_cases_follow_the_parity_of_n1(capsys, a, b):
    # from the simulation side: a validated elliptic caustic of odd period
    # has case a or d (ladder E, flip-x) exactly when its simulated n1,
    # which is k, is odd
    for n in range(3, 12, 2):
        assert main(["solve", "--elliptic", "--n", str(n), "--a", str(a), "--b", str(b)]) == 0
        found = json.loads(capsys.readouterr().out)["caustics"]
        validated = [c for c in found if c["validated"]]
        assert len(validated) >= n - 1, (n, len(validated))
        for c in validated:
            assert (c["case"] in ("a", "d")) == (c["n1"] % 2 == 1), (n, c)


def _sturm_count(E, ladder, n):
    """Sturm's count of the distinct real roots ``gamma`` of the closure condition of ``(ladder, n)``."""
    return _root_count(polys.squarefree_part(gamma_poly(E, ladder, n)), E, lambda g: True)


@pytest.mark.parametrize(
    "a, b",
    [(3, 2), (F(41, 7), F(7, 2)), (F(5, 3) * 10**6, F(35, 4) * 10**6), (F(3, 10**4), F(1, 10**3))],
)
def test_closure_polynomials_count_every_level_set_root(a, b):
    # completeness, proven for n = 3..12 on int, fraction and 10**k-scaled
    # axes, none light-like: the periodic closure polynomial has as many
    # real roots as the level sets of rho locate, divisor-tagged roots
    # included, and the elliptic ladders' polynomials as many as the
    # elliptic level-set roots of n and of each divisor d with n/d odd,
    # whose mirror closure after d steps recurs after n
    E = BoundaryEllipse(a, b)
    elliptic = {n: len(_level_roots(E, n, True)) for n in range(2, 13)}
    for n in range(3, 13):
        assert _sturm_count(E, closure_ladder(n), n) == len(_level_roots(E, n, False)), n
        counts = sum(_sturm_count(E, ladder, n) for ladder in _ELLIPTIC_LADDERS[n % 2])
        shorter = sum(elliptic[d] for d in range(2, n) if n % d == 0 and (n // d) % 2)
        assert counts == elliptic[n] + shorter, n


@pytest.mark.parametrize("a, b", [(3, 2), (F(41, 7), F(7, 2)), (F(5, 3), F(35, 4))])
def test_elliptic_caustics_of_long_periods_lie_on_their_level_set(a, b):
    # each validated elliptic caustic of a long period bounces n * rho
    # times on the ellipse arcs
    E = BoundaryEllipse(a, b)
    for n in range(6, 11):
        rs = elliptic_caustics(E, n)
        assert sum(r.validated for r in rs) >= n - 2, n
        for r in rs:
            assert r.kind == "elliptic" and r.sigma is not None
            if r.validated:
                assert abs(n * rotation_ratio(a, b, r.gamma) - r.n1) <= 1e-9, (n, r.gamma)
    with pytest.raises(DomainError):
        elliptic_caustics(E, 1)


def test_lightlike_axes_discard_the_root_at_infinity(capsys):
    # a/b = 1/3 = cot**2(pi/3): the root of rho = 2/6 lies at u = 1/gamma = 0,
    # where the level set places a float near -4.5e15; the determinant has
    # no sign change within reach of it, so it is discarded, with its reason
    rc = main(["solve", "--n", "6", "--a", "3/10", "--b", "9/10"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    rows = [(c["gamma"], c["gamma_exact"], c["n1"], c["validated"]) for c in doc["caustics"]]
    assert rows == [
        (-0.0823557158514987, None, 4, True),
        (0.1125, "9/80", 2, True),
        (0.3073557158514987, None, 4, True),
    ]
    far = [d for d in doc["discarded"] if d["reason"].startswith("no sign change")]
    assert len(far) == 1 and far[0]["gamma"] < -1e15


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


#: Axes for the exact check of the landed roots; (3, 10) and (12, 3) have
#: far hyperbola roots, where rho is flat and its level set can lie
#: hundreds of float steps from the exact root.
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
    # the exact period-n closure determinant changes sign across the
    # rounding interval of every reported caustic and every root discarded
    # as already periodic (which landed on its own period's determinant):
    # each is the correctly rounded closure root
    E = BoundaryEllipse(a, b)
    ia, ib = 1 / F(a), 1 / F(b)
    checked = 0
    for n in range(3, 13):
        disc = []
        gammas = [r.gamma for r in generic_caustic_scan(E, n, discarded=disc)]
        gammas += [d["gamma"] for d in disc if d["reason"].startswith("already periodic")]
        for g in gammas:
            ends = [(F(math.nextafter(g, t)) + F(g)) / 2 for t in (-math.inf, math.inf)]
            lo, hi = (closure_det(ia, ib, 1 / x, closure_ladder(n), n)[0] for x in ends)
            assert lo * hi <= 0, (n, g)
            checked += 1
    assert checked >= 40


@given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_midpoint_above_is_the_exact_midpoint_in_lowest_terms(x):
    up = math.nextafter(x, math.inf)
    if math.isinf(up):
        return
    num, den = cayley._midpoint_above(x)
    assert F(num, den) == (F(x) + F(up)) / 2
    assert den > 0 and math.gcd(num, den) == 1


def _record_landing_evals(monkeypatch, record):
    """Make each ``det(p, q)`` of :func:`cayley._landing_det` call ``record(ladder, m, p, q)``."""
    landing_det = cayley._landing_det

    def recorded_landing_det(E):
        dets = landing_det(E)

        def det(ladder, m):
            inner = dets(ladder, m)
            return lambda p, q: record(ladder, m, p, q) or inner(p, q)

        return det

    monkeypatch.setattr(cayley, "_landing_det", recorded_landing_det)


def test_landing_costs_about_three_exact_evaluations_per_root(monkeypatch):
    # two at the ends of the rounding interval, a third when the located
    # float is not yet correctly rounded, and none at an irrational
    # root's exact candidate: 138 evaluations for 45 roots when measured
    calls, roots = [], []
    landed = cayley._landed
    _record_landing_evals(monkeypatch, lambda *args: calls.append(1))
    monkeypatch.setattr(
        cayley, "_landed", lambda *args: roots.append(out := landed(*args)) or out
    )
    for n in range(9, 13):
        periodic_caustics(BoundaryEllipse(5, 11), n)
    landed_roots = [r for r in roots if r is not None]
    assert len(landed_roots) == 45
    assert 2 * len(landed_roots) <= len(calls) <= 3.2 * len(landed_roots)


def _exact_candidate_by_fractions(lo, hi, num, den, dist):
    """The ``Fraction`` form of :func:`cayley._exact_candidate`: its reference."""
    (lo_n, lo_d), (hi_n, hi_d) = lo, hi
    d = max(lo_d, hi_d)
    lo_n, hi_n = lo_n * (d // lo_d), hi_n * (d // hi_d)
    secant = F((hi_n << 64) - (hi_n - lo_n) * ((num << 64) // den if den else 0), d << 64)
    w = (hi_n - lo_n) / d
    eps = 2**12 * w * w / dist
    bound = min(10**9, int((2**10 * eps) ** -0.5)) if eps else 10**9
    if not bound:
        return None
    cand = secant.limit_denominator(bound)
    near = abs(cand - secant) <= min(eps, w)
    return cand if cand and near and F(lo_n, d) <= cand <= F(hi_n, d) else None


@settings(max_examples=300)
@given(
    p=st.integers(-(10**12), 10**12),
    q=st.integers(1, 10**9),
    off=st.sampled_from([F(0), F(1, 2**40), F(-1, 2**70)])
    | st.fractions(-2, 2, max_denominator=2**80),
    g=st.integers(-(2**200), 2**200).filter(bool),
    dist=st.floats(1e-6, 1e6),
)
@example(p=4 * 2**42 + 3, q=4, off=F(0), g=1, dist=16.0)  # a tie at bound 2
@example(p=7, q=3, off=None, g=1, dist=1.0)  # den = 0: the secant at hi
def test_exact_candidate_on_integers_matches_the_fraction_version(p, q, off, g, dist):
    # the secant lies off interval widths w from a rational root p/q: at
    # the root, within a tiny part of w, or anywhere near the rounding
    # interval of its float (an irrational-looking root), with num/den
    # unreduced by g; the integer walk names the Fraction version's candidate
    x = p / q
    assume(x != 0)
    lo, hi = (cayley._midpoint_above(y) for y in (math.nextafter(x, -math.inf), x))
    w = F(*hi) - F(*lo)
    if off is None:
        num, den = g, 0
    else:
        ratio = (F(*hi) - F(p, q) - off * w) / w
        num, den = ratio.numerator * g, ratio.denominator * g
    want = _exact_candidate_by_fractions(lo, hi, num, den, dist)
    assert cayley._exact_candidate(lo, hi, num, den, dist) == want


def _is_midpoint(x: Fraction) -> bool:
    """Whether the rational ``x`` is the midpoint between two adjacent floats."""
    f = float(x)
    return any(F(*cayley._midpoint_above(y)) == x for y in (f, math.nextafter(f, -math.inf)))


@pytest.mark.parametrize(
    "a, b, n",
    [(10**6, 3, 11), (10**6, 3, 10), (5, 11, 12), (F(41, 7), F(7, 2), 8), (10**20, 2 * 10**20, 4)],
)
def test_exact_candidates_are_evaluated_only_in_the_rounding_interval(monkeypatch, a, b, n):
    # besides the midpoints that bracket the root, landing and its exact
    # step evaluate the determinant at one exact candidate at most, and
    # only inside the final rounding interval; (10**6, 3) has roots within
    # a few float steps of -b, whose nearest small-denominator fraction -3
    # lies outside
    landed, calls, outs = cayley._landed, [], []

    def recorded_landing(det, gamma):
        calls.append([])  # the gammas at which this root's determinant is taken
        outs.append(landed(det, gamma))
        return outs[-1]

    monkeypatch.setattr(cayley, "_landed", recorded_landing)
    _record_landing_evals(monkeypatch, lambda ladder, m, p, q: calls[-1].append(F(p, q)))
    periodic_caustics(BoundaryEllipse(a, b), n)
    assert calls and all(calls), calls
    for gammas, out in zip(calls, outs):
        cands = [x for x in gammas if not _is_midpoint(x)]
        if out is None:
            assert not cands, cands
            continue
        g = out[0]
        lo, hi = (F(*cayley._midpoint_above(x)) for x in (math.nextafter(g, -math.inf), g))
        assert len(cands) <= 1 and all(lo <= x <= hi for x in cands), (g, cands)
    assert any(outs)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--n", "12", "--a", "3", "--b", "2"], False),
        (["--n", "9", "--a", "5", "--b", "11"], False),
        (["--elliptic", "--n", "9", "--a", "12", "--b", "3"], False),
        (["--n", "8", "--a", "5", "--b", "11"], True),
    ],
)
def test_exact_candidates_are_named_for_printed_caustics_only(monkeypatch, capsys, argv, named):
    # the screens come first: a root discarded at a degenerate value or as
    # already periodic gets no exact candidate; at a period where Mazur's
    # bound allows a rational caustic, each printed caustic gets one, named
    # for the upper end of its rounding interval, and at any other period
    # none does
    candidate, ends = cayley._exact_candidate, []

    def recorded_candidate(lo, hi, *args):
        ends.append(hi)
        return candidate(lo, hi, *args)

    monkeypatch.setattr(cayley, "_exact_candidate", recorded_candidate)
    assert main(["solve", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["discarded"] and doc["caustics"]
    printed = [cayley._midpoint_above(c["gamma"]) for c in doc["caustics"]]
    assert sorted(ends) == (sorted(printed) if named else [])


@pytest.mark.parametrize("n", [9, 12])
@pytest.mark.parametrize("a, b", [(3, 2), (5, 11), (F(41, 7), F(7, 2)), (3, 10)])
def test_divisor_roots_are_evaluated_on_their_own_period_only(monkeypatch, capsys, a, b, n):
    # a root tagged with a proper divisor d of n closes after d steps: it
    # lands on the small period-d block, never on the period-n one, and a
    # root of period n on the period-n block only
    tags, current, evals = {}, [], []
    level_roots, landed = caustics._level_roots, cayley._landed

    def recorded_roots(*args):
        tags.update(out := level_roots(*args))
        return out

    def recorded_landing(det, gamma):
        current.append(gamma)
        return landed(det, gamma)

    monkeypatch.setattr(caustics, "_level_roots", recorded_roots)
    monkeypatch.setattr(cayley, "_landed", recorded_landing)
    _record_landing_evals(monkeypatch, lambda *args: evals.append((current[-1], *args[:2])))
    assert main(["solve", "--n", str(n), "--a", str(a), "--b", str(b)]) == 0
    capsys.readouterr()
    assert evals
    assert any(d < n for d in tags.values()) and any(d == n for d in tags.values())
    assert {g for g, _, _ in evals} == set(tags)
    for gamma, ladder, m in evals:
        assert (ladder, m) == (closure_ladder(tags[gamma]), tags[gamma]), gamma


@pytest.mark.parametrize("a, b", [(3, 2), (5, 11), (F(41, 7), F(7, 2)), (3, 10), (12, 3)])
def test_divisor_discards_rest_on_their_own_periods_sign_change(a, b):
    # every root discarded as already periodic with period d is proven so
    # by the integer period-d determinant, which changes sign across the
    # root's rounding interval
    E = BoundaryEllipse(a, b)
    ia, ib = 1 / F(a), 1 / F(b)
    checked = 0
    for n in (6, 8, 9, 10, 12):
        disc = []
        list(_roots(E, n, False, disc))
        for entry in disc:
            if not entry["reason"].startswith("already periodic with period "):
                continue
            d = int(entry["reason"].rsplit(" ", 1)[1])
            g = entry["gamma"]
            ends = (cayley._midpoint_above(x) for x in (math.nextafter(g, -math.inf), g))
            lo, hi = (
                cayley.closure_det(ia, ib, F(q, p), closure_ladder(d), d)[0] for p, q in ends
            )
            assert lo * hi <= 0, (n, d, g)
            checked += 1
    assert checked >= 10


def _landed_on(E, gamma, m, ladder=None):
    """The landing of ``gamma`` on the period-``m`` closure determinant of ``ladder``.

    The ladder defaults to the periodic one of ``m``.
    """
    return cayley._landed(cayley._landing_det(E)(ladder or closure_ladder(m), m), gamma)


@settings(max_examples=40, deadline=None)
@given(
    axes=st.sampled_from([(3, 2), (5, 11), (12, 3), (F(41, 7), F(7, 2)), (F(5, 3), F(35, 4))]),
    k=st.integers(-12, 12),
    n=st.sampled_from([6, 8, 9, 10, 12]),
)
def test_divisor_roots_land_alike_on_both_periods(axes, k, n):
    # the period-n determinant vanishes at every root of the period-d one,
    # so landing a root tagged d on either gives the one correctly rounded
    # float, on int, fraction and 10**k-scaled axes
    E = BoundaryEllipse(*(F(x) * F(10) ** k for x in axes))
    for gamma, d in caustics._level_roots(E, n, False):
        if d < n:
            on_d, on_n = _landed_on(E, gamma, d), _landed_on(E, gamma, n)
            assert (on_d and on_d[0]) == (on_n and on_n[0]), (n, d, gamma)


_RATIONAL_AXES = st.tuples(
    *[st.fractions(F(1, 20), 50, max_denominator=40).filter(bool) for _ in range(2)]
)


@settings(max_examples=60, deadline=None)
@given(
    axes=_RATIONAL_AXES,
    kind=st.sampled_from([(False, n) for n in range(3, 13)] + [(True, n) for n in range(2, 13)]),
)
@example(axes=(F(3), F(2)), kind=(False, 12))
@example(axes=(F(41, 7), F(7, 2)), kind=(False, 10))
@example(axes=(F(3), F(2)), kind=(False, 11))
@example(axes=(F(41, 7), F(7, 2)), kind=(True, 12))
@example(axes=(F(5), F(6)), kind=(True, 5))
def test_torsion_functions_and_hankel_blocks_change_sign_alike(axes, kind):
    # at every root landed on the torsion function of its ladder, the
    # division value on B and the half-index function on C, D and E, the
    # Hankel block of closure_det changes sign across the same rounding
    # interval; both are exactly 0 at the rational roots of period 4 on B
    # and of elliptic period 2 on their ladders
    E, (elliptic, n) = BoundaryEllipse(*axes), kind
    (a, b), dets = axes, cayley._landing_det(E)
    ia, ib = 1 / a, 1 / b
    hyperbola = [a * b / (b - a)] if a != b else []
    rational = [("B", 4, g) for g in [a * b / (a + b), -a * b / (a + b)] + hyperbola]
    rational += [("D", 2, a * b / (a + b)), ("E", 2, -a * b / (a + b))]
    rational += [("C", 2, g) for g in hyperbola]
    for ladder, m, g in rational:
        assert dets(ladder, m)(*g.as_integer_ratio())[0] == 0, (ladder, g)
        assert closure_det(ia, ib, 1 / g, ladder, m)[0] == 0, (ladder, g)
    landed_roots = 0
    for gamma, tag in caustics._level_roots(E, n, elliptic):
        ladder, m = (closure_ladder(n, tag), n) if elliptic else (closure_ladder(tag), tag)
        if math.isinf(gamma) or (landed := cayley._landed(dets(ladder, m), gamma)) is None:
            continue
        lo, hi = landed[1][:2]
        signs = [[dets(ladder, m)(*x)[0] for x in (lo, hi)]]
        signs.append([closure_det(ia, ib, F(q, p), ladder, m)[0] for p, q in (lo, hi)])
        assert all(x * y <= 0 for x, y in signs), (kind, m, ladder, landed[0], signs)
        landed_roots += 1
    assert landed_roots, (axes, kind)


@settings(max_examples=30, deadline=None)
@given(
    axes=_RATIONAL_AXES,
    gamma=st.fractions(-60, 60, max_denominator=50).filter(bool),
    ladder=st.sampled_from("BCDE"),
    n=st.integers(2, 12),
)
def test_landing_functions_are_functions_of_gamma_alone(axes, gamma, ladder, n):
    # num/den of every landing function is homogeneous in (p, q): the same
    # value at k p / k q for k = 1, 2, 3, as the landing secant and the
    # exact candidate need
    assume(ladder != "B" or (n % 2 == 0 and n >= 4))
    det = cayley._landing_det(BoundaryEllipse(*axes))(ladder, n)
    p, q = gamma.as_integer_ratio()
    assert len({F(*det(k * p, k * q)) for k in (1, 2, 3)}) == 1, (ladder, n, gamma)


@settings(max_examples=8, deadline=None)
@given(axes=_RATIONAL_AXES)
@example(axes=(F(3), F(2)))
@example(axes=(F(4, 3), F(2)))
def test_exact_caustics_occur_only_at_the_periods_mazur_allows(axes):
    # with the exact candidate named at every period, no landed root up to
    # n = 16 is rational outside the periods caustics._EXACT_PERIODS lists:
    # a check on the code, since Mazur's theorem is the proof; the
    # rational roots of periodic n = 4 and elliptic n = 2 are always found
    allowed, E = caustics._EXACT_PERIODS, BoundaryEllipse(*axes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caustics, "_EXACT_PERIODS", {False: range(3, 17), True: range(2, 17)})
        for elliptic in (False, True):
            for n in range(3 - elliptic, 17):
                exact = [x for _, x, _ in _roots(E, n, elliptic) if x is not None]
                assert not exact or n in allowed[elliptic], (elliptic, n, exact)
                assert exact or n != 4 - 2 * elliptic, (elliptic, n)


def test_a_rational_period_four_caustic_is_periodic_at_every_multiple():
    # is_periodic decides on the determinant alone: 4 P0 = O gives
    # n P0 = O at every multiple n of 4, beyond Mazur's periods too
    E = BoundaryEllipse(3, 2)
    for g in (F(6, 5), F(-6, 5), F(-6)):
        assert all(is_periodic(E, g, n).periodic for n in (4, 8, 12, 16)), g
        assert not any(is_periodic(E, g, n).periodic for n in (6, 10)), g


@settings(max_examples=40, deadline=None)
@given(
    axes=st.sampled_from([(3, 2), (5, 11), (12, 3), (F(41, 7), F(7, 2)), (F(5, 3), F(35, 4))]),
    k=st.integers(-12, 12),
    n=st.integers(3, 12),
)
def test_the_verdicts_agree_with_every_landed_root(axes, k, n):
    # is_periodic and elliptic_case_test on the float of each landed root
    # (and on its exact value, when it has one) give the kind and the case
    # it was landed with, on int and fraction axes scaled by 10**k
    lam = 10**k if k >= 0 else F(1, 10**-k)
    E = BoundaryEllipse(*(lam * x for x in axes))
    for r in periodic_caustics(E, n):
        for g in filter(None, (r.gamma, r.gamma_exact)):
            assert is_periodic(E, g, n).periodic, (n, g)
            assert elliptic_case_test(E, g, n).case == "none", (n, g)
    for r in elliptic_caustics(E, n):
        for g in filter(None, (r.gamma, r.gamma_exact)):
            assert not is_periodic(E, g, n).periodic, (n, g)
            assert elliptic_case_test(E, g, n).case == r.case, (n, g)


@pytest.mark.parametrize("a, b", [(3, 2), (5, 11), (12, 3), (F(41, 7), F(7, 2)), (7, 11)])
def test_the_verdicts_land_every_root_on_the_same_float(monkeypatch, a, b):
    # is_periodic and elliptic_case_test at each root _roots yields land
    # from it on the ladder that decides it and stop at that root itself:
    # one landing walk proves the roots and the verdicts
    landed, outs = cayley._landed, []
    monkeypatch.setattr(
        cayley, "_landed", lambda det, g: outs.append(out := landed(det, g)) or out
    )
    E = BoundaryEllipse(a, b)
    checked = 0
    for n in range(2, 13):
        for elliptic in (False, True) if n >= 3 else (True,):
            for gamma, _, case in _roots(E, n, elliptic):
                outs.clear()
                if elliptic:
                    assert elliptic_case_test(E, gamma, n).case == case, (n, gamma)
                else:
                    assert is_periodic(E, gamma, n).periodic, (n, gamma)
                assert outs[-1] is not None and outs[-1][0] == gamma, (n, gamma)
                checked += 1
    assert checked >= 100


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
    # every root lands on the correctly rounded exact root, and
    # (a, b, gamma) -> 2**k (a, b, gamma) and the swap
    # (a, b, gamma) -> (b, a, -gamma) map exact roots onto exact roots and
    # commute with rounding: the roots scale and swap bit for bit.  The
    # validation flags are compared under 4**k in
    # test_validation_flags_and_partitions_are_scale_invariant
    a, b = axes
    unit = _level_gammas(a, b, n)
    lam = F(2) ** k
    assert _level_gammas(lam * a, lam * b, n) == [float(lam) * g for g in unit]
    assert [-g for g in reversed(_level_gammas(b, a, n))] == unit


@pytest.mark.parametrize("a, b, n, roots, most", [(7, 3, 11, 10, 120), (3, 2, 12, 15, 170)])
def test_level_roots_take_few_rho_evaluations(monkeypatch, a, b, n, roots, most):
    # Anderson-Bjorck steps and a float next to an end in place of the
    # midpoint: 110 and 159 evaluations of rho locate these 10 and 15
    # roots, where Illinois halving took 165 and 226
    calls = []

    def counted(*args):
        calls.append(args)
        return rotation_ratio(*args)

    monkeypatch.setattr(caustics, "rotation_ratio", counted)
    assert len(_level_roots(BoundaryEllipse(a, b), n, False)) == roots
    assert len(calls) <= most, len(calls)


# ---------------------------------------------------------------------------
# deterministic validation starts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [F(1, 10**3), F(1, 10**6), 1e-3, 1e-6])
@pytest.mark.parametrize("n", [3, 5, 9])
def test_small_scales_validate_every_caustic(lam, n):
    # the rows lambda = 1e-3 and 1e-6 of (3, 2) lambda, where an absolute
    # start clearance was wider than the ellipse: every caustic reported
    # closes, with a partition of the unit-scale caustics
    rs = periodic_caustics(BoundaryEllipse(3 * lam, 2 * lam), n)
    unit = {(r.n1, r.n2) for r in periodic_caustics(BoundaryEllipse(3, 2), n)}
    assert rs and all(r.validated for r in rs), [r.gamma for r in rs if not r.validated]
    assert {(r.n1, r.n2) for r in rs} <= unit


@pytest.mark.parametrize(
    "a, b, n, gamma",
    [(6000, 5000, 11, 5999.997332554994), (3 * 10**12, 2 * 10**12, 9, 2999881080630.0166)],
)
def test_flat_caustics_next_to_a_stay_validated(a, b, n, gamma):
    # flat ellipse caustics 4.4e-7 and 4.0e-5 (relative) below a, where few
    # tangents clear the touch points
    (r,) = [r for r in periodic_caustics(BoundaryEllipse(a, b), n) if r.gamma == gamma]
    assert r.validated and (r.n1, r.n2) == (n - 1, 1)


@cache
def _unit_partitions(a, b, n):
    return {r.gamma: (r.validated, r.n1, r.n2) for r in periodic_caustics(BoundaryEllipse(a, b), n)}


@settings(max_examples=40)
@given(
    axes=st.sampled_from([(3, 2), (F(41, 7), F(7, 2)), (5, 11)]),
    n=st.sampled_from([3, 5, 7, 9]),
    k=st.integers(-10, 10),
)
def test_validation_flags_and_partitions_are_scale_invariant(axes, n, k):
    # the validation starts are a pure function of (E, gamma) that scales
    # with the axes, so under (a, b) -> 4**k (a, b) every reported caustic
    # is validated with the partition of the unit-scale caustic at gamma / 4**k.
    # Counts are not compared: DEGENERATE still discards roots near 0, a, -b
    a, b = axes
    lam = F(4) ** k
    unit = _unit_partitions(a, b, n)
    for r in periodic_caustics(BoundaryEllipse(lam * a, lam * b), n):
        assert (r.validated, r.n1, r.n2) == unit[r.gamma / float(lam)], (k, r.gamma)
        assert r.validated


@pytest.mark.parametrize("gamma", [2.3323, -2.4])
def test_a_hopeless_start_ends_the_tries(monkeypatch, gamma):
    # a clearance that excludes every chord leaves no admissible start: the
    # first try spends its 500 sequence points, and the other five tries do
    # not spend them again
    spent = []
    points = dynamics._golden_points

    def counted():
        for t in points():
            spent.append(t)
            yield t

    monkeypatch.setattr(dynamics, "START_CLEARANCE", math.inf)
    monkeypatch.setattr(dynamics, "_golden_points", counted)
    ok, n1, n2, last = caustics._sim_closure(BoundaryEllipse(3, 2), gamma, 3)
    assert (ok, n1, n2) == (False, None, None)
    assert isinstance(last, DomainError)
    assert len(spent) == 500


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
