"""Pell certificates, rotation numbers and extremal-polynomial identities."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellipse import (
    BoundaryEllipse,
    akhiezer_p4,
    chebyshev,
    complete_K,
    elliptic_caustics,
    elliptic_pell_check,
    is_periodic,
    jacobi_elliptic,
    kln_partition,
    lightlike_pell_check,
    lightlike_periodic,
    pell_construct,
    pell_lift,
    periodic_caustics,
    zolotarev3_consistency,
)
from pellipse import cayley, extremal, polys
from pellipse.errors import CertificateInvalid, DomainError, NoCertificate
from pellipse.geometry import degenerate_value

F = Fraction


def test_chebyshev_coefficients_and_identity():
    assert chebyshev(0) == [1]
    assert chebyshev(1) == [0, 1]
    assert chebyshev(2) == [-1, 0, 2]
    assert chebyshev(3) == [0, -3, 0, 4]
    for phi in (0.3, 1.1, 2.9):
        x = math.cos(phi)
        t3 = sum(c * x**k for k, c in enumerate(chebyshev(3)))
        assert t3 == pytest.approx(math.cos(3 * phi), abs=1e-12)


def test_pell_rational_mode_exact():
    E = BoundaryEllipse(F(2), F(4))
    pair = pell_construct(E, F(4, 3), 4)
    assert pair.values == (2, 4, F(4, 3))
    assert all(type(v) is Fraction for v in pair.values)
    cert = pell_lift(pair)
    assert cert.residual == 0 and isinstance(cert.residual, Fraction)
    assert cert.partition == (4, 2)
    assert (cert.tau1, cert.tau2) == (1, 1)
    assert len(cert.equioscillation) == cert.n + 2


def test_extremal_binds_nothing_from_dynamics():
    # the certificate reads its partition off the band counts: no
    # trajectory is simulated inside extremal
    from pellipse import dynamics

    bound = [
        name
        for name, obj in vars(extremal).items()
        if obj is dynamics or getattr(obj, "__module__", None) == dynamics.__name__
    ]
    assert bound == []


def test_pell_lift_rejects_a_nonzero_exact_residual():
    pair = pell_construct(BoundaryEllipse(F(2), F(4)), F(4, 3), 4)
    bent = pair._replace(p2=(pair.p2[0] + F(1, 10**12),) + pair.p2[1:])
    with pytest.raises(CertificateInvalid):
        pell_lift(bent)


def test_certificate_system_is_the_closure_block_reversed():
    # distinct entries expose any misplaced index
    S = list(range(100, 140))
    for n in range(2, 17):
        for ladder in "BCDE" if n % 2 == 0 and n >= 4 else "CDE":
            start, size = cayley._hankel_layout(ladder, n)
            H = cayley._hankel_block(S, ladder, n)
            assert H == [[S[start + i + j] for j in range(size)] for i in range(size)]
            T = extremal._toeplitz(S, ladder, n)
            assert T == [row[::-1] for row in H]
            top = start + size - 1
            assert T == [[S[top + i - j] for j in range(size)] for i in range(size)]


def test_pell_lift_reuses_the_decimal_values_of_the_construction():
    # Fraction axes with a Decimal gamma enter the 50-digit field as exact
    # quotients; a lift that re-converted them through float would leave a
    # residual near 1e-13 instead of the 50-digit one
    E = BoundaryEllipse(F(88, 9), F(16, 9))
    pair = pell_construct(E, Decimal("0.2140695596515073"), 9)
    assert all(type(v) is Decimal for v in pair.values)
    cert = pell_lift(pair)
    assert cert.residual <= 1e-40 and cert.partition == (9, 2)


def test_pell_float_mode_odd_period():
    E = BoundaryEllipse(3, 2)
    gamma1 = max(r.gamma for r in periodic_caustics(E, 3))
    cert = pell_lift(pell_construct(E, gamma1, 3))
    assert cert.partition == (3, 2)
    assert (cert.tau1, cert.tau2) == (0, 1)
    assert abs(cert.residual) <= 1e-8
    assert len(cert.equioscillation) == 5


def test_pell_partition_3_1():
    E = BoundaryEllipse(7, 5)
    gamma2 = min(r.gamma for r in periodic_caustics(E, 3))
    cert = pell_lift(pell_construct(E, gamma2, 3))
    assert cert.partition == (3, 1)
    assert (cert.tau1, cert.tau2) == (1, 0)


def test_pell_requires_periodic_gamma():
    with pytest.raises(NoCertificate):
        pell_construct(BoundaryEllipse(3, 2), 1.0, 3)
    # an exact gamma is tested as given, not as its float: 1e-12 off the
    # root 4/3 is no root
    with pytest.raises(NoCertificate):
        pell_construct(BoundaryEllipse(2, 4), F(4, 3) + F(1, 10**12), 4)


#: Gammas for the axes (3, 2), five at each n = 9..12, that the float
#: Hankel zero test took for closure roots: the first such draws of
#: ``random.Random(7).uniform(-1.9, 2.9)``, one stream over n = 9..12.
_FLOAT_TEST_FALSE_POSITIVES = {
    9: [-0.34560272880082055, -0.14469319881958942, 0.18149928157945228,
        0.13769210788406694, 0.004066278323744843],
    10: [-0.11249179491649008, 0.1524430672131336, 0.10698954456909071,
         -0.04820107625578807, -0.023441424960509938],
    11: [-1.5132097542393346, 0.2560995245567885, 0.7373115638913794,
         -0.5635788903332937, 0.09342328261615318],
    12: [-0.17789840640820098, 2.344125570551441, 2.697109779027158,
         -1.1755796522026771, -0.7866070392662283],
}


def test_false_positives_of_the_float_zero_test_are_not_polished(monkeypatch):
    # the exact closure verdict rejects each of them, so pell_construct
    # raises NoCertificate at its gate, before any Newton polish
    polished = []
    monkeypatch.setattr(extremal, "_newton_polish", lambda *args: polished.append(args))
    E = BoundaryEllipse(3, 2)
    for n, gammas in _FLOAT_TEST_FALSE_POSITIVES.items():
        for gamma in gammas:
            assert not is_periodic(E, gamma, n).periodic, (n, gamma)
            with pytest.raises(NoCertificate):
                pell_construct(E, gamma, n)
    assert polished == []


def test_a_polish_beyond_its_range_is_rejected(monkeypatch):
    # a polished root more than 1e-6 |gamma| from gamma is refused: no Pell
    # pair, and no elliptic residual
    monkeypatch.setattr(extremal, "_newton_polish", lambda a, b, g, *_: g * Decimal("1.001"))
    E = BoundaryEllipse(3, 2)
    gamma = max(r.gamma for r in periodic_caustics(E, 3))
    with pytest.raises(NoCertificate, match="polishing range"):
        pell_construct(E, gamma, 3)
    E = BoundaryEllipse(6, 3)
    r = elliptic_caustics(E, 3)[0]
    with pytest.raises(DomainError, match="polishing range"):
        elliptic_pell_check(E, r.gamma, 3, r.case)


def _polish(a, b, gamma: float, ladder: str, n: int) -> Decimal:
    """``_newton_polish`` from the float ``gamma`` on the axes as given, as a certificate runs it."""
    da, db, g0 = polys.to_field(a, b, Decimal(gamma))
    with polys.field_context(g0):
        return extremal._newton_polish(da, db, g0, ladder, n)


_AXIS = st.one_of(st.integers(1, 60), st.fractions(F(1, 9), 60, max_denominator=9))


@settings(max_examples=100)
@given(a=_AXIS, b=_AXIS, n=st.integers(3, 12))
def test_the_polish_ends_on_the_float_that_landing_proves(a, b, n):
    # Newton on the torsion function in Decimal (ladder B at even n, C at
    # odd n) reaches the root whose correctly rounded float landing proves
    E = BoundaryEllipse(a, b)
    ladder = cayley.closure_ladder(n)
    det = cayley._landing_det(E)(ladder, n)
    for r in periodic_caustics(E, n):
        landed = cayley._landed(det, r.gamma)
        assert landed is not None, r.gamma
        assert float(_polish(a, b, r.gamma, ladder, n)) == landed[0], r.gamma


@cache
def _unit_roots(n: int) -> list[float]:
    return [r.gamma for r in periodic_caustics(BoundaryEllipse(3, 2), n)]


@settings(max_examples=100)
@given(n=st.integers(3, 8), k=st.integers(-40, 40), pick=st.integers(0, 99))
def test_the_polish_scales_with_the_axes(n, k, pick):
    # the difference step and the stop are relative to gamma: on (3, 2)
    # times 4**k, from the unit root's float times 4**k (exact), the polish
    # is the unit polish times 4**k
    roots = _unit_roots(n)
    gamma, ladder, lam = roots[pick % len(roots)], cayley.closure_ladder(n), 4.0**k
    unit = _polish(3, 2, gamma, ladder, n)
    scaled = _polish(3 * lam, 2 * lam, gamma * lam, ladder, n)
    with polys.field_context(unit):
        want = unit * Decimal(lam)
        assert abs(scaled - want) <= Decimal("1e-45") * abs(want), (gamma, k)


def test_elliptic_pell_check_exact_and_mismatch():
    E = BoundaryEllipse(F(5), F(3))
    assert elliptic_pell_check(E, F(15, 8), 2, "a") == 0
    assert elliptic_pell_check(E, F(-15, 8), 2, "b") == 0
    assert elliptic_pell_check(E, F(-15, 2), 2, "c") == 0
    with pytest.raises(DomainError):
        elliptic_pell_check(E, F(15, 8), 2, "b")
    # a case that does not occur at the parity of n, before any test of gamma
    with pytest.raises(DomainError, match=r"^unknown elliptic case 'c' for n=3$"):
        elliptic_pell_check(BoundaryEllipse(3, 2), 2.3322714928995234, 3, "c")
    with pytest.raises(DomainError, match=r"^unknown elliptic case 'd' for n=2$"):
        elliptic_pell_check(E, F(15, 8), 2, "d")
    # an exact gamma is tested as given, not as its float
    with pytest.raises(DomainError):
        elliptic_pell_check(E, F(15, 8) + F(1, 10**12), 2, "a")


def test_elliptic_pell_check_odd_float():
    E = BoundaryEllipse(6, 3)
    for r in elliptic_caustics(E, 3):
        assert abs(elliptic_pell_check(E, r.gamma, 3, r.case)) <= 1e-8


def test_kln_ratio_and_convergents():
    ratio, conv = kln_partition(BoundaryEllipse(F(2), F(4)), F(4, 3))
    assert ratio == pytest.approx(0.5, abs=1e-9)
    assert (1, 2) in conv
    # 5-periodic caustic with n1 = 4 bounces on the ellipse arc
    E = BoundaryEllipse(5, 2)
    r = max(periodic_caustics(E, 5), key=lambda r: r.gamma)
    ratio5, conv5 = kln_partition(E, r.gamma)
    assert ratio5 == pytest.approx(4 / 5, abs=1e-6)
    assert (4, 5) in conv5


@pytest.mark.parametrize(
    "gamma",
    [
        math.nan,
        Decimal("NaN"),
        Decimal("sNaN"),
        math.inf,
        -math.inf,
        Decimal("1e400"),
        F(10**400),
        10**400,
    ],
    ids=["nan", "Decimal-NaN", "Decimal-sNaN", "inf", "-inf", "Decimal-1e400", "F-10**400", "10**400"],
)
def test_kln_partition_rejects_a_gamma_without_a_finite_float(gamma):
    # the rule of the closure verdicts, and the one error for every field:
    # rho at gamma = inf is rotation_ratio's
    with pytest.raises(DomainError, match="has no finite float"):
        kln_partition(BoundaryEllipse(3, 2), gamma)


def test_legendre_rule_is_symmetric_and_exact_to_degree_159():
    x, w = extremal._legendre_rule(80)
    assert len(x) == len(w) == 80
    assert list(x) == sorted(x)
    assert x == tuple(-t for t in reversed(x)) and w == tuple(reversed(w))
    assert abs(math.fsum(w) - 2) <= 1e-14
    for k in range(80):
        moment = math.fsum(wi * xi ** (2 * k) for xi, wi in zip(x, w))
        assert abs(moment - 2 / (2 * k + 1)) <= 1e-13, 2 * k


def test_legendre_rule_is_built_once_per_process():
    # the rule and the node tables built on it are each built once, and
    # later quadratures only read them
    extremal._legendre_rule.cache_clear()
    extremal._kln_nodes.cache_clear()
    E = BoundaryEllipse(F(2), F(4))
    kln_partition(E, F(4, 3))
    kln_partition(E, F(5, 3))
    assert extremal._legendre_rule.cache_info().misses == 1
    assert extremal._kln_nodes.cache_info().misses == 1


def _ref_gauss_composite(f, lo, hi):
    """``f`` over ``[lo, hi]`` by 8 panels of the 80-point rule, node by node."""
    x, w = extremal._legendre_rule(80)
    width = (hi - lo) / 8
    total = 0.0
    for ip in range(8):
        mid = lo + ip * width + width / 2
        half = width / 2
        panel = 0.0
        for xi, wi in zip(x, w):
            panel += wi * f(mid + half * xi)
        total += half * panel
    return total


def _ref_kln_ratio(E, gamma):
    """``I2/I1`` of :func:`kln_partition`, one integrand call per node."""
    a, b, g = float(E.a), float(E.b), float(gamma)
    c1, c2, c3, c4 = extremal._band_endpoints(a, b, g)

    def f1(theta):
        s = c2 + (c3 - c2) * math.sin(theta) ** 2
        return 2.0 / math.sqrt((s - c1) * (c4 - s))

    def f2(t):
        w = t * t
        n1 = (c4 - c3) * w + (c4 - c1) * (1 - w)
        n2 = (c4 - c3) * w + (c4 - c2) * (1 - w)
        n3 = (c4 - c3) * w + (c4 - c3) * (1 - w)
        return 2.0 * math.sqrt(c4 - c3) / math.sqrt(n1 * n2 * n3)

    return _ref_gauss_composite(f2, 0.0, 1.0) / _ref_gauss_composite(f1, 0.0, math.pi / 2)


_axis = st.one_of(
    st.integers(1, 50),
    st.fractions(F(1, 20), 50).filter(lambda q: q > 0),
    st.builds(lambda m, k: F(m) * F(10) ** k, st.integers(1, 99), st.integers(-9, 9)),
)


@settings(max_examples=300)
@given(
    a=_axis,
    b=_axis,
    where=st.sampled_from(["x-hyperbola", "near -b", "ellipse-", "ellipse+", "near a", "y-hyperbola"]),
    t=st.floats(1e-8, 1 - 1e-8),
)
def test_kln_ratio_matches_the_node_by_node_quadrature_bit_for_bit(a, b, where, t):
    # the node tables and the per-panel sums give the very floats of one
    # integrand call per node, on all four gamma ranges and next to the
    # band ends -b and a, where the I2 integrand is steepest
    E = BoundaryEllipse(a, b)
    fa, fb = float(a), float(b)
    gamma = {
        "x-hyperbola": -fb / t,
        "near -b": -fb * (1 + (t - 0.5) * 1e-6),
        "ellipse-": -fb * t,
        "ellipse+": fa * t,
        "near a": fa * (1 + (t - 0.5) * 1e-6),
        "y-hyperbola": fa / t,
    }[where]
    try:
        ratio, _ = kln_partition(E, gamma)
    except DomainError:  # degenerate: within 1e-9 of 0, a or -b
        assert degenerate_value(gamma, E) is not None
        return
    assert ratio == _ref_kln_ratio(E, gamma)


@pytest.mark.parametrize("a, b, gamma, n, n1", [(2, 4, F(4, 3), 4, 2), (5, 3, F(15, 8), 4, 2)])
def test_kln_ratio_is_n1_over_n_on_well_conditioned_caustics(a, b, gamma, n, n1):
    ratio, _ = kln_partition(BoundaryEllipse(F(a), F(b)), gamma)
    assert abs(ratio - n1 / n) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="c3 ~ c4: the regularized I2 quadrature loses accuracy as gamma "
    "approaches a; needs Carlson's R_F closed form (DLMF 19.29(i))",
)
def test_kln_ratio_near_coalescing_band_ends():
    E = BoundaryEllipse(F(3, 4), F(3, 2))
    r = next(r for r in periodic_caustics(E, 7) if r.n1 == 6)
    assert r.gamma == pytest.approx(0.7499961, abs=1e-7)
    ratio, _ = kln_partition(E, r.gamma)
    assert abs(ratio - 6 / 7) <= 1e-9


@pytest.mark.parametrize(
    "a, b", [(3, 2), (2, 9), (F(41, 7), F(7, 2)), (1, 1), (1, 100), (100, 1), (0.01, 0.02)]
)
def test_rotation_ratio_matches_kln_quadrature(a, b):
    # guard for moving kln_partition onto rotation_ratio: away from the
    # degenerate values, where the quadrature keeps its accuracy, the two agree
    E = BoundaryEllipse(a, b)
    a, b = float(a), float(b)
    ts = [i / 20 for i in range(1, 20)]
    gammas = [-b * t for t in ts] + [a * t for t in ts] + [-b / t for t in ts] + [a / t for t in ts]
    clear = [g for g in gammas if min(abs(g + b) / b, abs(g - a) / a, abs(g) / min(a, b)) >= 0.1]
    assert len(clear) >= 40
    for g in clear:
        assert abs(extremal.rotation_ratio(a, b, g) - kln_partition(E, g)[0]) <= 1e-9, g


def test_rotation_ratio_ends_and_domain():
    # rho runs from 0 to 1 across (-b, 0) and (0, a), meets its limits at
    # -b and a, and takes a finite value at gamma = +-inf; a/b beyond the
    # float range, where scaling overflows an axis, is a domain error too
    rho = partial(extremal.rotation_ratio, 3, 2)
    assert (rho(-2), rho(3)) == (0.0, 1.0)
    assert rho(math.inf) == rho(-math.inf) == pytest.approx(rho(1e15), abs=1e-12)
    assert rho(-1e-12) > 0.999 and rho(1e-12) < 1e-3
    extreme = ((1e308, 9.88e-321, -8.47e-321), (1.7976931348623157e308, 1e-320, 3.5e-284))
    for bad in ((3, 2, 0), (3, 2, math.nan), (0, 2, 1), (3, -2, 1), (math.inf, 2, 1), *extreme):
        with pytest.raises(DomainError):
            extremal.rotation_ratio(*bad)


@settings(max_examples=50)
@given(
    ma=st.floats(1, 10),
    ea=st.integers(-12, 12),
    mr=st.floats(1, 10),
    er=st.integers(-12, 12),
)
def test_rotation_ratio_at_infinity_is_the_light_cone_angle(ma, ea, mr, er):
    # the caustic at gamma = +-inf (u = 0) is the light-like one, whose
    # rotation number is (2/pi) atan sqrt(a/b), for a and b/a across 10**+-12
    a = ma * 10.0**ea
    b = a * mr * 10.0**er
    want = 2 / math.pi * math.atan(math.sqrt(a / b))
    rho = extremal.rotation_ratio(a, b, math.inf)
    assert rho == extremal.rotation_ratio(a, b, -math.inf)
    assert abs(rho - want) <= 1e-15 * want, (a, b)


def test_rho_at_infinity_gives_the_lightlike_periods():
    # on the light-like axes a/b = cot**2(k pi/n), n rho(inf) = n - 2k, and
    # lightlike_periodic names the least period (n/g, k/g), g = gcd(k, n/2)
    checked = 0
    for n in range(4, 25, 2):
        for k in range(1, n // 2):
            a = 1 / math.tan(k * math.pi / n) ** 2
            assert abs(n * extremal.rotation_ratio(a, 1.0, math.inf) - (n - 2 * k)) <= 1e-12, (n, k)
            g = math.gcd(k, n // 2)
            assert lightlike_periodic(BoundaryEllipse(a, 1.0), 24) == (n // g, k // g), (n, k)
            checked += 1
    assert checked == 66


@given(y=st.floats(1e-3, 1e3), e=st.floats(-12, 12))
def test_agm_form_of_the_complete_integral_matches_carlson(y, e):
    # I1 = 2 R_F(x, y, 0) = pi / M(sqrt x, sqrt y) (DLMF 19.22.1): the
    # quadratically converging AGM agrees with Carlson's duplication to a
    # few units in the last place, for x/y across 10**+-12
    x = y * 10.0**e
    by_agm = math.pi / (2 * extremal._agm(math.sqrt(x), math.sqrt(y)))
    by_duplication = extremal._carlson_rf(x, y, 0.0)
    assert abs(by_agm - by_duplication) <= 8 * math.ulp(by_duplication), (x, y)


def _carlson_rf_by_max(x, y, z):
    """:func:`extremal._carlson_rf` with the stop test on ``max(abs(...))``: its reference."""
    while True:
        mu = (x + y + z) / 3
        if max(abs(x - mu), abs(y - mu), abs(z - mu)) <= 1e-3 * mu:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    dx, dy = 1 - x / mu, 1 - y / mu
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(mu)


_spread = st.floats(-300, 300).map(lambda e: 10.0**e)


@given(x=_spread, y=_spread, z=_spread | st.just(0.0), m=st.floats(1, 10))
def test_carlson_rf_stop_test_matches_the_max_abs_form(x, y, z, m):
    # the chained comparisons decide as max(abs(...)) <= tol does on
    # finite positive arguments from 1e-300 to 1e300, so R_F is the same float
    x *= m
    assert extremal._carlson_rf(x, y, z) == _carlson_rf_by_max(x, y, z)


#: The four gamma ranges, each as a map from t in (0, 1) to the variable in
#: which rho increases: gamma on the finite ranges, u = 1/gamma on the others.
_RANGES = {
    "(-inf, -b)": lambda a, b, t: (-t / b, -b / t),
    "(-b, 0)": lambda a, b, t: (-b * (1 - t), -b * (1 - t)),
    "(0, a)": lambda a, b, t: (a * t, a * t),
    "(a, inf)": lambda a, b, t: (t / a, a / t),
}


@given(
    a=st.floats(1e-3, 1e3),
    ratio=st.floats(1e-2, 1e2),
    where=st.sampled_from(sorted(_RANGES)),
    ts=st.lists(st.floats(1e-3, 1 - 1e-3), min_size=2, max_size=8),
    k=st.integers(-12, 12),
)
def test_rotation_ratio_is_monotone_and_scale_invariant(a, ratio, where, ts, k):
    b, lam = a * ratio, 10.0**k
    points = sorted(_RANGES[where](a, b, t) for t in ts)
    values = [extremal.rotation_ratio(a, b, g) for _, g in points]
    assert all(v0 <= v1 + 1e-13 for v0, v1 in zip(values, values[1:])), values
    assert all(0 <= v <= 1 for v in values)
    for (_, g), v in zip(points, values):
        scaled = extremal.rotation_ratio(lam * a, lam * b, lam * g)
        assert scaled == pytest.approx(v, rel=0, abs=1e-12)


#: Float caustics of period 9..12 on integer and fraction axes: (a, b, gamma, n).
_POLISHED_CAUSTICS = [
    (7, 11, 3.4107975309245173, 9),
    (F(9, 4), F(20, 3), -1.23482096932741, 9),
    (4, 12, -0.3592790371440906, 10),
    (F(41, 6), F(14, 9), -1.6406694409872125, 10),
    (10, 12, -2.66493995879208, 11),
    (F(17, 4), F(18, 5), 2.3684802608308635, 11),
    (8, 3, 8.175424283273948, 12),
    (F(17, 6), F(75, 8), 0.28786538086947544, 12),
]


def _pell_pairs():
    """Pell pairs for n = 3..12: exact and polished, on int and fraction axes."""
    for a, b in ((6, 4), (F(41, 7), F(7, 2))):
        E = BoundaryEllipse(a, b)
        for n in range(3, 9):
            for r in periodic_caustics(E, n):
                gamma = r.gamma if r.gamma_exact is None else r.gamma_exact
                yield pell_construct(E, gamma, n)
    for a, b, gamma, n in [(2, 4, F(4, 3), 4), (13, 120, F(4680, 361), 3)]:
        yield pell_construct(BoundaryEllipse(F(a), F(b)), gamma, n)
    for a, b, gamma, n in _POLISHED_CAUSTICS:
        yield pell_construct(BoundaryEllipse(a, b), gamma, n)


def _sturm_band_counts(pair):
    """Exact Sturm counts ``(tau1, tau2)`` of the roots of ``q_hat`` in the bands."""
    qh = polys.pscale(pair.pq, 2)
    a, b, g = map(F, pair.values)
    c1, c2, c3, c4 = sorted([F(0), 1 / a, -1 / b, 1 / g])
    chain = polys.sturm_chain(qh)
    return polys.count_real_roots(chain, c3, c4), polys.count_real_roots(chain, c1, c2)


@pytest.fixture(scope="module")
def pell_pairs():
    pairs = list(_pell_pairs())
    assert {p.n for p in pairs} == set(range(3, 13))
    assert {polys.is_exact(p.values[2]) for p in pairs} == {True, False}
    return pairs


def test_band_brackets_prove_the_sturm_counts(pell_pairs, monkeypatch):
    sturm_chain = polys.sturm_chain
    monkeypatch.setattr(polys, "sturm_chain", lambda c: pytest.fail("Sturm fallback taken"))
    certs = [pell_lift(p) for p in pell_pairs]
    monkeypatch.setattr(polys, "sturm_chain", sturm_chain)
    for pair, cert in zip(pell_pairs, certs):
        assert (cert.tau1, cert.tau2) == _sturm_band_counts(pair)
        assert cert.tau1 + cert.tau2 == pair.n - 2
        assert len(cert.equioscillation) == pair.n + 2


def test_band_count_fallback_matches_the_brackets(pell_pairs, monkeypatch):
    certs = [pell_lift(p) for p in pell_pairs]
    monkeypatch.setattr(extremal, "_band_brackets", lambda *args: [])
    for pair, cert in zip(pell_pairs, certs):
        forced = pell_lift(pair)
        assert (forced.tau1, forced.tau2) == (cert.tau1, cert.tau2)
        assert len(forced.equioscillation) == pair.n + 2
        assert forced.equioscillation == pytest.approx(cert.equioscillation, rel=1e-9, abs=1e-12)


def test_complete_K_values():
    assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    # K(1/sqrt(2)) = Gamma(1/4)^2 / (4 sqrt(pi))
    assert complete_K(1 / math.sqrt(2)) == pytest.approx(1.854074677301372, rel=1e-14)
    assert complete_K(0.99) > complete_K(0.5) > complete_K(0.1)


def test_jacobi_identities():
    for k in (0.1, 0.5, 0.9):
        K = complete_K(k)
        for u in (0.2 * K, 0.7 * K, K):
            sn, cn, dn = jacobi_elliptic(u, k)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)
            assert k * k * sn * sn + dn * dn == pytest.approx(1.0, abs=1e-12)
        sn, cn, dn = jacobi_elliptic(K, k)
        assert sn == pytest.approx(1.0, abs=1e-12)
        assert cn == pytest.approx(0.0, abs=1e-10)


def test_zolotarev_report():
    z = zolotarev3_consistency(BoundaryEllipse(3, 2))
    assert z.t == pytest.approx(2 / 3, rel=1e-15)
    assert z.Y == pytest.approx(0.6794494717703364, rel=1e-12)
    assert z.kappa_sq == pytest.approx(0.8664542985799041, rel=1e-12)
    for resid in (z.alpha_residual, z.sn_residual, z.gamma_residual):
        assert abs(resid) <= 1e-9


def test_zolotarev_extreme_aspect_ratios():
    for a, b in ((100, 1), (1, 100), (101, 100)):
        z = zolotarev3_consistency(BoundaryEllipse(a, b))
        assert abs(z.gamma_residual) <= 1e-9


def test_akhiezer_t5_concrete():
    # w = [-1, -2 b^2/(a+b), 2 a b^2/(a+b)] and p4 = 2 w^2 - 1
    p4 = akhiezer_p4(BoundaryEllipse(2, 4), "t5")
    want = [1.0, 64 / 3, 128 / 9, -2048 / 9, 2048 / 9]
    assert list(p4) == pytest.approx(want, rel=1e-12)


def test_akhiezer_all_regimes_and_guards():
    assert len(akhiezer_p4(BoundaryEllipse(2, 4), "t2")) == 5  # needs b > a
    assert len(akhiezer_p4(BoundaryEllipse(4, 2), "t3")) == 5  # needs a > b
    assert len(akhiezer_p4(BoundaryEllipse(3, 2), "t4")) == 5
    with pytest.raises(DomainError):
        akhiezer_p4(BoundaryEllipse(4, 2), "t2")
    with pytest.raises(DomainError):
        akhiezer_p4(BoundaryEllipse(2, 4), "t3")


def test_lightlike_periodic_detection():
    assert lightlike_periodic(BoundaryEllipse(1, 1), 12) == (4, 1)
    assert lightlike_periodic(BoundaryEllipse(3, 1), 12) == (6, 1)
    # a/b = cot^2(2 pi / 10)
    t = 1 / math.tan(2 * math.pi / 10) ** 2
    assert lightlike_periodic(BoundaryEllipse(t, 1.0), 12) == (10, 2)
    assert lightlike_periodic(BoundaryEllipse(2, 3), 24) is None


def _angle_grid_lightlike(E, max_n):
    """The reference rule: the angle ``atan sqrt(b/a)`` on the grid ``k pi / n``, ``gcd(k, n/2) = 1``."""
    theta = math.atan(math.sqrt(float(E.b) / float(E.a)))
    for n in range(4, max_n + 1, 2):
        k = round(n * theta / math.pi)
        if 1 <= k < n / 2 and math.gcd(k, n // 2) == 1 and abs(theta - k * math.pi / n) <= 1e-9:
            return n, k
    return None


def test_lightlike_periods_are_the_angle_grid_rule():
    # the u = 0 query n rho(inf) = n - 2k names the period of the angle
    # grid, on light-like axes, on axes just inside and well outside the
    # tolerance, and on random axes
    checked = 0
    for n in range(4, 61, 2):
        for k in range(1, n // 2):
            cot2 = 1 / math.tan(k * math.pi / n) ** 2
            for eps in (0.0, 3e-10, -3e-10, 2e-9, -2e-9, 1e-6):
                for b in (1.0, 3e-5, 7e4):
                    E = BoundaryEllipse(cot2 * (1 + eps) * b, b)
                    assert lightlike_periodic(E, 60) == _angle_grid_lightlike(E, 60), (n, k, eps)
                    checked += 1
    assert checked == 7830
    rng = random.Random(27)
    for _ in range(2000):
        E = BoundaryEllipse(10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-6, 6))
        assert lightlike_periodic(E, 60) == _angle_grid_lightlike(E, 60), (E.a, E.b)


def test_lightlike_pell_exact_closure():
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(3), F(1)), 3)
    assert resid == 0 and q0 == 0
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(1), F(1)), 2)
    assert resid == 0 and q0 == 0
    # a/b = 3/2 is not cot^2 of a rational angle: Pell holds, closure fails
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(3), F(2)), 3)
    assert resid == 0 and q0 != 0
