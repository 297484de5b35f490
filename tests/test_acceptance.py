"""Acceptance suite: one test per headline guarantee of the package.

Each criterion is a single test function so the ``pytest -v`` report shows
one pass/fail line per guarantee.  Tolerances and runtime budgets are part
of the contract and are asserted here, not merely documented.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from pellipse import (
    ALL_CONICS,
    BoundaryEllipse,
    ConicClass,
    DISCRIMINANT_IDENTITIES,
    LineImplicit,
    MVec2,
    akhiezer_p4,
    case_symmetry,
    caustic_of_line,
    classify_conic,
    closed_form_caustics,
    closure_status,
    cubic_sqrt_series,
    discriminant_identity_check,
    elliptic_case_test,
    elliptic_caustics,
    elliptic_pell_check,
    is_periodic,
    kln_partition,
    lightlike_pell_check,
    lightlike_periodic,
    line_through,
    minkowski_dot,
    partition_counts,
    pell_construct,
    pell_lift,
    periodic_caustics,
    reflect,
    simulate,
    start_on_caustic,
    vector_type,
    zolotarev3_consistency,
)
from pellipse.errors import CausticDrift, DegenerateChord, DomainError, ReflectionUndefined
from pellipse.polys import pmul

F = Fraction

# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

#: (a, b, n, caption values) for the explicit condition-polynomial roots.
PERIODIC_FIXTURES = (
    (5, 2, 5, (4.7375,)),
    (6, 4, 5, (1.4205, -3.9947, -1.5413)),
    (5, 3, 6, (-3.2264,)),
    (3, 7, 6, (3.1189,)),
    (3, 7, 7, (-6.9712,)),
    (7, 3, 7, (6.9712,)),
    (6, 3, 8, (-3.0151, 6.9168, 5.3707)),
)

#: (a, b, n, caption gamma, tolerance, case) for the mirror-closure roots.
ELLIPTIC_FIXTURES = (
    (5, 3, 2, -15 / 8, 1e-3, "b"),
    (5, 7, 2, 35 / 12, 1e-3, "a"),
    (7, 3, 2, -21 / 4, 1e-3, "c"),
    (6, 3, 3, -3.1595918, 1e-3, "d"),
    (3, 5, 3, 3.2264236, 1e-3, "e"),
    (9, 2, 3, -0.8831827, 1e-3, "b"),
    (4, 9, 3, 1.312805, 1e-3, "a"),
    (5, 3, 4, 4.6216, 5e-4, "a"),
    (5, 3, 4, -3.0243, 1e-3, "c"),
    (7, 4, 5, -3.3848, 1e-3, "b"),
    (3, 7, 5, 3.4462, 1e-3, "d"),
)

#: (a, b, n, gamma caption, n1, n2): partition table rows.
TABLE_ROWS = (
    (3, 2, 3, 2.3323, 2, 1),
    (7, 5, 3, -4.589, 1, 2),
    (9, 3, 4, -2.25, 2, 2),
    (2, 4, 4, 4 / 3, 2, 2),
    (5, 3, 4, -7.5, 2, 2),
    (6, 4, 5, 1.4205, 2, 3),
    (6, 4, 5, -1.5413, 3, 2),
    (5, 2, 5, 4.7375, 4, 1),
    (6, 4, 5, -3.9947, 1, 4),
    (5, 3, 6, -3.2264, 2, 4),
    (3, 7, 6, 3.1189, 4, 2),
    (3, 7, 7, -6.9712, 1, 6),
    (7, 3, 7, 6.9712, 6, 1),
    (6, 3, 8, -3.0151, 2, 6),
    (6, 3, 8, 6.9168, 6, 2),
    (6, 3, 8, 5.3707, 6, 2),
)

LIGHTLIKE_PAIRS = (
    (4, 1), (6, 1), (6, 2), (8, 1), (8, 3),
    (10, 1), (10, 2), (10, 3), (10, 4), (12, 1), (12, 5),
)


def _match(results, caption, tol):
    hits = [r for r in results if abs(r.gamma - caption) <= tol * max(1.0, abs(caption))]
    assert hits, f"no root within {tol} of caption {caption}"
    return hits[0]


def _certified_caustics():
    """Every periodic caustic from the explicit-root fixtures, plus the
    (7, 5) 3-periodic one carrying the (3, 1) partition."""
    out = []
    for a, b, n, captions in PERIODIC_FIXTURES:
        E = BoundaryEllipse(a, b)
        results = periodic_caustics(E, n)
        for cap in captions:
            out.append((E, n, _match(results, cap, 1e-3)))
    E = BoundaryEllipse(7, 5)
    out.append((E, 3, _match(periodic_caustics(E, 3), -4.589037886275958, 1e-9)))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_caustics():
    t0 = time.perf_counter()
    # n = 3 closed forms: gamma = ab(a - b +- 2 sqrt(a^2+ab+b^2)) / (a+b)^2
    for (a, b), caption in (((3, 2), 2.332), ((7, 5), -4.589)):
        got = closed_form_caustics(BoundaryEllipse(a, b), 3)
        s = 2 * math.sqrt(a * a + a * b + b * b)
        formula = sorted([a * b * (a - b - s) / (a + b) ** 2, a * b * (a - b + s) / (a + b) ** 2])
        assert [float(g) for g in got] == pytest.approx(formula, rel=1e-13)
        _match([type("R", (), {"gamma": float(g)}) for g in got], caption, 1e-3)
    # n = 4 closed forms are exact rationals: {ab/(a+b), -ab/(a+b), ab/(b-a)}
    for (a, b), caption in (((2, 4), F(4, 3)), ((9, 3), F(-9, 4)), ((5, 3), F(-15, 2))):
        got = closed_form_caustics(BoundaryEllipse(F(a), F(b)), 4)
        want = {F(a * b, a + b), -F(a * b, a + b), F(a * b, b - a)}
        assert set(got) == want and caption in want
        assert all(isinstance(g, Fraction) for g in got)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_periodic_caustics_match_captions():
    t0 = time.perf_counter()
    rng = random.Random(2)
    for a, b, n, captions in PERIODIC_FIXTURES:
        E = BoundaryEllipse(a, b)
        results = periodic_caustics(E, n)
        for cap in captions:
            r = _match(results, cap, 1e-3)
            assert r.validated
            assert is_periodic(E, r.gamma, n).periodic
            P0, d0 = start_on_caustic(E, r.gamma, rng=rng)
            T = simulate(P0, d0, n, E)
            assert closure_status(T, n, 1e-6).tag == "Periodic"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_elliptic_caustics_match_captions():
    t0 = time.perf_counter()
    rng = random.Random(3)
    for a, b, n, cap, tol, case in ELLIPTIC_FIXTURES:
        E = BoundaryEllipse(a, b)
        r = _match(elliptic_caustics(E, n), cap, tol)
        assert r.case == case and r.validated
        verdict = elliptic_case_test(E, r.gamma, n)
        assert verdict.case == case
        P0, d0 = start_on_caustic(E, r.gamma, rng=rng)
        T = simulate(P0, d0, n, E)
        status = closure_status(T, n)
        assert status.tag == "EllipticPeriodic"
        assert status.sigma == case_symmetry(case) == r.sigma
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_partition_table_with_random_starts():
    for a, b, n, cap, n1, n2 in TABLE_ROWS:
        E = BoundaryEllipse(a, b)
        r = _match(periodic_caustics(E, n), cap, 1e-3)
        assert (r.n1, r.n2) == (n1, n2)
        rng = random.Random(1000 * a + 100 * b + 10 * n + n1)
        for _ in range(20):
            P0, d0 = start_on_caustic(E, r.gamma, rng=rng)
            T = simulate(P0, d0, n, E)
            assert partition_counts(T, n) == (n1, n2)


def test_criterion_05_pell_certificates():
    seen_partitions = set()
    for E, n, r in _certified_caustics():
        cert = pell_lift(pell_construct(E, r.gamma, n))
        if isinstance(cert.residual, Fraction):
            assert cert.residual == 0
        else:
            assert abs(cert.residual) <= 1e-8
        assert len(cert.equioscillation) == n + 2
        assert (cert.tau1, cert.tau2) == (n - r.n1 - 1, r.n1 - 1)
        seen_partitions.add((E.a, E.b, cert.partition))
    assert (7, 5, (3, 1)) in seen_partitions
    # elliptic caustics certify through the case identity instead
    for a, b, n, cap, tol, case in ELLIPTIC_FIXTURES:
        E = BoundaryEllipse(a, b)
        r = _match(elliptic_caustics(E, n), cap, tol)
        gamma = r.gamma_exact if r.gamma_exact is not None else r.gamma
        resid = elliptic_pell_check(E, gamma, n, case)
        if isinstance(resid, Fraction):
            assert resid == 0
        else:
            assert abs(resid) <= 1e-8


def test_criterion_06_kln_rotation_numbers():
    for E, n, r in _certified_caustics():
        ratio, _ = kln_partition(E, r.gamma)
        assert abs(ratio - r.n1 / n) <= 1e-6, (float(E.a), float(E.b), n, r.gamma)
    # random non-periodic caustics: no low-denominator rational rotation number
    E = BoundaryEllipse(3, 2)
    rng = random.Random(20260814)
    drawn = 0
    while drawn < 5:
        g = rng.uniform(-1.9, 2.9)
        if abs(g) < 0.1:
            continue
        drawn += 1
        ratio, conv = kln_partition(E, g)
        for p, q in conv:
            if q <= 12:
                assert abs(ratio - p / q) > 1e-6, (g, p, q)


def test_criterion_07_discriminant_identities():
    rng = random.Random(7)
    for name in sorted(DISCRIMINANT_IDENTITIES):
        checked = 0
        # at most 200 draws, so an identity that always degenerates fails
        # here instead of resampling forever
        for _ in range(200):
            if checked == 10:
                break
            a = F(rng.randint(1, 60), rng.randint(1, 12))
            b = F(rng.randint(1, 60), rng.randint(1, 12))
            if a == b:
                continue
            try:
                resid = discriminant_identity_check(name, a, b)
            except DomainError:
                continue  # degenerate locus of this identity; resample
            assert resid == 0, (name, a, b)
            checked += 1
        assert checked == 10, name
    assert DISCRIMINANT_IDENTITIES["G2"][1](3, 2) == 10944


def test_criterion_08_zolotarev_chain():
    rng = random.Random(8)
    for _ in range(10):
        a = rng.uniform(0.5, 12.0)
        b = rng.uniform(0.5, 12.0)
        rep = zolotarev3_consistency(BoundaryEllipse(a, b))
        assert abs(rep.alpha_residual) <= 1e-9
        assert abs(rep.sn_residual) <= 1e-9
        assert abs(rep.gamma_residual) <= 1e-9


def test_criterion_09_akhiezer_p4_regimes():
    for case, (a, b) in (("t2", (2, 4)), ("t3", (4, 2)), ("t4", (3, 2)), ("t5", (2, 4))):
        E = BoundaryEllipse(a, b)
        p4 = akhiezer_p4(E, case)  # raises CertificateInvalid on mismatch
        gamma = {
            "t2": a * b / (b - a),
            "t3": a * b / (b - a),
            "t4": -a * b / (a + b),
            "t5": a * b / (a + b),
        }[case]
        cert = pell_lift(pell_construct(E, F(gamma).limit_denominator(10**6), 4))
        ratios = [float(x) / float(y) for x, y in zip(p4, cert.p_hat) if float(y) != 0]
        assert max(ratios) - min(ratios) <= 1e-9 * max(abs(r) for r in ratios)


def test_criterion_10_lightlike_closure():
    for n, k in LIGHTLIKE_PAIRS:
        a = 1.0 / math.tan(k * math.pi / n) ** 2
        E = BoundaryEllipse(a, 1.0)
        assert lightlike_periodic(E, 12) == (n, k)
        phi = 0.3
        P0 = MVec2(math.sqrt(a) * math.cos(phi), math.sin(phi))
        T = simulate(P0, MVec2(-1.0, -1.0), n, E)
        assert closure_status(T, n, 1e-8).tag == "Periodic"
        # no full period earlier than n (mirror closures at n/2 are expected)
        assert not any(
            closure_status(T, m, 1e-6).tag == "Periodic" for m in range(1, n)
        )
        _, q0 = lightlike_pell_check(E, n // 2)
        assert abs(float(q0)) <= 1e-10
    assert lightlike_periodic(BoundaryEllipse(2, 3), 100) is None


def test_criterion_11_property_suites():
    # reflection is an involution and preserves the Minkowski norm
    rng = random.Random(11)
    done = 0
    while done < 10**4:
        L = LineImplicit(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        d = L.direction()
        if abs(minkowski_dot(d, d)) < 1e-3 * (d.x * d.x + d.y * d.y):
            continue  # nearly light-like mirror: reflection is ill-conditioned
        v = MVec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        w = reflect(v, L)
        ww = reflect(w, L)
        assert ww.x == pytest.approx(v.x, rel=1e-9, abs=1e-9)
        assert ww.y == pytest.approx(v.y, rel=1e-9, abs=1e-9)
        assert minkowski_dot(w, w) == pytest.approx(
            minkowski_dot(v, v), rel=1e-9, abs=1e-9
        )
        done += 1

    # the caustic parameter is invariant along every chord of a trajectory;
    # a draw without a start or whose trajectory fails at a step is
    # resampled, and resamples stay rare, so the loop cannot pass on them
    done = resampled = 0
    while done < 10**3:
        a = rng.uniform(0.5, 8.0)
        b = rng.uniform(0.5, 8.0)
        E = BoundaryEllipse(a, b)
        gamma = rng.uniform(-b + 0.05 * b, a - 0.05 * a)
        if abs(gamma) < 0.05:
            continue
        try:
            P0, d0 = start_on_caustic(E, gamma, rng=rng)
            T = simulate(P0, d0, 8, E)
        except (DomainError, ReflectionUndefined, DegenerateChord, CausticDrift):
            resampled += 1
            continue  # no start, touch-point landing or degenerate chord
        chords = [
            caustic_of_line(line_through(T.vertices[i], T.directions[i]), E)
            for i in range(T.steps)
        ]
        if any(g is ALL_CONICS for g in chords):
            resampled += 1
            continue  # grazed a touch point: tangent to every conic
        for g in chords:
            assert g == pytest.approx(gamma, rel=1e-8)
        done += 1
    assert resampled < 0.1 * (done + resampled)

    # squared-series identity, exact in rational arithmetic
    for _ in range(20):
        a = F(rng.randint(1, 30), rng.randint(1, 8))
        b = F(rng.randint(1, 30), rng.randint(1, 8))
        gamma = F(rng.randint(1, 30), rng.randint(1, 8)) * rng.choice((1, -1))
        if gamma in (a, -b) or gamma == 0:
            continue
        S = cubic_sqrt_series(BoundaryEllipse(a, b), gamma, 12)
        square = pmul(list(S.scaled), list(S.scaled))[: 12 + 1]
        cubic = pmul(pmul([1, -1 / F(a)], [1, 1 / F(b)]), [1, -1 / F(gamma)])
        cubic = cubic + [F(0)] * (13 - len(cubic))
        assert square == cubic[:13]

    # a hyperbola caustic forces an even period
    for n in range(3, 9):
        for a, b in ((3, 2), (5, 3), (6, 4), (2, 4), (7, 5), (6, 3), (3, 7)):
            E = BoundaryEllipse(a, b)
            for r in periodic_caustics(E, n):
                if classify_conic(r.gamma, E) in (
                    ConicClass.HyperbolaXMajor,
                    ConicClass.HyperbolaYMajor,
                ):
                    assert n % 2 == 0, (a, b, n, r.gamma)
