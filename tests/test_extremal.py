"""Pell certificates, rotation numbers and extremal-polynomial identities."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from pellipse import (
    BoundaryEllipse,
    akhiezer_p4,
    chebyshev,
    complete_K,
    elliptic_caustics,
    elliptic_pell_check,
    jacobi_elliptic,
    kln_partition,
    lightlike_pell_check,
    lightlike_periodic,
    pell_construct,
    pell_lift,
    periodic_caustics,
    zolotarev3_consistency,
)
from pellipse import cayley, extremal
from pellipse.errors import CertificateInvalid, DomainError, NoCertificate

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


def test_pell_lift_rejects_a_nonzero_exact_residual():
    pair = pell_construct(BoundaryEllipse(F(2), F(4)), F(4, 3), 4)
    bent = dataclasses.replace(pair, p2=(pair.p2[0] + F(1, 10**12),) + pair.p2[1:])
    with pytest.raises(CertificateInvalid):
        pell_lift(bent, validate_partition=False)


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
    cert = pell_lift(pair, validate_partition=False)
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


def test_elliptic_pell_check_exact_and_mismatch():
    E = BoundaryEllipse(F(5), F(3))
    assert elliptic_pell_check(E, F(15, 8), 2, "a") == 0
    assert elliptic_pell_check(E, F(-15, 8), 2, "b") == 0
    assert elliptic_pell_check(E, F(-15, 2), 2, "c") == 0
    with pytest.raises(DomainError):
        elliptic_pell_check(E, F(15, 8), 2, "b")


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


def test_lightlike_pell_exact_closure():
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(3), F(1)), 3)
    assert resid == 0 and q0 == 0
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(1), F(1)), 2)
    assert resid == 0 and q0 == 0
    # a/b = 3/2 is not cot^2 of a rational angle: Pell holds, closure fails
    resid, q0 = lightlike_pell_check(BoundaryEllipse(F(3), F(2)), 3)
    assert resid == 0 and q0 != 0
