"""Polynomial Pell certificates and extremal-polynomial cross-checks.

An ``(n, n1)``-periodic caustic ``gamma`` of the boundary ellipse induces a
polynomial Pell equation ``ph**2 - E4 * qh**2 = 1`` where

    E4(s) = s (s - 1/a) (s + 1/b) (s - 1/gamma),

``deg ph = n`` and ``deg qh = n - 2``.  The pair ``(ph, qh)`` is built from
a null vector of the certificate system, which is the closure block of
:mod:`pellipse.cayley` (the Hankel block of the periodicity test) with its
columns reversed, then lifted by the Chebyshev doubling
``ph = 2 p**2 - 1`` (even ``n``) or ``ph = 2 (s - 1/gamma) p**2 + sign(gamma)``
(odd ``n``).  ``ph`` equioscillates between the band endpoints
``c1 < c2 < c3 < c4 = sorted {0, 1/a, -1/b, 1/gamma}``: together with the
``n - 2`` interior roots of ``qh`` (``tau2`` in ``[c1, c2]``, ``tau1`` in
``[c3, c4]``) there are ``n + 2`` points where ``|ph| = 1``.

Rational ``(a, b, gamma)`` run in exact arithmetic (residual exactly 0);
floating caustics are Newton-polished and evaluated in 50-digit decimal
arithmetic, on the decimal images of the axes as given.  The periodic and
the elliptic certificates share one step, :func:`_certificate_pair`.  The
module also provides the Kolmogorov-style rotation-number integrals,
Jacobi elliptic functions via the arithmetic-geometric mean,
the degree-3 Zolotarev consistency identities, the four Akhiezer
least-deviation regimes and the light-like (Chebyshev) special case.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial, reduce

from . import polys
from .cayley import (
    _hankel_block,
    _hankel_layout,
    _ladder,
    closure_ladder,
    elliptic_case_test,
    is_periodic,
)
from .config import LIGHTLIKE, PELL_RESIDUAL
from .errors import CertificateInvalid, DomainError, NoCertificate
from .geometry import BoundaryEllipse, degenerate_value

__all__ = [
    "PellPair",
    "PellCertificate",
    "ZolotarevReport",
    "chebyshev",
    "pell_construct",
    "pell_lift",
    "elliptic_pell_check",
    "kln_partition",
    "rotation_ratio",
    "jacobi_elliptic",
    "complete_K",
    "zolotarev3_consistency",
    "akhiezer_p4",
    "lightlike_periodic",
    "lightlike_pell_check",
]


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------


def chebyshev(n: int) -> list[int]:
    """Coefficients (ascending) of the Chebyshev polynomial ``T_n``."""
    if n < 0:
        raise DomainError(f"Chebyshev degree must be >= 0, got {n}")
    t0, t1 = [1], [0, 1]
    if n == 0:
        return t0
    for _ in range(n - 1):
        t0, t1 = t1, polys.psub(polys.pmul([0, 2], t1), t0)
    return t1


# ---------------------------------------------------------------------------
# the certificate core: cayley's closure block, one null vector, one defect
# ---------------------------------------------------------------------------


def _toeplitz(S: list, ladder: str, n: int) -> list[list]:
    """The closure block of ``ladder`` at period ``n`` with its columns reversed.

    Row ``i`` holds ``S[top + i - j]``, where ``S[top]`` is the block's
    top-right entry, so a null vector ``v`` of this Toeplitz system makes
    coefficients ``top .. top + size - 1`` of ``v(x) S(x)`` vanish.
    """
    return [row[::-1] for row in _hankel_block(S, ladder, n)]


def _newton_polish(a: Decimal, b: Decimal, g0: Decimal, ladder: str, n: int) -> Decimal:
    """Polish ``gamma`` so the closure block of ``ladder`` at ``n`` is singular.

    Central-difference Newton iteration in 50-digit decimal arithmetic on
    the determinant of :func:`_toeplitz`; converges quadratically from a
    double-precision seed for the simple roots of the closure conditions.
    """
    h = Decimal(10) ** -30
    tol = Decimal(10) ** -42

    def f(g: Decimal) -> Decimal:
        return polys.det(_toeplitz(_ladder(a, b, g, ladder, n - 1), ladder, n))

    g = g0
    for _ in range(60):
        fp = (f(g + h) - f(g - h)) / (2 * h)
        if fp == 0:
            break
        dg = f(g) / fp
        g = g - dg
        if abs(dg) < tol * max(Decimal(1), abs(g)):
            break
    return g


def _certificate_pair(E: BoundaryEllipse, gamma, ladder: str, n: int):
    """The certificate's field values and unnormalized pair, or ``None``.

    Returns ``((a, b, gamma), p, q)``, the pair highest coefficient first.
    Exact inputs stay rational.  An inexact ``gamma`` makes the field
    50-digit ``Decimal``: :func:`~pellipse.polys.to_field` of the axes as
    given (a ``Fraction`` as its 50-digit quotient, not as its float) and
    of ``gamma`` (a float exactly), so the certificate is built for the
    axes that the exact closure test reads.  ``gamma`` is then
    Newton-polished onto the nearest root of the closure determinant of
    ``ladder``; ``None`` means that root lies more than ``1e-6 |gamma|``
    away.  ``q`` is the null vector of the closure block and ``p`` the
    part of ``q(x) S(x)`` below the coefficients the block forces to zero.
    The block reads the series up to index ``n - 1``.
    """
    a, b, g = polys.to_field(E.a, E.b, gamma)
    if not polys.is_exact(g):
        a, b, g0 = polys.to_field(E.a, E.b, Decimal(g))
        with polys.field_context(g0):
            g = _newton_polish(a, b, g0, ladder, n)
            if abs(g - g0) > Decimal("1e-6") * abs(g0):
                return None
    with polys.field_context(g):
        S = _ladder(a, b, g, ladder, n - 1)
        v = polys.nullspace_vector(_toeplitz(S, ladder, n))
        start, size = _hankel_layout(ladder, n)
        top = start + size - 1
        return (a, b, g), polys.pmul(v, S[:top])[:top][::-1], v[::-1]


def _factors(a, b, g=None) -> dict:
    """``E4``'s factors by letter: s, A = s - 1/a, B = s + 1/b and, given g, G = s - 1/g."""
    one = a / a
    f = {"s": [0 * one, one], "A": [-1 / a, one], "B": [1 / b, one]}
    if g is not None:
        f["G"] = [-1 / g, one]
    return f


def _pell_defect(P: list, p2: list, Q: list, q2: list, target):
    """The largest absolute coefficient of ``P p2 - Q q2 - target``."""
    defect = polys.psub(polys.psub(polys.pmul(P, p2), polys.pmul(Q, q2)), [target])
    return max(abs(c) for c in defect)


# ---------------------------------------------------------------------------
# Pell pair construction
# ---------------------------------------------------------------------------


class PellPair(namedtuple("PellPair", "n gamma ellipse p2 pq values")):
    """The primitive solution ``(p, q)`` of the half-degree Pell identity.

    ``n`` is the period, ``gamma`` the caustic (a ``float``) and
    ``ellipse`` the :class:`~pellipse.geometry.BoundaryEllipse`.  The pair
    is kept as the coefficient tuples ``p2`` and ``pq`` (ascending) of
    ``p**2`` and ``p q``: rational polynomials even when ``p`` itself
    carries an irrational scale, so the lift to the full certificate is
    lossless.  ``values`` holds the ``(a, b, gamma)`` they were computed
    from, in their field.
    """

    __slots__ = ()


class PellCertificate(
    namedtuple(
        "PellCertificate",
        "n gamma c p_hat q_hat residual tau1 tau2 partition equioscillation",
    )
):
    """A verified polynomial Pell certificate for an ``n``-periodic caustic.

    ``tau1``/``tau2`` count interior roots of ``q_hat`` in the bands
    ``[c3, c4]`` / ``[c1, c2]``; ``equioscillation`` lists the ``n + 2``
    points where ``|p_hat| = 1``.  ``partition`` is the pair ``(n, n1)``
    (total period, bounces on relativistic-ellipse arcs); the counts
    split as ``(tau1, tau2) = (n - n1 - 1, n1 - 1)``, so it is
    ``(n, tau2 + 1)``.  ``gamma`` is a ``float``; ``c`` holds the four
    band ends, and ``p_hat``, ``q_hat`` and ``equioscillation`` are tuples
    of floats.  ``residual`` is the largest Pell defect: exact (so ``0``) on
    exact inputs, a ``float`` otherwise.
    """

    __slots__ = ()

    def to_jsonable(self, kln_ratio: float | None = None) -> dict:
        doc = {
            "n": self.n,
            "gamma": self.gamma,
            "c": list(self.c),
            "p_hat": list(self.p_hat),
            "q_hat": list(self.q_hat),
            "residual": float(self.residual),
            "tau1": self.tau1,
            "tau2": self.tau2,
            "partition": list(self.partition),
        }
        if kln_ratio is not None:
            doc["kln_ratio"] = kln_ratio
        return doc


def _band_endpoints(a: float, b: float, g: float) -> tuple[float, float, float, float]:
    cs = sorted([0.0, 1.0 / a, -1.0 / b, 1.0 / g])
    return cs[0], cs[1], cs[2], cs[3]


def pell_construct(E: BoundaryEllipse, gamma, n: int) -> PellPair:
    """Construct the primitive Pell pair for an ``n``-periodic caustic.

    ``gamma``, as given, must pass the exact periodicity test
    :func:`~pellipse.cayley.is_periodic` at period ``n`` (otherwise
    :class:`NoCertificate`: the certificate system has a trivial null
    space): an exact ``gamma`` must be a closure root, and landing from
    the float of a float or ``Decimal`` one must reach a sign change of
    the closure determinant, as it does for every root the solvers report.
    :func:`_certificate_pair` gives the field values and the unnormalized
    pair: rational ``(a, b, gamma)`` stay exact, an inexact ``gamma`` is
    Newton-polished in 50-digit decimal arithmetic on the axes as given
    (:class:`NoCertificate` when the polish leaves ``1e-6 |gamma|``).  The
    pair is normalized here: squared, then divided by the square of the
    leading coefficient of ``p`` (:class:`NoCertificate` when it is 0).
    """
    if n < 3:
        raise DomainError(f"Pell construction requires n >= 3, got {n}")
    if not is_periodic(E, gamma, n).periodic:
        raise NoCertificate(
            f"no Pell certificate: the exact closure test rejects gamma={gamma} at n={n} "
            "(null space trivial)"
        )
    step = _certificate_pair(E, gamma, closure_ladder(n), n)
    if step is None:
        raise NoCertificate(
            f"gamma={gamma!r} is not within polishing range of a period-{n} caustic"
        )
    values, rev_p, rev_q = step
    g = values[2]
    lead = rev_p[0]
    if lead == 0:
        raise NoCertificate("degenerate certificate: leading coefficient vanished")
    with polys.field_context(g):
        lead2 = lead * lead
        p2 = [c / lead2 for c in polys.pmul(rev_p, rev_p)]
        pq = [c / lead2 for c in polys.pmul(rev_p, rev_q)]
        if n % 2:
            p2 = [c * abs(g) for c in p2]
            pq = [c if g > 0 else -c for c in pq]
    return PellPair(n=n, gamma=float(g), ellipse=E, p2=tuple(p2), pq=tuple(pq), values=values)


def pell_lift(pair: PellPair) -> PellCertificate:
    """Lift a Pell pair to the full certificate and verify the identity.

    Builds ``p_hat``/``q_hat`` by Chebyshev doubling, checks
    ``p_hat**2 - E4 * q_hat**2 - 1 = 0`` (exactly in rational mode, to
    ``PELL_RESIDUAL`` otherwise; :class:`CertificateInvalid` on failure),
    proves the root counts of ``q_hat`` in the bands (:func:`_band_roots`)
    and records the equioscillation points.  The partition ``(n, n1)``
    follows from the proven counts, ``n1 = tau2 + 1``; no trajectory is
    simulated.
    """
    n = pair.n
    a, b, g = pair.values
    one = g / g
    with polys.field_context(g):
        f = _factors(a, b, g)
        if n % 2 == 0:
            ph = polys.padd(polys.pscale(pair.p2, 2), [-one])
        else:
            eps_sign = one if g > 0 else -one
            ph = polys.padd(polys.pscale(polys.pmul(f["G"], list(pair.p2)), 2), [eps_sign])
        qh = polys.pscale(pair.pq, 2)
        e4 = polys.pmul(polys.pmul(f["s"], f["A"]), polys.pmul(f["B"], f["G"]))
        residual = _pell_defect([one], polys.pmul(ph, ph), e4, polys.pmul(qh, qh), 1)
    exact = polys.is_exact(residual)
    if (residual != 0) if exact else (float(residual) > PELL_RESIDUAL):
        raise CertificateInvalid(
            f"Pell identity residual {float(residual):.3e} "
            + ("is not exactly 0" if exact else f"exceeds {PELL_RESIDUAL:.1e}")
        )
    cs = _band_endpoints(float(pair.ellipse.a), float(pair.ellipse.b), pair.gamma)
    ph_f = [float(c) for c in ph]
    qh_f = [float(c) for c in qh]
    tau1, tau2, roots = _band_roots(qh, qh_f, pair.values)
    eq_points = sorted(list(cs) + roots)
    return PellCertificate(
        n=n,
        gamma=pair.gamma,
        c=cs,
        p_hat=tuple(ph_f),
        q_hat=tuple(qh_f),
        residual=residual if exact else float(residual),
        tau1=tau1,
        tau2=tau2,
        partition=(n, tau2 + 1),
        equioscillation=tuple(eq_points),
    )


def _band_roots(qh: list, qh_f: list[float], values: tuple) -> tuple[int, int, list[float]]:
    """Proven root counts of ``q_hat`` in ``[c3, c4]`` and ``[c1, c2]``, and the roots.

    The float ``q_hat`` is sampled on an arcsine grid of each band, and
    each sign change is confirmed by the exact sign of the primitive
    integer ``q_hat`` at both ends of its bracket.  As many disjoint
    confirmed brackets as ``deg q_hat`` locate every root; otherwise the
    counts come from the Sturm chain.  The roots, the interior points where
    ``|p_hat| = 1``, are bisected in floats.
    """
    a, b, g = map(Fraction, values)
    c1, c2, c3, c4 = sorted([Fraction(0), 1 / a, -1 / b, 1 / g])
    p = polys._int_poly(qh)
    points = 4 * (len(p) - 1) + 8
    inner = _band_brackets(p, qh_f, c1, c2, points)
    outer = _band_brackets(p, qh_f, c3, c4, points)
    if len(inner) + len(outer) == len(p) - 1:
        f = partial(polys.peval, qh_f)
        roots = [polys.regula_falsi(f, lo, hi, f(lo), f(hi)) for lo, hi in inner + outer]
        return len(outer), len(inner), roots
    chain = polys.sturm_chain(qh)
    roots = [float(r) for r in polys.real_roots(qh) if c1 < r <= c2 or c3 < r <= c4]
    return polys.count_real_roots(chain, c3, c4), polys.count_real_roots(chain, c1, c2), roots


def _band_brackets(p: list[int], qf: list[float], lo: Fraction, hi: Fraction, points: int):
    """Disjoint float brackets in ``[lo, hi]`` across which ``p`` changes sign exactly.

    Candidates are the sign changes of ``qf`` on ``points`` arcsine-spaced
    intervals; a candidate counts only if ``p`` has opposite nonzero signs
    at its ends, clamped into ``[lo, hi]``.
    """
    mid, half = float(lo + hi) / 2, float(hi - lo) / 2
    out = []
    x0 = s0 = None
    for k in range(points + 1):
        x = mid - half * math.cos(math.pi * k / points)
        v = polys.peval(qf, x)
        s = (v > 0) - (v < 0)
        if not s:
            continue
        if s0 is not None and s != s0:
            ea, eb = (min(max(Fraction(t), lo), hi) for t in (x0, x))
            if polys._sign_at(p, ea) * polys._sign_at(p, eb) < 0:
                out.append((x0, x))
        x0, s0 = x, s
    return out


# ---------------------------------------------------------------------------
# elliptic-periodic certificate check
# ---------------------------------------------------------------------------


def elliptic_pell_check(E: BoundaryEllipse, gamma, n: int, case: str):
    """Residual of the case identity for an elliptic ``n``-periodic caustic.

    Verifies that ``gamma``, as given, matches ``case`` by the exact test
    :func:`~pellipse.cayley.elliptic_case_test` (raising
    :class:`DomainError` on mismatch), builds the case polynomial pair
    from the matching ladder with :func:`_certificate_pair`, as
    :func:`pell_construct` does (:class:`DomainError` when the polish
    leaves ``1e-6 |gamma|``), and returns the maximal coefficient of the
    identity defect — an exact rational zero in rational mode, a float
    otherwise.  The pair is squared, then divided by the square of the
    leading coefficient of ``q`` (even ``n``) or ``p`` (odd ``n``;
    :class:`CertificateInvalid` when it is 0).  The five identities
    are, with ``A = s - 1/a``, ``Bp = s + 1/b``, ``G = s - 1/gamma``:

    * even, case a: ``s A p**2 - Bp G q**2 = 1``
    * even, case b: ``s Bp p**2 - A G q**2 = 1``
    * even, case c: ``s G p**2 - A Bp q**2 = 1``
    * odd, cases a/d: ``Bp p**2 - s A G q**2 = 1``
    * odd, cases b/e: ``A p**2 - s Bp G q**2 = -1``
    """
    if n < 2:
        raise DomainError(f"elliptic certificate requires n >= 2, got {n}")
    ladder = closure_ladder(n, case)
    verdict = elliptic_case_test(E, gamma, n)
    if verdict.case != case:
        raise DomainError(f"case mismatch: gamma={gamma} tests as {verdict.case!r}, not {case!r}")
    step = _certificate_pair(E, gamma, ladder, n)
    if step is None:
        raise DomainError(
            f"gamma={gamma!r} is not within polishing range of the case-{case} condition"
        )
    (a, b, g), rev_p, rev_q = step
    lead = rev_p[0] if n % 2 else rev_q[0]
    if lead == 0:
        raise CertificateInvalid("degenerate elliptic certificate: zero normalizer")
    scales, p_factors, q_factors, target = _CASE_IDENTITIES[n % 2, ladder]
    with polys.field_context(g):
        l2 = lead * lead
        pp = [c / l2 for c in polys.pmul(rev_p, rev_p)]
        qq = [c / l2 for c in polys.pmul(rev_q, rev_q)]
        sp2, sq2 = scales(a, b, g)
        f = _factors(a, b, g)
        P = reduce(polys.pmul, (f[c] for c in p_factors))
        Q = reduce(polys.pmul, (f[c] for c in q_factors))
        res = _pell_defect(P, [c * sp2 for c in pp], Q, [c * sq2 for c in qq], target)
    return res if polys.is_exact(res) else float(res)


#: The elliptic case identities ``P p**2 - Q q**2 = target`` by ``(n % 2,
#: ladder)``, for the ladder :func:`~pellipse.cayley.closure_ladder` names:
#: the squared scales of ``p`` and ``q`` (rational in ``a, b, gamma``), the
#: factors of ``P`` and of ``Q`` as letters for ``s``, ``A = s - 1/a``,
#: ``B = s + 1/b`` and ``G = s - 1/gamma``, and the target.
_CASE_IDENTITIES = {
    (0, "D"): (lambda a, b, g: (a * a * b * g, b * g), "sA", "BG", 1),
    (0, "E"): (lambda a, b, g: (-(b * b) * a * g, -(a * g)), "sB", "AG", 1),
    (0, "C"): (lambda a, b, g: (g * g * a * b, a * b), "sG", "AB", 1),
    (1, "E"): (lambda a, b, g: (b, 1 / b), "B", "sAG", 1),
    (1, "D"): (lambda a, b, g: (a, 1 / a), "A", "sBG", -1),
}


# ---------------------------------------------------------------------------
# rotation-number integrals (KLN partition)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the ``n``-point Gauss-Legendre rule.

    Newton's method on the three-term recurrence of ``P_n``, started at
    ``cos(pi (i - 1/4) / (n + 1/2))``; the weights are
    ``2 / ((1 - x**2) P_n'(x)**2)``.  The positive half is mirrored, so the
    rule is exactly symmetric.
    """

    def legendre(x: float) -> tuple[float, float]:
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (p0 - x * p1) / (1 - x * x)

    half = []
    for i in range(1, (n + 1) // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-15:
                break
        _, dp = legendre(x)
        half.append((x, 2 / ((1 - x * x) * dp * dp)))
    if n % 2:
        half[-1] = (0.0, half[-1][1])
    rule = [(-x, w) for x, w in half[: n // 2]] + half[::-1]
    return tuple(x for x, _ in rule), tuple(w for _, w in rule)


@lru_cache(maxsize=None)
def _kln_nodes() -> tuple:
    """The node tables of :func:`kln_partition`'s quadrature, built once per process.

    Returns ``(w, half1, sin2, half2, t2, rest)``: the weights of the
    80-point rule of :func:`_legendre_rule`, and per integral the half
    width of its 8 equal panels and, per panel, the transforms of its
    nodes.  ``theta`` runs over ``[0, pi/2]`` and ``sin2`` holds
    ``sin(theta)**2``; ``t`` runs over ``[0, 1]``, ``t2`` holds ``t*t``
    and ``rest`` holds ``1 - t*t``.  The node of ``xi`` in the panel of
    midpoint ``mid`` is ``mid + half * xi``.
    """
    x, w = _legendre_rule(80)

    def panels(lo: float, hi: float) -> tuple[float, list[list[float]]]:
        width = (hi - lo) / 8
        half = width / 2
        mids = (lo + ip * width + width / 2 for ip in range(8))
        return half, [[mid + half * xi for xi in x] for mid in mids]

    half1, theta = panels(0.0, math.pi / 2)
    half2, t = panels(0.0, 1.0)
    sin2 = tuple(tuple(math.sin(v) ** 2 for v in p) for p in theta)
    t2 = tuple(tuple(v * v for v in p) for p in t)
    rest = tuple(tuple(1 - v for v in p) for p in t2)
    return w, half1, sin2, half2, t2, rest


def _weighted_sum(w: tuple[float, ...], values: list[float]) -> float:
    """``sum(w_i * v_i)`` from 0.0, left to right and rounded at each step.

    ``sum()`` compensates float sums from Python 3.12 on, which would move
    the last digits of ``kln_ratio``.
    """
    total = 0.0
    for wi, v in zip(w, values):
        total += wi * v
    return total


def _convergents(x: float) -> list[tuple[int, int]]:
    """Up to 25 continued-fraction convergents of ``x``, stopping past denominator 1000."""
    p0, q0, p1, q1 = 1, 0, int(math.floor(x)), 1
    out = [(p1, q1)]
    frac = x - math.floor(x)
    while len(out) < 25 and frac > 1e-15 and q1 <= 1000:
        x = 1.0 / frac
        aa = int(math.floor(x))
        frac = x - aa
        p0, p1 = p1, aa * p1 + p0
        q0, q1 = q1, aa * q1 + q0
        out.append((p1, q1))
    return out


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's ``R_F(x, y, z)`` by duplication (DLMF 19.36.1).

    The arguments are non-negative with at most one zero.  The loop stops
    when they lie within ``1e-3`` of their mean; the fifth-order series
    then leaves a relative error below ``1e-18`` (Carlson 1995).
    """
    while True:
        mu = (x + y + z) / 3
        tol = 1e-3 * mu
        if -tol <= x - mu <= tol and -tol <= y - mu <= tol and -tol <= z - mu <= tol:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    dx, dy = 1 - x / mu, 1 - y / mu
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(mu)


def _agm(x: float, y: float) -> float:
    """The arithmetic-geometric mean ``M(x, y)`` of two positive floats.

    It converges quadratically: once the means agree to ``2**-26`` of
    their size, the next arithmetic mean is ``M`` to within about ``2**-55``.
    """
    while abs(x - y) > 2**-26 * x:
        x, y = (x + y) / 2, math.sqrt(x * y)
    return (x + y) / 2


def _gap(xi: float, xj: float) -> float:
    """``1/xj - 1/xi``, to full relative precision when the ends nearly meet."""
    if math.isinf(xi) or math.isinf(xj):
        return 1 / xj - 1 / xi
    return (xi - xj) / (xi * xj)


def rotation_ratio(a, b, gamma) -> float:
    """The rotation number ``rho = I2/I1`` of the caustic ``gamma``, in closed form.

    ``I1`` and ``I2`` are the integrals of :func:`kln_partition`; with the
    band ends ``c1 < c2 < c3 < c4`` of ``E4`` they are (DLMF 19.29(i))

        I1 = 2 R_F((c3 - c1)(c4 - c2), (c2 - c1)(c4 - c3), 0),
        I2 = 2 R_F((c4 - c1)(c4 - c2), (c4 - c1)(c4 - c3), (c4 - c2)(c4 - c3)).

    The complete ``I1`` is ``pi / M(sqrt x, sqrt y)`` for its arguments
    ``x, y``, with ``M`` the arithmetic-geometric mean (DLMF 19.22.1),
    which converges quadratically; ``I2`` is Carlson's ``R_F`` by
    duplication.  An ``(n, n1)``-periodic caustic has ``n rho = n1``.  The
    band ends are ``1/x`` for ``x`` in ``{a, -b, gamma, infinity}``, and
    each gap is formed as ``(x_i - x_j) / (x_i x_j)``, so two ends that
    nearly meet keep their distance to full relative precision; the axes
    are first scaled by a power of two, exactly.  ``rho`` is
    scale-invariant and monotone on each of the ranges ``(-inf, -b)``,
    ``(-b, 0)``, ``(0, a)`` and ``(a, inf)``, which fix the order of the
    band ends.  It extends continuously to ``gamma = -b`` (value 0),
    ``gamma = a`` (value 1) and ``gamma = +-inf``; at ``gamma = 0`` it
    jumps from 1 to 0, and ``DomainError`` is raised there.  The axes are
    scaled to the geometric mean of their exponents, so the products of
    gaps stay in the float range while ``a/b`` does; beyond it, as when
    ``gamma`` underflows, ``DomainError`` is raised too.
    """
    a, b, g = float(a), float(b), float(gamma)
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)) or g == 0 or g != g:
        raise DomainError(f"rotation number undefined at a={a}, b={b}, gamma={g}")
    if g in (a, -b):
        return float(g == a)
    e = (math.frexp(a)[1] + math.frexp(b)[1]) // 2
    try:
        sa, sb, sg = math.ldexp(a, -e), -math.ldexp(b, -e), math.ldexp(g, -e)
        # the x of c1 < c2 < c3 < c4, ordered by the range of gamma
        if g < 0:
            (x1, x2), x3, x4 = (sb, sg) if g < -b else (sg, sb), math.inf, sa
        else:
            x1, x2, (x3, x4) = sb, math.inf, (sa, sg) if g < a else (sg, sa)
        c41, c42, c43 = _gap(x1, x4), _gap(x2, x4), _gap(x3, x4)
        x, y = _gap(x1, x3) * c42, _gap(x1, x2) * c43
        u, v, w = c41 * c42, c41 * c43, c42 * c43
    except (OverflowError, ZeroDivisionError):  # an end or a gap beyond the float range
        x = 0.0
    # R_F and the AGM need finite, positive arguments
    if not (0 < x < math.inf and 0 < y < math.inf and 0 < u < math.inf
            and 0 < v < math.inf and 0 < w < math.inf):
        raise DomainError(f"rotation number beyond the float range at a={a}, b={b}, gamma={g}")
    return _carlson_rf(u, v, w) * _agm(math.sqrt(x), math.sqrt(y)) * (2 / math.pi)


def kln_partition(E: BoundaryEllipse, gamma) -> tuple[float, list[tuple[int, int]]]:
    """Rotation-number ratio ``I2/I1`` and its continued-fraction convergents.

    With band endpoints ``c1 < c2 < c3 < c4`` of ``E4``, ``I1`` integrates
    ``1/sqrt(|E4|)`` over the inner gap ``[c2, c3]`` and ``I2`` over
    ``[c4, infinity)``; for an ``(n, n1)``-periodic caustic the ratio
    equals ``n1/n``.  Both integrals are regularized by trigonometric /
    rational substitutions and evaluated by composite Gauss-Legendre
    quadrature: 8 panels of one 80-point rule, which
    :func:`_legendre_rule` builds in pure Python once per process.  The
    nodes and their transforms come from the tables of :func:`_kln_nodes`,
    each integrand is evaluated over a panel in one comprehension, and
    each panel is summed left to right; the floats are those of one
    integrand call per node at ``mid + half * xi``.  Near
    ``c3 = c4`` (``gamma`` close to ``a``) the regularized ``I2`` integrand
    loses accuracy and the ratio drifts from ``n1/n``.
    :func:`rotation_ratio` computes the same ratio by Carlson's ``R_F``
    without that error; this function keeps its quadrature because the
    benchmark's certify references pin ``kln_ratio`` values that carry it,
    and it moves onto :func:`rotation_ratio` together with those references.
    """
    a, b, g = float(E.a), float(E.b), float(gamma)
    if degenerate_value(g, E) is not None:
        raise DomainError(f"gamma={gamma} is degenerate")
    c1, c2, c3, c4 = _band_endpoints(a, b, g)
    w, half1, sin2, half2, t2, rest = _kln_nodes()
    sqrt = math.sqrt
    d32, d41, d42, d43 = c3 - c2, c4 - c1, c4 - c2, c4 - c3
    scale = 2.0 * sqrt(d43)
    i1 = i2 = 0.0
    for q in sin2:  # s = c2 + (c3 - c2) sin(theta)**2, theta in [0, pi/2]
        f1 = [2.0 / sqrt(((s := c2 + d32 * v) - c1) * (c4 - s)) for v in q]
        i1 += half1 * _weighted_sum(w, f1)
    for tt, r in zip(t2, rest):  # s = c4 + (c4 - c3) t**2 / (1 - t**2), t in [0, 1]
        f2 = [
            scale / sqrt((d43 * u + d41 * v) * (d43 * u + d42 * v) * (d43 * u + d43 * v))
            for u, v in zip(tt, r)
        ]
        i2 += half2 * _weighted_sum(w, f2)
    ratio = i2 / i1
    return ratio, _convergents(ratio)


# ---------------------------------------------------------------------------
# Jacobi elliptic functions and complete integral via the AGM
# ---------------------------------------------------------------------------


def complete_K(k: float) -> float:
    """Complete elliptic integral ``K(k)``; requires ``0 <= k < 1``."""
    if not 0 <= k < 1:
        raise DomainError(f"complete_K requires 0 <= k < 1, got {k}")
    return math.pi / (2 * _agm(1.0, math.sqrt(1 - k * k)))


def jacobi_elliptic(u: float, k: float) -> tuple[float, float, float]:
    """Jacobi functions ``(sn, cn, dn)(u, k)`` by the descending AGM ladder.

    Requires ``0 <= k < 1``; ``k = 0`` degenerates to circular functions.
    ``dn`` is recovered from the last angle of the Landen descent; where
    that formula degenerates to 0/0 (``u`` near odd multiples of ``K``)
    the complementary identity ``dn = sqrt(1 - k**2 sn**2)`` takes over,
    which is well conditioned there because ``dn >= k' > 0``.
    """
    if not 0 <= k < 1:
        raise DomainError(f"jacobi_elliptic requires 0 <= k < 1, got {k}")
    if k == 0.0:
        return math.sin(u), math.cos(u), 1.0
    aa = [1.0]
    bb = [math.sqrt(1.0 - k * k)]
    cc = [k]
    while abs(cc[-1]) > 1e-15 * aa[-1] and len(aa) <= 60:
        ai, bi = aa[-1], bb[-1]
        cc.append((ai - bi) / 2)
        aa.append((ai + bi) / 2)
        bb.append(math.sqrt(ai * bi))
    n = len(aa) - 1
    phi = (2.0**n) * aa[-1] * u
    phi_next = phi
    for i in range(n, 0, -1):
        arg = cc[i] / aa[i] * math.sin(phi)
        arg = max(-1.0, min(1.0, arg))
        phi_next = phi
        phi = (phi + math.asin(arg)) / 2
    sn, cn = math.sin(phi), math.cos(phi)
    cosd = math.cos(phi_next - phi) if n >= 1 else 1.0
    if abs(cosd) > 0.5:
        dn = cn / cosd
    else:
        dn = math.sqrt(1.0 - k * k * sn * sn)
    return sn, cn, dn


# ---------------------------------------------------------------------------
# Zolotarev degree-3 consistency
# ---------------------------------------------------------------------------


class ZolotarevReport(
    namedtuple("ZolotarevReport", "t Y kappa_sq alpha_residual sn_residual gamma_residual")
):
    """Residuals of the degree-3 Zolotarev parametrization identities (floats)."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.alpha_residual, self.sn_residual, self.gamma_residual)


def zolotarev3_consistency(E: BoundaryEllipse) -> ZolotarevReport:
    """Check the Zolotarev parametrization of the 3-periodic caustic.

    The hardest-approximation parameter ``Y`` solves
    ``t Y**2 + 2 Y - (1 + t) = 0``, i.e.
    ``Y = (-1 + sqrt(1 + t + t**2)) / t`` with ``t = b/a``; the report
    compares ``alpha = (Y**2 - 4 Y + 1)/(Y**2 - 1)`` with ``2 t + 1``,
    evaluates ``sn(K(kappa)/3, kappa) - Y`` for the induced modulus and
    matches ``2 b / (beta - 1)`` against the closed-form caustic
    ``gamma1 = a b (a - b + 2 sqrt(a**2 + a b + b**2)) / (a + b)**2``.
    """
    a, b = float(E.a), float(E.b)
    t = b / a
    Y = (-1.0 + math.sqrt(1.0 + t + t * t)) / t
    if not 0.0 < Y < 1.0:
        raise DomainError(f"Zolotarev parameter Y={Y} out of range")
    kappa_sq = (2 * Y - 1) / (Y**3 * (2 - Y))
    if not 0.0 < kappa_sq < 1.0:
        raise DomainError(f"Zolotarev modulus kappa^2={kappa_sq} out of range")
    alpha = (Y * Y - 4 * Y + 1) / (Y * Y - 1)
    alpha_residual = abs(alpha - (2 * t + 1))
    kappa = math.sqrt(kappa_sq)
    sn, _, _ = jacobi_elliptic(complete_K(kappa) / 3, kappa)
    sn_residual = abs(sn - Y)
    beta = (1 + Y * Y) / (1 - Y * Y)
    gamma_z = 2 * b / (beta - 1)
    gamma1 = a * b * (a - b + 2 * math.sqrt(a * a + a * b + b * b)) / (a + b) ** 2
    gamma_residual = abs(gamma_z - gamma1)
    return ZolotarevReport(t, Y, kappa_sq, alpha_residual, sn_residual, gamma_residual)


# ---------------------------------------------------------------------------
# Akhiezer least-deviation regimes
# ---------------------------------------------------------------------------

_AKHIEZER_GAMMAS = {
    "t2": lambda a, b: Fraction(a) * b / (Fraction(b) - a),
    "t3": lambda a, b: Fraction(a) * b / (Fraction(b) - a),
    "t4": lambda a, b: -Fraction(a) * b / (Fraction(a) + b),
    "t5": lambda a, b: Fraction(a) * b / (Fraction(a) + b),
}


def akhiezer_p4(E: BoundaryEllipse, case: str) -> tuple[float, ...]:
    """Degree-4 least-deviation polynomial ``T2(w(s))`` for one regime.

    ``case`` selects the regime: ``t2`` (hyperbola caustic, ``b > a``),
    ``t3`` (hyperbola, ``a > b``), ``t4``/``t5`` (ellipse caustics
    ``-ab/(a+b)`` and ``ab/(a+b)``).  The result is checked to be exactly
    proportional to the Pell ``p_hat`` of the corresponding 4-periodic
    caustic (:class:`CertificateInvalid` if the coefficient ratio is not
    constant to ``1e-9`` relative).
    """
    a, b = float(E.a), float(E.b)
    if case == "t2":
        if not b > a:
            raise DomainError("regime t2 requires b > a")
        w = [-1.0, 2 * (a - b), 2 * a * b]
    elif case == "t3":
        if not a > b:
            raise DomainError("regime t3 requires a > b")
        w = [-1.0, 2 * (a - b), 2 * a * b]
    elif case == "t4":
        w = [-1.0, 2 * a * a / (a + b), 2 * a * a * b / (a + b)]
    elif case == "t5":
        w = [-1.0, -2 * b * b / (a + b), 2 * a * b * b / (a + b)]
    else:
        raise DomainError(f"unknown Akhiezer regime {case!r}")
    p4 = polys.padd(polys.pscale(polys.pmul(w, w), 2.0), [-1.0])
    if polys.is_exact(E.a, E.b):
        gamma = _AKHIEZER_GAMMAS[case](E.a, E.b)
    else:
        gamma = float(_AKHIEZER_GAMMAS[case](Fraction(a), Fraction(b)))
    cert = pell_lift(pell_construct(E, gamma, 4))
    ph = [float(c) for c in cert.p_hat]
    k_star = max(range(len(ph)), key=lambda i: abs(ph[i]))
    r = p4[k_star] / ph[k_star]
    defect = max(abs(c - r * p) for c, p in zip(p4, ph))
    if defect > 1e-9 * max(1.0, max(abs(c) for c in p4)):
        raise CertificateInvalid(
            f"Akhiezer regime {case}: T2(w) is not proportional to the Pell p_hat "
            f"(defect {defect:.3e})"
        )
    return tuple(p4)


# ---------------------------------------------------------------------------
# light-like trajectories (Chebyshev case)
# ---------------------------------------------------------------------------


def lightlike_periodic(E: BoundaryEllipse, max_n: int) -> tuple[int, int] | None:
    """Smallest light-like period ``(n, k)`` with ``n <= max_n``, if any.

    The light-like trajectories are the caustic at ``u = 1/gamma = 0``, so
    this is the query of the level-set rule of
    :func:`~pellipse.caustics._level_roots` there.  The level set
    ``rho = j/n`` passes through ``u = 0`` when ``n rho(inf) = j``, where
    ``rho(inf) = (2/pi) atan sqrt(a/b)`` is :func:`rotation_ratio` at
    ``gamma = inf``, and the rule admits it as periodic when ``j`` and
    ``n - j`` are both even: ``n`` even and ``j = n - 2k``.  Then
    ``a/b = cot(k pi / n)**2``.  ``|n (1 - rho(inf))/2 - k|`` is compared
    with ``n LIGHTLIKE / pi``, which is ``LIGHTLIKE`` on the angle
    ``k pi / n``.  ``n`` ascends, so the first match is the least period.
    As :func:`rotation_ratio` does, it raises ``DomainError`` where
    ``a/b`` leaves the float range.
    """
    half = (1 - rotation_ratio(E.a, E.b, math.inf)) / 2
    for n in range(4, max_n + 1, 2):
        k = round(n * half)
        if 0 < k < n / 2 and abs(n * half - k) <= n * LIGHTLIKE / math.pi:
            return n, k
    return None


def lightlike_pell_check(E: BoundaryEllipse, m: int):
    """Chebyshev Pell data for the light-like period ``n = 2m``.

    Computes ``p_hat = T_m(h)`` with
    ``h(s) = (2 a b s + a - b) / (a + b)``, divides ``p_hat**2 - 1`` by the
    quadratic ``(s - 1/a)(s + 1/b)`` (:class:`CertificateInvalid` if the
    division leaves a remainder) and extracts the polynomial square root
    ``q_hat``.  Returns ``(residual, q_hat(0))``: the trajectory closes
    geometrically iff ``q_hat(0) = 0``.  Exact for rational ``(a, b)``.
    """
    if m < 1:
        raise DomainError(f"lightlike_pell_check requires m >= 1, got {m}")
    exact = polys.is_exact(E.a, E.b)
    a, b = (Fraction(E.a), Fraction(E.b)) if exact else (float(E.a), float(E.b))
    one = a / a
    h = [(a - b) / (a + b), 2 * a * b / (a + b)]
    ph = polys.pcompose([one * c for c in chebyshev(m)], h)
    f = _factors(a, b)
    d2 = polys.pmul(f["A"], f["B"])
    ph2 = polys.pmul(ph, ph)
    num = polys.psub(ph2, [one])
    quot, rem = polys.pdivmod(num, d2)
    scale = max(abs(float(c)) for c in num)
    rem_max = max(abs(float(c)) for c in rem) if rem else 0.0
    tol = LIGHTLIKE * max(1.0, scale)
    if rem_max > (0 if exact else tol):
        raise CertificateInvalid(
            f"p_hat**2 - 1 is not divisible by (s - 1/a)(s + 1/b): remainder {rem_max:.3e}"
        )
    qh = polys.poly_sqrt(quot)
    residual = _pell_defect([one], ph2, d2, polys.pmul(qh, qh), 1)
    if float(residual) > (0 if exact else tol):
        raise CertificateInvalid(
            f"light-like Pell identity residual {float(residual):.3e} exceeds tolerance"
        )
    return (residual, qh[0] if exact else float(qh[0]))
