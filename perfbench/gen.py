"""Seeded input generator for the benchmark's job pools.

Everything here is plain Python and imports nothing from ``pellipse``, so
the inputs never depend on the code under test.  Each workload is a list
of strata; a stratum is one kind of job (a period, an input kind, a conic
class), and every round of a run takes one job from each stratum, so the
job mix of a run is fixed and only the concrete inputs vary with the seed.

Only the ``certify`` captions of irrational caustics need values this
module cannot compute; ``make_pools.py`` takes them from the program's own
``solve`` output when it freezes the pools.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

#: Pool generator seeds.  ``dev`` is the pool every run uses by default;
#: ``holdout`` is kept aside so that a claimed gain can be re-checked on
#: inputs nobody tuned against.
POOL_SEEDS = {"dev": 1, "holdout": 2}

#: (a, b) input kinds of the solve workloads: the scalar field and the
#: magnitude are the two input properties that change the cost and the
#: validation outcome of the same code.
INPUT_KINDS = ("int", "frac", "dec", "scaled")


def _pair_ints(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(2, 12), rng.randint(2, 12)
        if a != b:
            return a, b


def _frac_text(rng: random.Random) -> str:
    while True:
        q = rng.randint(2, 9)
        x = Fraction(rng.randint(q + 1, 12 * q), q)
        if x.denominator > 1:
            return f"{x.numerator}/{x.denominator}"


def _dec_text(rng: random.Random) -> str:
    # tenths digit 1-4 or 6-9: the value is not a dyadic rational, so the
    # parsed float carries a 50-bit denominator into the exact pipeline
    return f"{rng.randint(1, 12)}.{rng.choice('12346789')}"


def ab_texts(kind: str, rng: random.Random) -> tuple[str, str]:
    """Command-line texts for (a, b) of one input kind."""
    while True:
        if kind == "int":
            a, b = _pair_ints(rng)
            ta, tb = str(a), str(b)
        elif kind == "frac":
            ta, tb = _frac_text(rng), _frac_text(rng)
        elif kind == "dec":
            ta, tb = _dec_text(rng), _dec_text(rng)
        elif kind == "scaled":
            a, b = _pair_ints(rng)
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            if k > 0:
                ta, tb = str(a * 10**k), str(b * 10**k)
            else:
                ta, tb = f"{a}/{10**-k}", f"{b}/{10**-k}"
        else:
            raise ValueError(f"unknown input kind {kind!r}")
        if Fraction(ta) != Fraction(tb):
            return ta, tb


def _distinct(make, count: int) -> list:
    """``count`` distinct results of ``make()`` (a job never repeats)."""
    out, seen = [], set()
    while len(out) < count:
        job = make()
        key = repr(job)
        if key not in seen:
            seen.add(key)
            out.append(job)
    return out


def solve_strata(periods, elliptic: bool, rounds: int, rng: random.Random) -> list[dict]:
    strata = []
    for n in periods:
        for kind in INPUT_KINDS:
            def make(n=n, kind=kind):
                ta, tb = ab_texts(kind, rng)
                argv = ["solve", "--n", str(n), "--a", ta, "--b", tb]
                return argv + ["--elliptic"] if elliptic else argv
            name = f"{'elliptic' if elliptic else 'periodic'}-n{n}-{kind}"
            strata.append({"name": name, "jobs": [{"argv": j} for j in _distinct(make, rounds)]})
    return strata


def solve_table(rounds: int, rng: random.Random) -> list[dict]:
    return solve_strata(range(3, 9), False, rounds, rng) + solve_strata(
        range(2, 6), True, rounds, rng
    )


def solve_scan(rounds: int, rng: random.Random) -> list[dict]:
    return solve_strata(range(9, 13), False, rounds, rng)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _exact_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    kind = rng.choice(("int", "frac"))
    ta, tb = ab_texts(kind, rng)
    return Fraction(ta), Fraction(tb)


def _text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exact_n4(rng: random.Random) -> list[str]:
    """A rational 4-periodic caustic: one of -ab/(a+b), ab/(a+b), -ab/(a-b)."""
    a, b = _exact_pair(rng)
    g = rng.choice((-a * b / (a + b), a * b / (a + b), -a * b / (a - b)))
    return ["certify", "--a", _text(a), "--b", _text(b), f"--gamma={_text(g)}", "--n", "4"]


def exact_n3(rng: random.Random) -> list[str]:
    """A rational 3-periodic caustic.

    The 3-periodic caustics ``ab (a - b +- 2r) / (a + b)**2`` with
    ``r = sqrt(a**2 + a b + b**2)`` are rational when ``r`` is, which the
    Eisenstein-triple parametrisation ``a = m**2 - k**2``,
    ``b = 2 m k + k**2`` guarantees (then ``r = m**2 + m k + k**2``).
    """
    while True:
        m = rng.randint(2, 9)
        k = rng.randint(1, m - 1)
        s = Fraction(1, rng.randint(1, 6))
        a, b = (m * m - k * k) * s, (2 * m * k + k * k) * s
        if a != b and math.gcd(m, k) == 1:
            break
    r = (m * m + m * k + k * k) * s
    g = rng.choice((a * b * (a - b + 2 * r), -a * b * (b - a + 2 * r))) / (a + b) ** 2
    return ["certify", "--a", _text(a), "--b", _text(b), f"--gamma={_text(g)}", "--n", "3"]


def caption(gamma: float) -> str:
    """A 4-significant-digit figure caption of ``gamma``, always a float."""
    return f"{gamma:#.4g}"  # '#' keeps the point: "-21.00", "1235."


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIM_STEPS = 2000
SIM_KINDS = ("ellipse-pos", "ellipse-neg", "hyperbola-x", "hyperbola-y", "closed4")


def _caustic(kind: str, a: float, b: float, rng: random.Random) -> float:
    if kind == "ellipse-pos":
        return a * rng.uniform(0.05, 0.95)
    if kind == "ellipse-neg":
        return -b * rng.uniform(0.05, 0.95)
    if kind == "hyperbola-x":
        return -b - (a + b) * rng.uniform(0.05, 2.0)
    if kind == "hyperbola-y":
        return a + (a + b) * rng.uniform(0.05, 2.0)
    # closed4: a 4-periodic caustic, so the trajectory closes and carries a closure tag
    return rng.choice((-a * b / (a + b), a * b / (a + b), -a * b / (a - b)))


def tangent_start(a: float, b: float, g: float, rng: random.Random):
    """Boundary start ``(x0, y0, dx, dy)`` whose first chord touches ``gamma``.

    The chord lies on a random tangent line ``p x + q y = 1`` of the
    confocal conic ``x**2/(a-g) + y**2/(b+g) = 1``; lines that miss the
    boundary or end near a touch point (light-like tangent) are redrawn.
    """
    A, B = a - g, b + g
    xt = a / math.sqrt(a + b)
    while True:
        if A > 0 and B > 0:
            phi = rng.uniform(0.0, 2 * math.pi)
            p, q = math.cos(phi) / math.sqrt(A), math.sin(phi) / math.sqrt(B)
        elif B < 0:
            u, br = rng.uniform(-2.5, 2.5), rng.choice((1.0, -1.0))
            p, q = br * math.cosh(u) / math.sqrt(A), -math.sinh(u) / math.sqrt(-B)
        else:
            u, br = rng.uniform(-2.5, 2.5), rng.choice((1.0, -1.0))
            p, q = -math.sinh(u) / math.sqrt(-A), br * math.cosh(u) / math.sqrt(B)
        nn = p * p + q * q
        fx, fy = p / nn, q / nn
        qa = q * q / a + p * p / b
        qb = 2 * (fx * q / a - fy * p / b)
        qc = fx * fx / a + fy * fy / b - 1
        disc = qb * qb - 4 * qa * qc
        if disc <= 1e-6 * (qb * qb + abs(4 * qa * qc)):
            continue
        t1 = (-qb - math.sqrt(disc)) / (2 * qa)
        t2 = (-qb + math.sqrt(disc)) / (2 * qa)
        x0, y0 = fx + t1 * q, fy - t1 * p
        x1, y1 = fx + t2 * q, fy - t2 * p
        if min(abs(abs(x0) - xt), abs(abs(x1) - xt)) < 0.05 * (1 + xt):
            continue
        return x0, y0, x1 - x0, y1 - y0


def simulate_strata(rounds: int, rng: random.Random) -> list[dict]:
    """One stratum per caustic kind, plus one of ``--svg`` jobs on any kind."""

    def make(kind: str, svg: bool) -> dict:
        a, b = _pair_ints(rng)
        x0, y0, dx, dy = tangent_start(a, b, _caustic(kind, a, b, rng), rng)
        argv = ["simulate", "--a", str(a), "--b", str(b), f"--x0={x0!r}", f"--y0={y0!r}",
                f"--dx={dx!r}", f"--dy={dy!r}", "--steps", str(SIM_STEPS)]
        return {"argv": argv, "svg": svg}

    strata = [
        {"name": kind, "jobs": _distinct(lambda kind=kind: make(kind, False), rounds)}
        for kind in SIM_KINDS
    ]
    strata.append(
        {"name": "svg", "jobs": _distinct(lambda: make(rng.choice(SIM_KINDS), True), rounds)}
    )
    return strata


#: Suites run once per run of the certify workload (they take no input).
CHECK_SUITES = ("discriminants", "zolotarev3", "lightlike")
