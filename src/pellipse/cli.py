"""Command-line interface.

Four subcommands, all emitting deterministic JSON (sorted keys, 2-space
indent) on stdout:

* ``solve``     -- caustic parameters for a period (``--elliptic`` for
                   mirror-closure cases)
* ``simulate``  -- run a trajectory from explicit start data, optionally
                   rendering an SVG figure
* ``certify``   -- construct and verify the polynomial Pell certificate
                   for a caustic
* ``checks``    -- self-contained verification suites

Exit codes: 0 success; 2 invalid arguments or domain errors (usage
errors and an unwritable ``--svg`` path included, each with the
``DomainError`` JSON); 3 simulation failure (the JSON carries the failing
step); 4 no certificate exists; 5 a certificate failed verification; 6 a
checks suite failed.

Scalar options accept integers, fractions (``7/2``) and decimals.  The
axes ``--a`` and ``--b`` are read exactly, decimals as the decimal
fractions they are, which keeps the closure conditions in exact rational
arithmetic; ``--gamma`` and the start data of ``simulate`` written as
decimals are floats.  Trajectories run in floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .caustics import (
    DISCRIMINANT_IDENTITIES,
    _roots,
    _sim_closure,
    discriminant_identity_check,
    elliptic_caustics,
    periodic_caustics,
)
from .config import CLOSURE
from .dynamics import closure_status, first_closure, simulate
from .errors import (
    CausticDrift,
    CertificateInvalid,
    DegenerateChord,
    DomainError,
    NoCertificate,
    ReflectionUndefined,
)
from .extremal import (
    kln_partition,
    lightlike_pell_check,
    lightlike_periodic,
    pell_construct,
    pell_lift,
    zolotarev3_consistency,
)
from .geometry import BoundaryEllipse, MVec2
from .polys import is_exact
from .svgfig import render_trajectory_svg

__all__ = ["main", "build_parser"]


def _parse_scalar(text: str):
    t = text.strip()
    try:
        value = int(t)
    except ValueError:
        if "/" in t:
            try:
                value = Fraction(t)
            except (ValueError, ZeroDivisionError) as exc:
                raise argparse.ArgumentTypeError(f"invalid fraction {text!r}: {exc}") from exc
        else:
            try:
                value = float(t)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _parse_axis(text: str):
    """A squared semi-axis, read exactly: decimal text is the decimal fraction it is.

    ``5.7`` is ``57/10``; integers and fractions parse as by
    :func:`_parse_scalar`.  The float image must be finite and, for a
    nonzero axis, nonzero: trajectories and rotation numbers run on it.
    """
    value = _parse_scalar(text)
    try:
        value = Fraction(text.strip()) if isinstance(value, float) else value
    except ValueError as exc:  # e.g. "1_0.5" before Python 3.11
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from exc
    if value and not float(value):
        raise argparse.ArgumentTypeError(f"{text!r} is 0 as a float")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise :class:`DomainError`."""

    def error(self, message: str):
        raise DomainError(message)


#: Types that ``json`` writes as one token, never as a nested layout.
_SCALARS = {str, int, float, bool, type(None)}


def _indented(value: list | tuple) -> str | None:
    """A top-level list as ``indent=2`` lays it out, at C speed; or None.

    Three shapes qualify, told apart by one scan of the item types:

    * scalars, written by the C encoder with the indented item separator;
      strings that need no escape, such as arc classes, are joined as they
      are;
    * rows ``[x, y]`` of two floats (lists or tuples), such as a
      trajectory's vertices, written by joining ``float.__repr__`` of each
      coordinate, which is what ``json`` writes for a finite float.
      ``float.__repr__`` rejects any other item, and a row of another
      length does not unpack; a non-finite float writes ``nan`` or
      ``inf``, which ``json`` writes otherwise, and a finite one holds no
      ``n``.  These lists are left to ``json`` (None);
    * flat dicts, every value a scalar, such as solve's ``caustics`` and
      ``discarded``, each written by the C encoder with sorted keys and the
      indented item separator; an empty one is ``{}``.
    """
    types = set(map(type, value))
    if types == {str}:
        plain = "".join(value)
        if json.dumps(plain) == f'"{plain}"':
            return '[\n    "' + '",\n    "'.join(value) + '"\n  ]'
    if types <= _SCALARS:
        return "[\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
    if types <= {list, tuple}:
        r = float.__repr__
        try:
            rows = ",\n    ".join([f"[\n      {r(x)},\n      {r(y)}\n    ]" for x, y in value])
        except (TypeError, ValueError):
            return None
        return None if "n" in rows else "[\n    " + rows + "\n  ]"
    if types == {dict} and all(set(map(type, row.values())) <= _SCALARS for row in value):
        rows = [json.dumps(row, sort_keys=True, separators=(",\n      ", ": ")) for row in value]
        rows = [r if r == "{}" else "{\n      " + r[1:-1] + "\n    }" for r in rows]
        return "[\n    " + ",\n    ".join(rows) + "\n  ]"
    return None


def _emit(doc: dict) -> None:
    """Print ``doc`` as ``json.dumps(doc, sort_keys=True, indent=2)`` does.

    With an indent, ``json`` encodes in pure Python, which is slow on a
    trajectory's thousands of vertices and arc classes and on solve's
    rows.  Top-level lists and tuples are written by :func:`_indented`
    instead, where it can, and spliced into the document in place of a
    ``null``: the same text.
    """
    spliced = {
        k: text
        for k, v in doc.items()
        if isinstance(v, (list, tuple)) and v and (text := _indented(v))
    }
    out = json.dumps({**doc, **dict.fromkeys(spliced)}, sort_keys=True, indent=2)
    for key, text in spliced.items():
        out = out.replace(f"\n  {json.dumps(key)}: null", f"\n  {json.dumps(key)}: {text}", 1)
    print(out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    E = BoundaryEllipse(args.a, args.b)
    discarded: list = []
    solver = elliptic_caustics if args.elliptic else periodic_caustics
    results = solver(E, args.n, discarded=discarded)
    _emit(
        {
            "command": "solve",
            "a": float(E.a),
            "b": float(E.b),
            "n": args.n,
            "kind": "elliptic" if args.elliptic else "periodic",
            "caustics": [r.to_jsonable() for r in results],
            "discarded": discarded,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    E = BoundaryEllipse(args.a, args.b)
    P0 = MVec2(args.x0, args.y0)
    d0 = MVec2(args.dx, args.dy)
    try:
        T = simulate(P0, d0, args.steps, E)
    except (DegenerateChord, ReflectionUndefined, CausticDrift) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc), "step": exc.step})
        return 3
    doc = T.to_jsonable(first_closure(T))
    doc["command"] = "simulate"
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_trajectory_svg(T))
        except OSError as exc:
            raise DomainError(f"cannot write SVG file {args.svg!r}: {exc.strerror}") from None
        doc["svg"] = args.svg
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _snap_gamma(E: BoundaryEllipse, gamma, n: int):
    """Snap an inexact gamma to a root of the period-``n`` closure condition.

    Floating-point inputs are typically 4-digit figure captions; the
    construction itself needs the root to full precision, so an input
    within ``1e-3 |root|`` of a landed period-``n`` root, for
    ``3 <= n <= 8``, is replaced by that root (the exact rational one when
    available).  Both bounds are relative, so the snap is the same at
    every scale of ``(a, b, gamma)``.  The roots are tried in ascending
    order and the first within tolerance wins, which need not be the
    nearest one.  They come from
    :func:`~pellipse.caustics._roots`, periodic, screened and landed but
    not simulated, for the window ``|root - gamma| <= 2e-3 |gamma|``,
    which holds every root within tolerance: only the ``k`` whose root may
    lie in it are located, and the roots are landed one at a time up to
    the first within tolerance.  Exact rational inputs, other periods, and
    a ``gamma`` whose window the level sets cannot locate (``rho`` beyond
    the float range at its ends, next to a degenerate value) are passed
    through untouched, for the construction to judge.

    The bound ``n <= 8`` stays because the first-root rule and the
    references of ``certify`` rest on it.  Without the bound, the caption
    ``-6.197332924075168`` of ``--a 22/3 --b 31/5 --n 12`` snaps to the
    hyperbola root ``-6.202672680615123``, the first within tolerance,
    instead of passing on to its reference ``-6.197332924076528`` on
    ``(-b, 0)``; and the nearest-root rule, which would snap it there,
    moves 10 references at ``n <= 8``.
    """
    if is_exact(gamma) or not 3 <= n <= 8:
        return gamma
    width = 2e-3 * abs(gamma)
    # _roots is a generator: locating, which may raise, runs inside the loop
    try:
        for root, exact, _ in _roots(E, n, False, window=(gamma - width, gamma + width)):
            if abs(gamma - root) <= 1e-3 * abs(root):
                return root if exact is None else exact
    except DomainError:
        pass
    return gamma


def cmd_certify(args: argparse.Namespace) -> int:
    E = BoundaryEllipse(args.a, args.b)
    gamma = _snap_gamma(E, args.gamma, args.n)
    try:
        cert = pell_lift(pell_construct(E, gamma, args.n))
        # the solvers' simulated closure cross-checks the proven partition;
        # a disagreement is an error, never resolved in favour of either
        ok, n1, _, last = _sim_closure(E, cert.gamma, args.n)
        if not ok:
            raise CertificateInvalid(
                f"validation trajectory failed to close for gamma={cert.gamma}: {last}"
            )
        if (args.n, n1) != cert.partition:
            raise CertificateInvalid(
                f"simulated partition {[args.n, n1]} disagrees with the certificate's "
                f"partition {list(cert.partition)}"
            )
    except NoCertificate as exc:
        _emit({"error": "NoCertificate", "message": str(exc)})
        return 4
    except CertificateInvalid as exc:
        _emit({"error": "CertificateInvalid", "message": str(exc)})
        return 5
    ratio, _ = kln_partition(E, float(gamma))
    doc = cert.to_jsonable(kln_ratio=ratio)
    doc["command"] = "certify"
    _emit(doc)
    return 0


# ---------------------------------------------------------------------------
# checks suites
# ---------------------------------------------------------------------------

#: Reference periodic trajectories: (a, b, n, gamma, n1, n2).
_TABLE_ROWS = (
    (3, 2, 3, 2.3323, 2, 1),
    (7, 5, 3, -4.589, 1, 2),
    (9, 3, 4, -2.25, 2, 2),
    (2, 4, 4, 4.0 / 3.0, 2, 2),
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

#: Light-like closure pairs (n, k): even n <= 12, 1 <= k < n/2, gcd(k, n/2) = 1.
_LIGHTLIKE_PAIRS = tuple(
    (n, k) for n in range(2, 13, 2) for k in range(1, n // 2) if math.gcd(k, n // 2) == 1
)


def _suite_discriminants() -> tuple[bool, dict]:
    pairs = [
        (3, 2),
        (2, 4),
        (7, 5),
        (Fraction(7, 2), Fraction(5, 3)),
        (Fraction(9, 4), Fraction(11, 3)),
    ]
    entries = []
    ok = True
    for name in sorted(DISCRIMINANT_IDENTITIES):
        for a, b in pairs:
            zero = discriminant_identity_check(name, a, b) == 0
            ok = ok and zero
            entries.append({"identity": name, "a": str(a), "b": str(b), "zero": zero})
    spot = DISCRIMINANT_IDENTITIES["G2"][1](3, 2)
    spot_ok = spot == 10944 and discriminant_identity_check("G2", 3, 2) == 0
    ok = ok and spot_ok
    return ok, {
        "suite": "discriminants",
        "passed": ok,
        "identities": len(DISCRIMINANT_IDENTITIES),
        "pairs_per_identity": len(pairs),
        "spot_discriminant_3_2": int(spot),
        "spot_ok": spot_ok,
        "entries": entries,
    }


def _suite_zolotarev3() -> tuple[bool, dict]:
    pairs = [(3, 2), (5, 3), (6, 4), (2, 5), (9, 2), (7, 5), (4, 9)]
    entries = []
    ok = True
    for a, b in pairs:
        rep = zolotarev3_consistency(BoundaryEllipse(a, b))
        good = rep.max_residual <= 1e-9
        ok = ok and good
        entries.append(
            {"a": a, "b": b, "max_residual": rep.max_residual, "ok": good}
        )
    return ok, {"suite": "zolotarev3", "passed": ok, "entries": entries}


def _suite_lightlike() -> tuple[bool, dict]:
    entries = []
    ok = True
    for n, k in _LIGHTLIKE_PAIRS:
        a = 1.0 / math.tan(k * math.pi / n) ** 2
        E = BoundaryEllipse(a, 1.0)
        detected = lightlike_periodic(E, 12)
        phi = 0.3
        P0 = MVec2(math.sqrt(a) * math.cos(phi), math.sin(phi))
        # (-1,-1) points into the ellipse from a first-quadrant boundary point
        T = simulate(P0, MVec2(-1.0, -1.0), n, E)
        closed = closure_status(T, n, 1e-8).tag == "Periodic"
        # mirror closure at n/2 is expected for light-like polygons; only an
        # earlier full period would contradict minimality
        early = any(
            closure_status(T, m, CLOSURE).tag == "Periodic" for m in range(1, n)
        )
        _, q0 = lightlike_pell_check(E, n // 2)
        good = detected == (n, k) and closed and not early and abs(float(q0)) <= 1e-10
        ok = ok and good
        entries.append(
            {
                "n": n,
                "k": k,
                "detected": list(detected) if detected else None,
                "closed": closed,
                "early_return": early,
                "q_hat_at_zero": float(q0),
                "ok": good,
            }
        )
    none_res = lightlike_periodic(BoundaryEllipse(2, 3), 100)
    none_ok = none_res is None
    ok = ok and none_ok
    return ok, {
        "suite": "lightlike",
        "passed": ok,
        "entries": entries,
        "aspect_2_3_none_up_to_100": none_ok,
    }


def _suite_table() -> tuple[bool, dict]:
    entries = []
    ok = True
    for a, b, n, gamma, n1, n2 in _TABLE_ROWS:
        E = BoundaryEllipse(a, b)
        cands = periodic_caustics(E, n)
        best = min(cands, key=lambda r: abs(r.gamma - gamma), default=None)
        good = (
            best is not None
            and abs(best.gamma - gamma) <= 1e-3
            and best.validated
            and (best.n1, best.n2) == (n1, n2)
        )
        ok = ok and good
        entries.append(
            {
                "a": a,
                "b": b,
                "n": n,
                "gamma": gamma,
                "matched": None if best is None else best.gamma,
                "partition": None if best is None else [best.n1, best.n2],
                "expected": [n1, n2],
                "ok": good,
            }
        )
    return ok, {"suite": "table", "passed": ok, "rows": len(entries), "entries": entries}


_SUITES = {
    "discriminants": _suite_discriminants,
    "zolotarev3": _suite_zolotarev3,
    "lightlike": _suite_lightlike,
    "table": _suite_table,
}


def cmd_checks(args: argparse.Namespace) -> int:
    ok, report = _SUITES[args.suite]()
    _emit(report)
    return 0 if ok else 6


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by :func:`main`."""
    parser = _Parser(
        prog="pellipse",
        description="Periodic billiard trajectories in a Minkowski-plane ellipse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="caustic parameters for a period")
    p_solve.add_argument("--n", type=int, required=True, help="period")
    p_solve.add_argument("--a", type=_parse_axis, required=True, help="squared semi-axis a")
    p_solve.add_argument("--b", type=_parse_axis, required=True, help="squared semi-axis b")
    p_solve.add_argument(
        "--elliptic", action="store_true", help="mirror-closure (elliptic) cases"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory")
    p_sim.add_argument("--a", type=_parse_axis, required=True)
    p_sim.add_argument("--b", type=_parse_axis, required=True)
    p_sim.add_argument("--x0", type=_parse_scalar, required=True, help="start x (on the boundary)")
    p_sim.add_argument("--y0", type=_parse_scalar, required=True, help="start y (on the boundary)")
    p_sim.add_argument("--dx", type=_parse_scalar, required=True, help="direction x")
    p_sim.add_argument("--dy", type=_parse_scalar, required=True, help="direction y")
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--svg", type=str, default=None, help="write an SVG figure here")
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="polynomial Pell certificate for a caustic")
    p_cert.add_argument("--a", type=_parse_axis, required=True)
    p_cert.add_argument("--b", type=_parse_axis, required=True)
    p_cert.add_argument("--gamma", type=_parse_scalar, required=True)
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.set_defaults(func=cmd_certify)

    p_checks = sub.add_parser("checks", help="verification suites")
    p_checks.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_checks.set_defaults(func=cmd_checks)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        _emit({"error": "DomainError", "message": str(exc)})
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
