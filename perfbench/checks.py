"""Output checks for every benchmark job.

A job fails when it exits with an unexpected code, prints something that
is not JSON, breaks an invariant of its command, or disagrees with the
reference recorded from the program when the pools were frozen.  The
reference keeps only what that program got right (exit code 0; for
``solve`` only the caustics it validated), so a later fix of a known
defect, such as unvalidated caustics at small scales, is never scored as
a failure.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

#: Relative tolerance on every compared float.  Wide enough for a change
#: of root-finding method (the float scan is good to about 1e-13), narrow
#: enough to catch a different root.
RTOL = 1e-9

#: Certificates must satisfy the Pell identity to this residual, the
#: program's own acceptance threshold.
RESIDUAL_TOL = 1e-8

#: Simulated vertices must lie on the boundary to this relative residual.
BOUNDARY_TOL = 1e-6


def _option(argv: list[str], name: str) -> str:
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    raise KeyError(name)


def _close(x: float, ref: float, rtol: float = RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def reference(argv: list[str], rc: int, doc: dict) -> dict:
    """The part of one job's output that later versions must reproduce."""
    if rc != 0:
        return {"rc": rc}
    cmd = argv[0]
    if cmd == "solve":
        keep = ("gamma", "n1", "n2", "conic", "case", "sigma", "gamma_exact")
        return {
            "rc": 0,
            "caustics": [[c[k] for k in keep] for c in doc["caustics"] if c["validated"]],
        }
    if cmd == "certify":
        return {
            "rc": 0,
            "gamma": doc["gamma"],
            "partition": doc["partition"],
            "tau": [doc["tau1"], doc["tau2"]],
            "kln_ratio": doc["kln_ratio"],
        }
    if cmd == "simulate":
        return {
            "rc": 0,
            "gamma": doc["gamma"],
            "closure": doc["closure"],
            "last": doc["vertices"][-1],
            "arcs": dict(Counter(doc["arc_classes"])),
        }
    if cmd == "checks":
        return {"rc": 0, "entries": len(doc.get("entries", []))}
    raise ValueError(f"unknown command {cmd!r}")


def _check_solve(argv, doc, ref, stats) -> list[str]:
    n = int(_option(argv, "--n"))
    kind = "elliptic" if "--elliptic" in argv else "periodic"
    bad = []
    if doc.get("command") != "solve" or doc.get("n") != n or doc.get("kind") != kind:
        bad.append("header does not match the job")
    caustics = doc["caustics"]
    gammas = [c["gamma"] for c in caustics]
    if gammas != sorted(gammas):
        bad.append("gammas not sorted")
    for c in caustics:
        if c["n"] != n or c["kind"] != kind:
            bad.append(f"caustic {c['gamma']!r} has the wrong period or kind")
        if c["validated"] and (c["n1"] is None or c["n2"] is None or c["n1"] + c["n2"] != n):
            bad.append(f"validated caustic {c['gamma']!r} has n1 + n2 != n")
    stats["caustics"] += len(caustics)
    stats["validated"] += sum(1 for c in caustics if c["validated"])
    for gamma, n1, n2, conic, case, sigma, exact in ref.get("caustics", []):
        match = [c for c in caustics if _close(c["gamma"], gamma)]
        if not match:
            bad.append(f"reference caustic {gamma!r} missing")
            continue
        c = match[0]
        if not c["validated"] or (c["n1"], c["n2"], c["conic"], c["case"], c["sigma"]) != (
            n1, n2, conic, case, sigma,
        ):
            bad.append(f"caustic {gamma!r} differs from the reference")
        if exact is not None and c["gamma_exact"] != exact:
            bad.append(f"caustic {gamma!r} lost its exact value {exact}")
    return bad


def _check_certify(argv, doc, ref) -> list[str]:
    n = int(_option(argv, "--n"))
    bad = []
    if doc.get("command") != "certify" or doc.get("n") != n:
        bad.append("header does not match the job")
    if not abs(float(doc["residual"])) <= RESIDUAL_TOL:
        bad.append(f"residual {doc['residual']!r} above {RESIDUAL_TOL}")
    if doc["partition"][0] != n:
        bad.append("partition[0] != n")
    if "gamma" in ref:
        if not _close(doc["gamma"], ref["gamma"]):
            bad.append("gamma differs from the reference")
        if doc["partition"] != ref["partition"] or [doc["tau1"], doc["tau2"]] != ref["tau"]:
            bad.append("partition or band counts differ from the reference")
        if not _close(doc["kln_ratio"], ref["kln_ratio"], 1e-6):
            bad.append("rotation-number ratio differs from the reference")
    return bad


def _check_simulate(argv, doc, ref, svg_path) -> list[str]:
    steps = int(_option(argv, "--steps"))
    a, b = Fraction(_option(argv, "--a")), Fraction(_option(argv, "--b"))
    bad = []
    if doc.get("command") != "simulate":
        bad.append("header does not match the job")
    closure = doc["closure"]
    if closure is not None and (
        closure["tag"] not in ("Periodic", "EllipticPeriodic") or not 1 <= closure["n"] <= steps
    ):
        bad.append(f"bad closure record {closure!r}")
    verts = doc["vertices"]
    if len(verts) != steps + 1 or len(doc["arc_classes"]) != steps + 1:
        bad.append("trajectory length differs from --steps")
    fa, fb = float(a), float(b)
    if any(abs(x * x / fa + y * y / fb - 1) > BOUNDARY_TOL for x, y in verts):
        bad.append("a vertex is off the boundary")
    if svg_path is not None:
        try:
            with open(svg_path, encoding="utf-8") as fh:
                head = fh.read(256)
        except OSError:
            head = ""
        if doc.get("svg") != svg_path or "<svg" not in head:
            bad.append("no SVG figure written")
    if "gamma" in ref:
        g, rg = doc["gamma"], ref["gamma"]
        same_gamma = _close(g, rg) if isinstance(rg, float) else g == rg
        scale = max(fa, fb) ** 0.5
        last_ok = all(abs(u - v) <= 1e-6 * scale for u, v in zip(verts[-1], ref["last"]))
        if not same_gamma or closure != ref["closure"]:
            bad.append("caustic or closure differs from the reference")
        if not last_ok or dict(Counter(doc["arc_classes"])) != ref["arcs"]:
            bad.append("trajectory differs from the reference")
    return bad


def _check_checks(argv, doc, ref) -> list[str]:
    bad = []
    if doc.get("suite") != _option(argv, "--suite") or doc.get("passed") is not True:
        bad.append("suite did not pass")
    if "entries" in ref and len(doc.get("entries", [])) != ref["entries"]:
        bad.append("suite entry count differs from the reference")
    return bad


def check(argv: list[str], rc: int, out: str, ref: dict, stats: Counter,
          svg_path: str | None = None) -> list[str]:
    """Problems with one job's result; an empty list means the job passed.

    ``stats`` accumulates the caustic counts behind ``validated_ratio`` and
    the jobs that exited with the same error code as the reference run.
    """
    if rc not in (0, ref["rc"]):
        return [f"exit code {rc}, expected 0 or {ref['rc']}"]
    try:
        doc = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    if rc != 0:
        # the documented failure exits (2 domain, 3 simulation, 4/5
        # certificate) print an error record
        if not (isinstance(doc, dict) and "error" in doc):
            return ["no error record"]
        stats["error_exits"] += 1
        return []
    cmd = argv[0]
    try:
        if cmd == "solve":
            return _check_solve(argv, doc, ref, stats)
        if cmd == "certify":
            return _check_certify(argv, doc, ref)
        if cmd == "simulate":
            return _check_simulate(argv, doc, ref, svg_path)
        return _check_checks(argv, doc, ref)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
