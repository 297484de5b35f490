"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --seeds 1-10 [--workload certify ...] [--trace] [--out FILE]

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartiles as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
``--out`` writes all of it, with the Python version, the processor count
and the git revision, as JSON; with ``--trace`` the per-layer metrics are
summarised instead, each with the end-to-end metric it should move.  The
files under ``perfbench/baseline`` were written this way.  ``--against
FILE`` compares each median with the one in an earlier ``--out`` file and
prints, and writes, by how much it got worse, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from tracing import METRICS  # noqa: E402

#: Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {name: moves for name, _, moves in METRICS}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, trace: bool, pool: str) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        report = os.path.join(tmp, "report.json")
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
               "--trace", str(int(trace)), "--pool", pool, "--report", report]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
        with open(report, encoding="utf-8") as fh:
            return json.load(fh)


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    ap.add_argument("--pool", choices=("dev", "holdout"), default="dev")
    ap.add_argument("--out", default=None, help="write the figures here (JSON)")
    ap.add_argument("--against", default=None, help="an earlier --out file to compare medians with")
    args = ap.parse_args()
    before = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    out: dict = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        reports = [one_run(workload, s, args.trace, args.pool) for s in args.seeds]
        row: dict = {"runs": len(reports), "failed_runs": sum(r["fail_ratio"] > 0 for r in reports)}
        for key in ("fail_ratio", "validated_ratio", "error_exits", "jobs", "rounds", "speed_factor"):
            if reports[0].get(key) is not None:
                row[key] = summary([float(r[key]) for r in reports])
        if "raw" in reports[0]:
            row["raw"] = {k: summary([r["raw"][k] for r in reports]) for k in reports[0]["raw"]}
        print(f"{workload}: {len(reports)} runs, jobs per run {row['jobs']['median']:.0f},"
              f" fail_ratio median {row['fail_ratio']['median']:.4f}")
        for m in metrics:
            s = summary([r["metrics"][m["name"]]["value"] for r in reports])
            if m["name"] in MOVES:
                s["moves"] = MOVES[m["name"]]
            row[m["name"]] = s
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound:.2f}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
            print(f"  {m['name']:44s} median {s['median']:12.5g} {m['unit']:9s}"
                  f" spread {s['spread']:.4f}{flag}")
            if before is not None and bound is not None:
                old = before["workloads"][workload][m["name"]]["median"]
                worse = (s["median"] - old) / old * (1 if m["better"] == "lower" else -1)
                s["before"], s["worse_by"] = old, worse
                print(f"  {'':44s} before {old:12.5g} {'':9s} worse by {worse:+.4f}"
                      f"  {'ok' if worse <= bound else 'OVER BOUND'}")
        out[workload] = row
    if args.out:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        doc = {
            "git_sha": sha or None, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "run_seconds": SPEC["run_seconds"], "pool": args.pool, "seeds": args.seeds,
            "trace": args.trace, "workloads": out,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
