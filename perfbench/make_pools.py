"""Freeze the benchmark's job pools and record their reference outputs.

Usage, from the root of a checkout::

    python3 perfbench/make_pools.py --pool dev --workload solve-table

Writes ``perfbench/pools/<pool>/<workload>.jsonl``: the jobs of every
stratum (from ``gen.py`` and the pool's seed) and, for each job, the
reference that ``checks.py`` compares later runs against, taken from the
program in this checkout.  The pools are made once and committed; making
them again at a later commit would change the certify captions and the
references, so later runs use the committed files.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import subprocess
import sys

import gen
from checks import reference
from run import HERE, ROOT, WORKLOADS, load_cli, run_job

#: Rounds (jobs per stratum) in each pool: several times what one
#: run of the program at this commit takes.
ROUNDS = {"solve-table": 12, "solve-scan": 24, "certify": 100, "simulate": 120}

HEAVY_STRATUM = "periodic-n7-dec"


def _record(cli, job: dict) -> dict:
    rc, out, _ = run_job(cli, job["argv"] + (["--svg", "/dev/null"] if job.get("svg") else []))
    ref = reference(job["argv"], rc, json.loads(out) if rc == 0 else {})
    if rc != 0:
        print(f"  exit {rc}: {' '.join(job['argv'])}", file=sys.stderr)
    return {**job, "ref": ref}


def _certify_strata(cli, rounds: int, rng: random.Random) -> list[dict]:
    """Exact caustics (n = 3, 4), 4-digit captions of validated caustics
    (the snap path, n = 3..8, integer and fraction axes as separate strata)
    and full floats (the Newton-polish path, n = 9..12)."""
    strata = [
        {"name": "exact-n3", "jobs": [{"argv": gen.exact_n3(rng)} for _ in range(rounds)]},
        {"name": "exact-n4", "jobs": [{"argv": gen.exact_n4(rng)} for _ in range(rounds)]},
    ]
    groups = [("snap", n, kind) for kind in ("int", "frac") for n in range(3, 9)]
    groups += [("polish", n, None) for n in range(9, 13)]
    for path, n, kind in groups:
        jobs, seen = [], set()
        while len(jobs) < rounds:
            ta, tb = gen.ab_texts(kind or rng.choice(("int", "frac")), rng)
            rc, out, _ = run_job(cli, ["solve", "--n", str(n), "--a", ta, "--b", tb])
            valid = [c["gamma"] for c in json.loads(out)["caustics"] if c["validated"]] if rc == 0 else []
            if not valid:
                continue
            g = rng.choice(valid)
            text = gen.caption(g) if path == "snap" else repr(g)
            argv = ["certify", "--a", ta, "--b", tb, f"--gamma={text}", "--n", str(n)]
            if repr(argv) not in seen:
                seen.add(repr(argv))
                jobs.append({"argv": argv})
        strata.append({"name": f"{path}-n{n}" + (f"-{kind}" if kind else ""), "jobs": jobs})
    return strata


def make(cli, workload: str, pool: str) -> dict:
    rounds = ROUNDS[workload]
    rng = random.Random(f"{workload}:{gen.POOL_SEEDS[pool]}")
    once: list = []
    if workload == "solve-table":
        strata = gen.solve_table(rounds, rng)
        # one decimal n = 7 solve costs as much as a round of all the other
        # strata together: run it once per run, not once per round
        heavy = next(s for s in strata if s["name"] == HEAVY_STRATUM)
        strata.remove(heavy)
        once = heavy["jobs"][:1]
    elif workload == "solve-scan":
        strata = gen.solve_scan(rounds, rng)
    elif workload == "certify":
        strata = _certify_strata(cli, rounds, rng)
        once = [{"argv": ["checks", "--suite", s]} for s in gen.CHECK_SUITES]
    else:
        strata = gen.simulate_strata(rounds, rng)
    for stratum in strata:
        stratum["jobs"] = [_record(cli, job) for job in stratum["jobs"]]
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "workload": workload,
        "pool": pool,
        "pool_seed": gen.POOL_SEEDS[pool],
        "made_at": {"git_sha": sha, "python": platform.python_version()},
        "strata": strata,
        "once": [_record(cli, job) for job in once],
    }


def write(doc: dict, path) -> None:
    """One header line, then one line per job (``"once": true`` for run-once jobs)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {k: v for k, v in doc.items() if k not in ("strata", "once")}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for stratum in doc["strata"]:
            for job in stratum["jobs"]:
                fh.write(json.dumps({"stratum": stratum["name"], **job}) + "\n")
        for job in doc["once"]:
            fh.write(json.dumps({"once": True, **job}) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pool", choices=sorted(gen.POOL_SEEDS), required=True)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    args = ap.parse_args()
    cli = load_cli()
    doc = make(cli, args.workload, args.pool)
    path = HERE / "pools" / args.pool / f"{args.workload}.jsonl"
    write(doc, path)
    jobs = sum(len(s["jobs"]) for s in doc["strata"]) + len(doc["once"])
    print(f"{path.relative_to(ROOT)}: {len(doc['strata'])} strata, {jobs} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
