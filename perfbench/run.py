"""Benchmark of the ``pellipse`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve-table --seed 1 --seconds 20 --trace 0

One client drives ``pellipse.cli.main(argv)`` in this process and thread,
in a closed loop: each job starts when the previous one has finished and
its output has been checked.  Jobs come from the frozen pools under
``perfbench/pools``, which ``make_pools.py`` generated from the pool's own
seed.  A run is made of whole rounds, one job from every stratum, so
every run has the same job mix.  A run holds ``--seconds`` over
``ROUND_SECONDS`` rounds: it measures about ``--seconds`` on the reference
host (see below).  Rounds are taken in pool order, so every run of a
workload runs the same jobs, however fast the host is, and ``--seed``
shuffles the jobs within each round.  No job runs twice in one run.
``--pool holdout`` runs the inputs of the held-out pool seed instead.

Times are normalised to the host's speed.  A shared 2-vCPU x86-64
virtual machine was measured changing speed by up to half within a
second, so after every job the run times a fixed pure-Python loop
(:func:`calibrate`), and each job's time is scaled by
``CALIBRATION_REF_S`` over the median of the loop times taken around it:
every time is reported in milliseconds (or seconds) of a host on which
that loop takes ``CALIBRATION_REF_S``.  The raw wall-clock figures are
printed as well and kept in ``--report``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the program's functions (see ``tracing.py``), runs
every other round traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workloads, and why each exists:

* ``solve-table`` -- ``solve --n 3..8`` and ``solve --elliptic --n 2..5``
  on integer, fraction, non-dyadic decimal and 10**k-scaled (a, b).  Exact
  root isolation and refinement in ``polys`` does most of the work; the
  decimals make the same code ten times slower and the scales make
  validation fail.  The decimal ``--n 7`` solve alone costs as much as a
  round of all the other strata, so it runs once per run.
* ``solve-scan`` -- ``solve --n 9..12``, the float Hankel-determinant
  scan: series and determinants in ``cayley`` and ``polys.det``.
* ``certify`` -- Pell certificates for exact rational caustics, for
  4-digit captions (the snap path, n <= 8) and for full-precision floats
  (Newton polish, n = 9..12), plus the ``discriminants``, ``zolotarev3``
  and ``lightlike`` check suites once per run.
* ``simulate`` -- 2000-step trajectories on ellipse (gamma > 0, < 0),
  hyperbola and 4-periodic caustics, one job in six writing an SVG.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

WORKLOADS = ("solve-table", "solve-scan", "certify", "simulate")

#: Fresh interpreters timed for ``setup_s``, spread over the run; the
#: median is reported.
SETUP_PROBES = 11

#: Jobs that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: Seconds the calibration loop takes on the reference host.
CALIBRATION_REF_S = 0.002

#: Seconds one round of each workload takes on the reference host,
#: measured at the seed commit (jobs per round over ``jobs_per_s`` in
#: ``baseline/end_to_end.json``).
ROUND_SECONDS = {"solve-table": 4.0, "solve-scan": 4.4, "certify": 0.95, "simulate": 0.385}

#: Seconds around a job whose calibration samples set its speed factor;
#: the host's speed changes within a second.
CALIBRATION_WINDOW_S = 0.25

_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pellipse.cli as cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t0\n"
    "assert cli.__file__.startswith(sys.argv[1])\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import calibrate\n"
    "print(t, sorted(calibrate() for _ in range(5))[2])\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no pool)."""


def load_cli():
    """Import ``pellipse.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "pellipse" / "cli.py").is_file():
        raise BenchError(f"no pellipse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from pellipse import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported pellipse from {cli.__file__}, not from {SRC}")
    return cli


def load_pool(workload: str, pool: str) -> dict:
    """The frozen jobs of one workload, grouped by stratum (see ``make_pools.py``)."""
    path = HERE / "pools" / pool / f"{workload}.jsonl"
    if not path.is_file():
        raise BenchError(f"missing job pool {path}")
    with open(path, encoding="utf-8") as fh:
        doc = json.loads(fh.readline())
        strata: dict = {}
        doc["once"] = []
        for line in fh:
            job = json.loads(line)
            if job.pop("once", False):
                doc["once"].append(job)
            else:
                strata.setdefault(job.pop("stratum"), []).append(job)
    doc["strata"] = [{"name": name, "jobs": jobs} for name, jobs in strata.items()]
    return doc


def setup_probe() -> tuple[float, float]:
    """Seconds for a fresh interpreter to import the CLI and build its parser.

    Returns the raw and the scaled seconds.  The interpreter times the
    calibration loop itself, once it has imported the CLI: the set-up runs
    in another process, which may run on another, differently loaded, CPU
    than the jobs.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds, loop = map(float, proc.stdout.split())
    return seconds, seconds * CALIBRATION_REF_S / loop


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed.

    Rational and float arithmetic and dictionary updates, like the
    program's own inner loops; none of it calls the program.
    """
    t0 = time.perf_counter()
    x, s, d = Fraction(1, 3), 0.0, {}
    for i in range(1, 300):
        x = (x * 7 + Fraction(1, i)) / 3
        s += (i * 0.5) ** 0.5
        d[i % 17] = d.get(i % 17, 0) + i
    return time.perf_counter() - t0


def run_job(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI job in-process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback: the job fails, the run goes on
        rc = -1
        out = io.StringIO(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - t0


class Run:
    """One closed-loop run of a workload."""

    def __init__(self, cli, pool: dict, seed: int, tracer: Tracer | None, svg_dir: str,
                 probes: int):
        self.cli, self.pool, self.tracer, self.svg_dir = cli, pool, tracer, svg_dir
        self.rng = random.Random(f"{pool['workload']}:{seed}")
        self.n_probes = probes
        self.jobs: list[tuple[str, bool, float, float]] = []  # stratum, traced, job s, iteration s
        self.job_t: list[tuple[float, float]] = []  # start and end of each job
        self.cal: list[float] = []  # calibration loop seconds after each job
        self.cal_t: list[float] = []  # when each calibration sample started
        self.probes: list[tuple[float, float]] = []  # set-up seconds, raw and scaled
        self.spans: list[tuple[int, dict]] = []  # traced job, self seconds by span
        self.failures: list[tuple[list[str], list[str]]] = []
        self.stats: Counter = Counter()
        self.rounds = 0
        self.exhausted = False
        self.wall = 0.0

    def _job(self, stratum: str, job: dict, traced: bool) -> None:
        t0 = time.perf_counter()
        argv = list(job["argv"])
        svg = None
        if job.get("svg"):
            svg = os.path.join(self.svg_dir, f"{len(self.jobs)}.svg")
            argv += ["--svg", svg]
        rc, out, seconds = run_job(self.cli, argv)
        problems = checks.check(argv, rc, out, job["ref"], self.stats, svg)
        if svg is not None and os.path.exists(svg):
            os.remove(svg)
        if problems:
            self.failures.append((argv, problems))
        t1 = time.perf_counter()
        self.jobs.append((stratum, traced, seconds, t1 - t0))
        self.job_t.append((t0, t1))
        if traced:
            self.spans.append((len(self.jobs) - 1, self.tracer.take()))
        self.cal_t.append(time.perf_counter())
        self.cal.append(calibrate())

    def _probe(self, total: int) -> None:
        """Run the set-up probes that are due, spread evenly over the run's jobs."""
        while len(self.probes) < self.n_probes and len(self.jobs) >= len(self.probes) * total / self.n_probes:
            self.probes.append(setup_probe())

    def go(self, rounds: int) -> None:
        strata = self.pool["strata"]
        size = min(len(s["jobs"]) for s in strata)
        self.exhausted = rounds > size
        rounds = min(rounds, size)
        total = rounds * len(strata) + len(self.pool["once"])
        start = time.perf_counter()
        probing = 0.0
        for r in range(rounds):
            batch = [(s["name"], s["jobs"][r]) for s in strata]
            if r == 0:
                batch += [("once:" + " ".join(j["argv"]), j) for j in self.pool["once"]]
            self.rng.shuffle(batch)
            traced = self.tracer is not None and r % 2 == 0
            if traced:
                self.tracer.install()
            try:
                for stratum, job in batch:
                    t = time.perf_counter()
                    self._probe(total)
                    probing += time.perf_counter() - t
                    self._job(stratum, job, traced)
            finally:
                if traced:
                    self.tracer.remove()
            self.rounds += 1
        self.wall = time.perf_counter() - start - probing
        self._probe(0)  # whatever is left

    # -- normalised figures ------------------------------------------------

    def factors(self) -> list[float]:
        """Per job: reference over local calibration time (host speed factor).

        The local time is the median of the samples taken within
        ``CALIBRATION_WINDOW_S`` of the job, and always of the ones just
        before and just after it.
        """
        out = []
        for i, (t0, t1) in enumerate(self.job_t):
            lo = min(bisect.bisect_left(self.cal_t, t0 - CALIBRATION_WINDOW_S), max(i - 1, 0))
            hi = max(bisect.bisect_right(self.cal_t, t1 + CALIBRATION_WINDOW_S), i + 1)
            out.append(CALIBRATION_REF_S / statistics.median(self.cal[lo:hi]))
        return out

    def overhead(self, job_s: list[float]) -> float:
        """Traced over untraced job time, summed over strata seen both ways."""
        seen: dict = {True: defaultdict(list), False: defaultdict(list)}
        for (stratum, traced, _, _), t in zip(self.jobs, job_s):
            if not stratum.startswith("once:"):
                seen[traced][stratum].append(t)
        common = [s for s in seen[True] if s in seen[False]]
        if not common:
            return 0.0
        t = sum(statistics.fmean(seen[True][s]) for s in common)
        u = sum(statistics.fmean(seen[False][s]) for s in common)
        return t / u


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(job_s: list[float], iter_s: list[float], setup_s: float) -> dict:
    value, _ = tail(job_s)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_ms": (statistics.median(job_s) * 1000, "ms"),
        "job_tail_ms": (value * 1000, "ms"),
        "jobs_per_s": (len(job_s) / sum(iter_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--pool", choices=("dev", "holdout"), default="dev",
        help="job pool: 'holdout' is kept for re-checking a claimed gain",
    )
    ap.add_argument("--report", default=None, help="also write every figure of the run here (JSON)")
    args = ap.parse_args(argv)
    os.environ.pop("PELLIPSE_EPSILON", None)  # the program's defaults only

    tracer = Tracer() if args.trace else None
    try:
        cli = load_cli()
        pool = load_pool(args.workload, args.pool)
        if tracer is None:
            setup_probe()  # writes the bytecode caches; not counted
        # the pool and the imported modules stay alive for the whole run:
        # keep them out of the collector's generations, so that its pauses
        # are the program's own
        gc.collect()
        gc.freeze()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as svg_dir:
            run = Run(cli, pool, args.seed, tracer, svg_dir, 0 if tracer else SETUP_PROBES)
            min_rounds = 2 if tracer else 1  # traced and untraced
            run.go(max(min_rounds, round(args.seconds / ROUND_SECONDS[args.workload])))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    jobs = len(run.jobs)
    failed = len(run.failures)
    for argv_, problems in run.failures[:10]:
        print(f"FAILED {' '.join(argv_)}: {'; '.join(problems)}", file=sys.stderr)
    f = run.factors()
    job_s = [j[2] * fi for j, fi in zip(run.jobs, f)]
    iter_s = [j[3] * fi for j, fi in zip(run.jobs, f)]
    report = {
        "workload": args.workload, "pool": args.pool, "seed": args.seed, "trace": args.trace,
        "rounds": run.rounds, "jobs": jobs, "wall_s": run.wall, "pool_exhausted": run.exhausted,
        "speed_factor": statistics.median(f),
        "fail_ratio": failed / jobs,
        "error_exits": run.stats["error_exits"],
        "validated_ratio": run.stats["validated"] / run.stats["caustics"] if run.stats["caustics"] else None,
    }
    by_stratum = defaultdict(list)
    for (stratum, traced, _, _), t in zip(run.jobs, job_s):
        if traced == bool(tracer):
            by_stratum[stratum].append(t)
    report["stratum_p50_ms"] = {s: statistics.median(t) * 1000 for s, t in by_stratum.items()}
    if tracer is None:
        report["tail_percentile"] = tail(job_s)[1]
        metrics = end_to_end(job_s, iter_s, statistics.median(s for _, s in run.probes))
        raw = end_to_end([j[2] for j in run.jobs], [j[3] for j in run.jobs],
                         statistics.median(s for s, _ in run.probes))
        report["raw"] = {name: value for name, (value, _) in raw.items()}
    else:
        traced = [i for i, j in enumerate(run.jobs) if j[1]]
        self_s: defaultdict = defaultdict(float)
        for i, spans in run.spans:
            for span, s in spans.items():
                self_s[span] += s * f[i]
        report["traced_jobs"] = len(traced)
        values = tracer.metrics(len(traced), sum(job_s[i] for i in traced), self_s,
                                run.overhead(job_s))
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {name: (value, units[name]) for name, value in values.items()}
    report["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    print(f"workload {args.workload}  pool {args.pool}  seed {args.seed}  rounds {run.rounds}"
          f"  jobs {jobs}  wall {run.wall:.2f} s  (one closed-loop client, in-process)")
    if run.exhausted:
        print("note: the pool holds fewer rounds than --seconds asks for")
    print(f"  fail_ratio       {failed / jobs:.4f}  ({failed} of {jobs} jobs; "
          f"{report['error_exits']} more exited with the reference run's error code)")
    if report["validated_ratio"] is not None:
        print(f"  validated_ratio  {report['validated_ratio']:.4f}  "
              f"({run.stats['validated']} of {run.stats['caustics']} caustics)")
    print(f"  times are scaled to the reference host: median speed factor {report['speed_factor']:.3f}")
    if tracer is None:
        print(f"  job_tail_ms is p{report['tail_percentile']:.1f} of {jobs} jobs;"
              f" setup_s is the median of {len(run.probes)} fresh interpreters")
        for name, value in report["raw"].items():
            print(f"  raw {name:40s} {value:14.6g}")
    else:
        print(f"  {report['traced_jobs']} jobs traced; values are per traced job")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    result = {"correct": failed == 0, "attempted": jobs, "failed": failed, "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
