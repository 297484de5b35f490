"""Compare the CLI output of two ``src`` trees on every distinct benchmark pool command.

Usage, from the root of a checkout::

    python3 tools/pool_diff.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``pellipse``
package, such as the ``src`` of two checkouts.  The commands are the
distinct ``argv`` of ``perfbench/pools/{dev,holdout}/*.jsonl``: solve,
certify, simulate and the checks suites.  Each tree runs them all in one
interpreter of its own, in process through ``pellipse.cli.main``, the
two trees side by side; a simulate job marked ``svg`` writes its figure to
a scratch file, which is compared too.  A command is identical when its
exit code, its standard output and its figure are byte for byte the same.

The report gives, per subcommand, the number of identical commands, and
then the differing ones.  For a solve command it names the top-level JSON
keys that differ (``caustics`` or ``discarded``) and counts the caustics,
matched by ``gamma``, whose ``validated`` flag went false -> true and
true -> false.  The report closes with the totals of both counts over all
differing commands, and with the numbers of commands whose exit code went
from 0 to nonzero and from nonzero to 0, and of those that exit with the
same nonzero code and a changed error record.  The exit code is 0 when
every command is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOLS = ROOT / "perfbench" / "pools"


def pool_commands() -> list[tuple[list[str], bool]]:
    """The distinct ``(argv, svg)`` of all pools, in pool order."""
    seen, out = set(), []
    for pool in ("dev", "holdout"):
        for workload in ("solve-table", "solve-scan", "certify", "simulate"):
            with open(POOLS / pool / f"{workload}.jsonl", encoding="utf-8") as fh:
                next(fh)  # the pool's header
                for line in fh:
                    job = json.loads(line)
                    key = (tuple(job["argv"]), bool(job.get("svg")))
                    if key not in seen:
                        seen.add(key)
                        out.append((job["argv"], key[1]))
    return out


def run_one(cli, argv: list[str], svg: bool) -> tuple[int, str, str | None]:
    """``(exit code, stdout, figure text)`` of one in-process CLI run.

    A figure goes to ``figure.svg`` in the working directory, a path that
    the output of both trees names alike.
    """
    path = "figure.svg"
    argv = argv + ["--svg", path] if svg else argv
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is an outcome to compare, not a crash
        rc, out = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    figure = None
    if svg and os.path.exists(path):
        figure = Path(path).read_text(encoding="utf-8")
        os.remove(path)
    return rc, out.getvalue(), figure


def worker(src: str, full: bool) -> None:
    """Run the JSON list of ``(argv, svg)`` on stdin; one JSON line per command out.

    Each line holds the exit code and a hash of stdout and figure, and with
    ``full`` the stdout itself.
    """
    sys.path.insert(0, src)
    from pellipse import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported pellipse from {cli.__file__}, not from {src}")
    commands = json.load(sys.stdin)
    with tempfile.TemporaryDirectory(prefix="pool-diff-") as scratch:
        os.chdir(scratch)
        for argv, svg in commands:
            rc, out, figure = run_one(cli, argv, svg)
            digest = hashlib.sha256(f"{rc}\0{out}\0{figure}".encode()).hexdigest()
            print(json.dumps({"rc": rc, "hash": digest, "out": out if full else None}), flush=True)


def run_tree(src: str, commands, full: bool = False):
    """Start a worker interpreter on ``src``: ``(process, file of its output lines)``.

    The output goes to a file, so that the workers of both trees run side
    by side however much they print.
    """
    out = tempfile.TemporaryFile("w+", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", src] + (["--full"] if full else []),
        stdin=subprocess.PIPE, stdout=out, text=True, cwd=ROOT,
    )
    proc.stdin.write(json.dumps(commands))
    proc.stdin.close()
    return proc, out


def collect(workers) -> list[list[dict]]:
    results = []
    for proc, out in workers:
        if proc.wait() != 0:
            raise SystemExit(f"a worker failed with exit code {proc.returncode}")
        with out:
            out.seek(0)
            results.append([json.loads(line) for line in out])
    return results


def differing_keys(old: dict, new: dict) -> str:
    """The top-level keys of two JSON outputs that differ, or why they cannot be read."""
    if old["rc"] != new["rc"]:
        return f"exit code {old['rc']} -> {new['rc']}"
    try:
        a, b = json.loads(old["out"]), json.loads(new["out"])
    except ValueError:
        return "output is not JSON"
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return "keys " + ", ".join(keys) if keys else "layout only"


def validation_flips(old: dict, new: dict) -> tuple[int, int]:
    """Caustics, matched by ``gamma``, whose ``validated`` went false -> true and true -> false."""
    try:
        a, b = json.loads(old["out"]), json.loads(new["out"])
    except ValueError:
        return 0, 0
    before = {c["gamma"]: c["validated"] for c in a.get("caustics", [])}
    gained = lost = 0
    for c in b.get("caustics", []):
        was = before.get(c["gamma"])
        gained += was is False and c["validated"] is True
        lost += was is True and c["validated"] is False
    return gained, lost


def exit_flips(pairs) -> tuple[int, int, int]:
    """Of ``(old, new)`` results: exit 0 -> nonzero, nonzero -> 0, and the same nonzero exit."""
    failed = mended = errors = 0
    for a, b in pairs:
        failed += a["rc"] == 0 and b["rc"] != 0
        mended += a["rc"] != 0 and b["rc"] == 0
        errors += a["rc"] != 0 and a["rc"] == b["rc"]
    return failed, mended, errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", help="the src directory of the reference tree")
    ap.add_argument("new", nargs="?", help="the src directory of the changed tree")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.full)
        return 0
    if not (args.old and args.new):
        ap.error("give the two src directories")

    commands = pool_commands()
    args.old, args.new = os.path.abspath(args.old), os.path.abspath(args.new)
    old, new = collect([run_tree(args.old, commands), run_tree(args.new, commands)])
    same, differ = defaultdict(int), defaultdict(list)
    for i, ((cmd, _), a, b) in enumerate(zip(commands, old, new)):
        if a["hash"] == b["hash"]:
            same[cmd[0]] += 1
        else:
            differ[cmd[0]].append(i)

    # rerun the differing commands with their full output, to say what differs
    index = [i for ids in differ.values() for i in ids]
    todo = [commands[i] for i in index]
    detail, flips = {}, {}
    if todo:
        full = collect([run_tree(args.old, todo, True), run_tree(args.new, todo, True)])
        for i, a, b in zip(index, *full):
            detail[i] = differing_keys(a, b)
            if commands[i][0][0] == "solve":
                flips[i] = validation_flips(a, b)
                detail[i] += "; validated false -> true {}, true -> false {}".format(*flips[i])

    print(f"{len(commands)} distinct pool commands; old {args.old}, new {args.new}")
    for sub in sorted(set(same) | set(differ)):
        total = same[sub] + len(differ.get(sub, []))
        print(f"  {sub:9s} {same[sub]:5d} of {total:5d} byte-identical")
    for sub, ids in sorted(differ.items()):
        print(f"differing {sub} commands ({len(ids)}):")
        for i in ids:
            cmd, svg = commands[i]
            print(f"  {' '.join(cmd)}{' --svg' if svg else ''}: {detail[i]}")
    if flips:
        gained = sum(g for g, _ in flips.values())
        lost = sum(n for _, n in flips.values())
        print(f"solve caustics validated false -> true: {gained}; true -> false: {lost}")
    if index:
        failed, mended, errors = exit_flips((old[i], new[i]) for i in index)
        print(
            f"commands exit 0 -> nonzero: {failed}; nonzero -> 0: {mended}; "
            f"same nonzero exit, changed error record: {errors}"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
