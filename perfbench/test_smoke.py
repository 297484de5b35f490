"""Smoke test of the benchmark harness: one round per workload, no timing asserted.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, load_cli  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_reports_every_end_to_end_metric(workload):
    doc = _result(_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                         "--trace", "0"))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", ["certify", "simulate"])
def test_traced_run_reports_every_per_layer_metric(workload):
    doc = _result(_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                         "--trace", "1"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    # self times and the untraced remainder add up to the traced wall time
    totals = [f"{layer}.self_ms" for layer in ("polys", "cayley", "caustics", "dynamics",
                                                "extremal", "cli")]
    layers = sum(metrics[name] for name in totals + ["svgfig.render_trajectory_svg.self_ms"])
    assert layers + metrics["trace.remainder_ms"] == pytest.approx(metrics["trace.wall_ms"])


def test_tracer_wraps_every_binding_and_restores_it():
    load_cli()
    modules = [m for name, m in sys.modules.items() if name.startswith("pellipse")]
    originals = {id(getattr(sys.modules["pellipse." + mod], fn)) for mod, fn, _, _ in TARGETS}

    def bound():
        return sum(1 for m in modules for v in vars(m).values() if id(v) in originals)

    before = bound()
    # names bound outside the defining module: caustics.is_periodic,
    # caustics.simulate, extremal._ladder, the package's re-exports, ...
    assert before > len(TARGETS)
    tracer = Tracer()
    tracer.install()
    try:
        assert bound() == 0
    finally:
        tracer.remove()
    assert bound() == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
