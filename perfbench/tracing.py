"""Per-layer tracing by wrapping the program's functions from outside.

Each traced function becomes a span: calls are counted and self time (the
span's duration minus the time of the spans it called) is summed under
the span's name.  A module is a layer.  Modules import each other's
functions by name (``caustics`` binds ``is_periodic`` and ``simulate``,
``extremal`` binds ``_ladder``), so a wrapper on the defining module alone
would miss those calls: :meth:`Tracer.install` replaces the function at
every name it is bound to in every loaded ``pellipse`` module and
:meth:`Tracer.remove` restores them all.

Spans are aggregated as they close rather than kept, because the float
scan makes thousands of determinant calls per job.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from decimal import Decimal

#: (module, function, span name, kind).  ``span`` records calls and self
#: time; ``count`` only counts calls (its time stays with the caller),
#: for functions called so often that a span would distort the trace.
TARGETS = (
    ("polys", "real_roots", "polys.real_roots", "span"),
    ("polys", "isolate_real_roots", "polys.isolate_real_roots", "span"),
    ("polys", "refine_root", "polys.refine_root", "span"),
    ("polys", "squarefree_part", "polys.squarefree_part", "span"),
    ("polys", "peval", "polys.peval", "count"),
    ("polys", "det", "polys.det", "span"),
    ("polys", "nullspace_vector", "polys.nullspace_vector", "span"),
    ("polys", "resultant", "polys.resultant", "span"),
    ("cayley", "cubic_sqrt_series", "cayley.cubic_sqrt_series", "span"),
    ("cayley", "_scaled_sqrt", "cayley.scaled_sqrt", "span"),
    ("cayley", "hankel_test", "cayley.hankel_test", "span"),
    ("cayley", "is_periodic", "cayley.is_periodic", "span"),
    ("cayley", "elliptic_case_test", "cayley.elliptic_case_test", "span"),
    ("cayley", "_ladder", "cayley.ladder", "span"),
    ("caustics", "periodic_caustics", "caustics.periodic_caustics", "span"),
    ("caustics", "elliptic_caustics", "caustics.elliptic_caustics", "span"),
    ("caustics", "generic_caustic_scan", "caustics.generic_caustic_scan", "span"),
    ("caustics", "_normalized_det", "caustics.scan.det_evals", "count"),
    ("caustics", "_sim_closure", "caustics.sim_closure", "span"),
    ("caustics", "discriminant_identity_check", "caustics.discriminant_identity_check", "span"),
    ("dynamics", "simulate", "dynamics.simulate", "span"),
    ("dynamics", "closure_status", "dynamics.closure_status", "span"),
    ("dynamics", "start_on_caustic", "dynamics.start_on_caustic", "span"),
    ("extremal", "pell_construct", "extremal.pell_construct", "span"),
    ("extremal", "_newton_polish", "extremal.newton_polish", "span"),
    ("extremal", "pell_lift", "extremal.pell_lift", "span"),
    ("extremal", "kln_partition", "extremal.kln_partition", "span"),
    ("cli", "_snap_gamma", "cli.snap_gamma", "span"),
    ("cli", "_emit", "cli.emit", "span"),
    ("svgfig", "render_trajectory_svg", "svgfig.render_trajectory_svg", "span"),
)

LAYERS = ("polys", "cayley", "caustics", "dynamics", "extremal", "cli", "svgfig")

#: The per-layer metrics the traced run reports, each per job, with the
#: end-to-end metric and workload it should move.
METRICS = (
    ("polys.self_ms", "ms/job", "job_p50_ms on solve-table and certify"),
    ("polys.real_roots.calls", "calls/job", "job_p50_ms on solve-table"),
    ("polys.isolate_real_roots.self_ms", "ms/job", "job_p50_ms, jobs_per_s on solve-table"),
    ("polys.refine_root.self_ms", "ms/job", "job_p50_ms, jobs_per_s on solve-table; certify snap path"),
    ("polys.squarefree_part.calls", "calls/job", "jobs_per_s on solve-table"),
    ("polys.squarefree_part.self_ms", "ms/job", "jobs_per_s on solve-table"),
    ("polys.peval.calls", "calls/job", "jobs_per_s on solve-table"),
    ("polys.det.fraction.calls", "calls/job", "job_p50_ms on solve-table"),
    ("polys.det.fraction.self_ms", "ms/job", "job_p50_ms on solve-table"),
    ("polys.det.float.calls", "calls/job", "job_p50_ms on solve-scan"),
    ("polys.det.float.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("polys.det.decimal.calls", "calls/job", "job_p50_ms on certify"),
    ("polys.det.decimal.self_ms", "ms/job", "job_p50_ms on certify"),
    ("polys.nullspace_vector.self_ms", "ms/job", "job_p50_ms on certify"),
    ("polys.resultant.self_ms", "ms/job", "job_tail_ms on certify (discriminants suite)"),
    ("cayley.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("cayley.cubic_sqrt_series.calls", "calls/job", "job_p50_ms on solve-scan"),
    ("cayley.cubic_sqrt_series.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("cayley.scaled_sqrt.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("cayley.hankel_test.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("cayley.is_periodic.calls", "calls/job", "job_p50_ms on solve-scan and solve-table"),
    ("cayley.elliptic_case_test.calls", "calls/job", "job_p50_ms on solve-table"),
    ("cayley.ladder.calls", "calls/job", "job_p50_ms on certify"),
    ("cayley.ladder.self_ms", "ms/job", "job_p50_ms on certify"),
    ("caustics.self_ms", "ms/job", "job_p50_ms on solve-table and solve-scan"),
    ("caustics.periodic_caustics.self_ms", "ms/job", "job_p50_ms on solve-table"),
    ("caustics.elliptic_caustics.self_ms", "ms/job", "job_p50_ms on solve-table"),
    ("caustics.generic_caustic_scan.self_ms", "ms/job", "job_p50_ms on solve-scan"),
    ("caustics.scan.det_evals", "count/job", "job_p50_ms on solve-scan"),
    ("caustics.scan.roots_kept_ratio", "ratio", "job_p50_ms on solve-scan"),
    ("caustics.sim_closure.calls", "calls/job", "job_p50_ms on solve-table and solve-scan"),
    ("caustics.sim_closure.attempts", "count/job", "job_p50_ms on solve-table and solve-scan"),
    ("caustics.sim_closure.ok_ratio", "ratio", "validated_ratio on solve-table and solve-scan"),
    ("caustics.discriminant_identity_check.self_ms", "ms/job", "job_tail_ms on certify"),
    ("dynamics.self_ms", "ms/job", "jobs_per_s on simulate"),
    ("dynamics.simulate.calls", "calls/job", "jobs_per_s on simulate"),
    ("dynamics.simulate.steps", "count/job", "jobs_per_s on simulate"),
    ("dynamics.simulate.self_ms", "ms/job", "jobs_per_s on simulate; a small share of solve-table"),
    ("dynamics.simulate.errors", "count/job", "validated_ratio on solve-table and solve-scan"),
    ("dynamics.closure_status.calls", "calls/job", "jobs_per_s on simulate"),
    ("dynamics.closure_status.self_ms", "ms/job", "jobs_per_s on simulate"),
    ("dynamics.start_on_caustic.self_ms", "ms/job", "job_p50_ms on solve-table"),
    ("extremal.self_ms", "ms/job", "job_p50_ms on certify"),
    ("extremal.pell_construct.self_ms", "ms/job", "job_p50_ms on certify"),
    ("extremal.newton_polish.calls", "calls/job", "job_p50_ms on certify"),
    ("extremal.newton_polish.self_ms", "ms/job", "job_p50_ms on certify"),
    ("extremal.pell_lift.self_ms", "ms/job", "job_p50_ms on certify"),
    ("extremal.kln_partition.self_ms", "ms/job", "job_p50_ms on certify"),
    ("cli.self_ms", "ms/job", "job_p50_ms on certify and simulate"),
    ("cli.snap_gamma.calls", "calls/job", "job_p50_ms on certify"),
    ("cli.snap_gamma.self_ms", "ms/job", "job_p50_ms on certify"),
    ("cli.emit.self_ms", "ms/job", "jobs_per_s on simulate"),
    ("svgfig.render_trajectory_svg.self_ms", "ms/job", "jobs_per_s on simulate"),
    ("trace.wall_ms", "ms/job", "all end-to-end metrics: traced job time"),
    ("trace.remainder_ms", "ms/job", "traced job time outside every span above"),
    ("trace.overhead_ratio", "ratio", "traced over untraced job time, same job mix"),
)


def _det_field(matrix) -> str:
    x = matrix[0][0] if len(matrix) and len(matrix[0]) else None
    if isinstance(x, float):
        return "float"
    if isinstance(x, Decimal):
        return "decimal"
    return "fraction"


class Tracer:
    """Calls, self time and counters of the wrapped functions."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []  # [span name, seconds spent in child spans]
        self._patches: list = []  # (namespace, key, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name + "." + _det_field(args[0]) if name == "polys.det" else name
            before = hook(args, kwargs, None, None) if hook else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[span] += 1
                self_s[span] += dt - frame[1]
                if hook:
                    hook(args, kwargs, (result, error), before)

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters recorded where the work happens --------------------------

    def _hook_caustics_generic_caustic_scan(self, args, kwargs, outcome, before):
        discarded = kwargs.get("discarded")
        now = len(discarded) if discarded is not None else 0
        if outcome is None:
            return now
        result, error = outcome
        if error is None:
            self.counts["scan.kept"] += len(result)
            self.counts["scan.roots"] += len(result) + now - before
        return None

    def _hook_caustics_sim_closure(self, args, kwargs, outcome, before):
        if outcome is not None and outcome[1] is None:
            self.counts["sim_closure.ok"] += bool(outcome[0][0])
        return None

    def _hook_dynamics_simulate(self, args, kwargs, outcome, before):
        if outcome is None:
            return None
        steps = args[2] if len(args) > 2 else kwargs["steps"]
        self.counts["simulate.steps"] += steps
        if outcome[1] is not None:
            self.counts["simulate.errors"] += 1
        return None

    def _hook_dynamics_start_on_caustic(self, args, kwargs, outcome, before):
        if outcome is None and self._stack and self._stack[-1][0] == "caustics.sim_closure":
            self.counts["sim_closure.attempts"] += 1
        return None

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every name bound to it in ``pellipse``."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "pellipse" or name.startswith("pellipse.")
        }
        wrappers = {}
        for module, fname, span, kind in TARGETS:
            original = getattr(modules["pellipse." + module], fname)
            make = self._span if kind == "span" else self._count
            wrappers[id(original)] = (original, make(span, original))
        for mod in modules.values():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patches.append((namespace, key, value))

    def remove(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- report -----------------------------------------------------------

    def take(self) -> dict:
        """Self seconds by span since the last call (one job's worth)."""
        out = dict(self.self_s)
        self.self_s.clear()
        return out

    def metrics(self, jobs: int, wall_s: float, self_s: dict, overhead: float) -> dict:
        """Per-job values of every metric in :data:`METRICS`.

        ``self_s`` is the self time by span over the ``jobs`` traced jobs
        and ``wall_s`` their time, both in the caller's time scale.
        """
        per_job = 1.0 / max(jobs, 1)
        values = {}
        for span in list(self.calls):
            values[span + ".calls"] = self.calls[span] * per_job
            if span in self_s:
                values[span + ".self_ms"] = self_s[span] * 1000 * per_job
        for layer in LAYERS:
            total = sum(s for span, s in self_s.items() if span.startswith(layer + "."))
            values[layer + ".self_ms"] = total * 1000 * per_job
        c = self.counts
        values["caustics.scan.det_evals"] = self.calls["caustics.scan.det_evals"] * per_job
        values["caustics.scan.roots_kept_ratio"] = c["scan.kept"] / c["scan.roots"] if c["scan.roots"] else 0.0
        values["caustics.sim_closure.attempts"] = c["sim_closure.attempts"] * per_job
        sims = self.calls["caustics.sim_closure"]
        values["caustics.sim_closure.ok_ratio"] = c["sim_closure.ok"] / sims if sims else 0.0
        values["dynamics.simulate.steps"] = c["simulate.steps"] * per_job
        values["dynamics.simulate.errors"] = c["simulate.errors"] * per_job
        spanned = sum(self_s.values())
        values["trace.wall_ms"] = wall_s * 1000 * per_job
        values["trace.remainder_ms"] = (wall_s - spanned) * 1000 * per_job
        values["trace.overhead_ratio"] = overhead
        return {name: values.get(name, 0.0) for name, _, _ in METRICS}
