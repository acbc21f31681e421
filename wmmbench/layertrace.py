"""Layer tracing for the benchmark's traced run.

Tracing is installed from outside the library: every wrapper replaces
one public function or method of ``repro`` in the process, so the
library's own code is untouched.  Only boundaries called at most about
10^5 times per regeneration are wrapped; the per-op interpreters
(``MemorySystem.step``, ``Engine._exec``) are deliberately left alone.

A span is ``(name, start, end, parent)``; its id is its index in
``Tracer.spans`` and ``Tracer.run_id`` names the process that recorded
it.  Spans stay in memory and are written once, by :meth:`Tracer.dump`,
when the regeneration has finished.  A layer's self time is its spans'
durations minus the time covered by their direct children.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record one span per call; ``after(counts,
        args, result)`` then updates the counters from the call."""
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def document(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)


def replace_everywhere(original, replacement) -> int:
    """Point every loaded ``repro`` module's global, and every entry of a
    module-level dict (executor and backend registries), that refers to
    ``original`` at ``replacement`` instead; returns how many."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = module.__dict__
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                replaced += 1
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        replaced += 1
    return replaced


def wrap_function(tracer: Tracer, module, attr: str, name: str, after=None):
    original = getattr(module, attr)
    if replace_everywhere(original, tracer.span(name, original, after)) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} not found to trace")


def wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None):
    original = cls.__dict__[attr]
    setattr(cls, attr, tracer.span(name, original, after))


# ----------------------------------------------------------------------
# counters taken from call results
# ----------------------------------------------------------------------
def _after_engine(counts, args, result) -> None:
    counts["gpu.engine.launches"] += 1
    counts["gpu.engine.ticks"] += result.ticks
    counts["gpu.engine.fence_stall_cycles"] += result.fence_stall_cycles
    counts["gpu.memory.swaps"] += result.n_swaps
    counts["gpu.memory.bypasses"] += result.n_bypasses
    counts["gpu.memory.slow_loads"] += result.n_slow_loads


def _after_app(counts, args, result) -> None:
    counts["apps.runs"] += 1
    counts["apps.erroneous"] += result.erroneous
    counts["apps.timeouts"] += result.timed_out


def _after_litmus(prefix: str):
    def after(counts, args, result) -> None:
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.executions"] += result.executions
        counts[f"{prefix}.weak"] += result.weak

    return after


def _after_count(key: str):
    def after(counts, args, result) -> None:
        counts[key] += 1

    return after


class DistProbe:
    """Coordinator-side dist counters: worker start-up, leases, wire
    bytes and the worker's CPU time (child rusage, so only processes
    the coordinator has waited for are counted)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.submit_start: float | None = None
        self.first_grant: float | None = None

    def install(self) -> None:
        import resource

        from repro.dist.coordinator import Coordinator
        from repro.dist.leases import LeaseTable
        from repro.dist.submit import DistributedSubmit

        counts = self.tracer.counts
        probe = self
        submit_call = DistributedSubmit.__call__
        serve = Coordinator.serve
        grant = LeaseTable.grant

        def children_cpu() -> float:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        def traced_submit(self, units, config, on_record):
            probe.submit_start = time.perf_counter()
            cpu0 = children_cpu()
            try:
                return submit_call(self, units, config, on_record)
            finally:
                counts["dist.worker_cpu_s"] += children_cpu() - cpu0

        def traced_serve(self):
            try:
                return serve(self)
            finally:
                wire = self.wire
                counts["dist.frames"] += wire.frames_in + wire.frames_out
                counts["dist.raw_bytes"] += wire.raw_in + wire.raw_out
                counts["dist.wire_bytes"] += wire.wire_in + wire.wire_out
                counts["dist.units"] += len(self.units)

        def counted_grant(self, worker):
            lease = grant(self, worker)
            if lease is not None:
                if probe.first_grant is None:
                    probe.first_grant = time.perf_counter()
                    counts["dist.worker_start_s"] += (
                        probe.first_grant - probe.submit_start
                    )
                counts["dist.leases"] += 1
                counts["dist.units_granted"] += len(lease.indices)
            return lease

        DistributedSubmit.__call__ = self.tracer.span(
            "dist.submit", traced_submit
        )
        Coordinator.serve = self.tracer.span("dist.serve", traced_serve)
        LeaseTable.grant = counted_grant


def install(tracer: Tracer, worker: bool = False) -> DistProbe | None:
    """Wrap every traced layer boundary in this process.

    ``worker`` marks a dist worker process: it gets the same library
    wrappers plus worker-side protocol counters instead of the
    coordinator probe.
    """
    import repro.dist.worker
    import repro.litmus.units  # noqa: F401 - registers the litmus executor
    import repro.reporting.experiments  # noqa: F401
    import repro.testing.campaign as campaign
    from repro import rng
    from repro.apps.base import ApplicationBatch
    from repro.gpu import grid, pressure
    from repro.gpu.engine import Engine
    from repro.litmus import runner, vector
    from repro.parallel import plan
    from repro.store.ledger import LedgerWriter, RunLedger
    from repro.stress import strategies

    wrap_method(tracer, Engine, "run", "gpu.engine", _after_engine)
    wrap_function(tracer, grid, "build_grid", "gpu.grid")
    wrap_method(tracer, ApplicationBatch, "run", "apps", _after_app)
    wrap_function(
        tracer, campaign, "execute_campaign_unit", "testing",
        _after_count("testing.cells"),
    )
    wrap_function(
        tracer, runner, "run_litmus", "litmus.runner",
        _after_litmus("litmus.runner"),
    )
    wrap_function(
        tracer, vector, "run_litmus_vector", "litmus.vector",
        _after_litmus("litmus.vector"),
    )
    for cls in (
        strategies.NoStress,
        strategies.FixedLocationStress,
        strategies.TunedStress,
        strategies.RandomStress,
        strategies.CacheStress,
    ):
        wrap_method(tracer, cls, "build", "stress")
    wrap_function(tracer, rng, "make_rng", "rng.make_rng")
    wrap_function(tracer, plan, "execute_unit", "parallel.unit")
    wrap_method(tracer, LedgerWriter, "write", "store.ledger.append")
    wrap_method(tracer, RunLedger, "append", "store.ledger.append")

    counts = tracer.counts
    lru_get = pressure.lru_get

    def counted_lru_get(cache, key, build, maxsize):
        counts[
            "gpu.pressure.cache_hits" if key in cache
            else "gpu.pressure.cache_misses"
        ] += 1
        return lru_get(cache, key, build, maxsize)

    replace_everywhere(lru_get, counted_lru_get)

    if worker:
        run_worker = repro.dist.worker.run_worker

        def run_worker_counted(*args, **kwargs):
            stats = kwargs.setdefault(
                "stats", repro.dist.worker.WorkerStats()
            )
            try:
                return run_worker(*args, **kwargs)
            finally:
                counts["dist.worker.blocking_grants"] += stats.blocking_grants
                counts["dist.worker.prefetched_grants"] += (
                    stats.prefetched_grants
                )

        replace_everywhere(run_worker, run_worker_counted)
        return None
    probe = DistProbe(tracer)
    probe.install()
    return probe


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def span_table(dumps: list[dict]) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, self seconds and
    the list of inclusive durations, over the spans of every process."""
    table: dict[str, dict] = defaultdict(
        lambda: {"n": 0, "total": 0.0, "self": 0.0, "durations": []}
    )
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), child in zip(spans, covered):
            entry = table[name]
            entry["n"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child
            entry["durations"].append(end - start)
    return table


#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("gpu.engine.launches", "count"),
    ("gpu.engine.run_s", "s"),
    ("gpu.engine.self_s", "s"),
    ("gpu.engine.ticks", "count"),
    ("gpu.engine.us_per_tick", "us"),
    ("gpu.engine.fence_stall_cycles", "count"),
    ("gpu.memory.swaps", "count"),
    ("gpu.memory.bypasses", "count"),
    ("gpu.memory.slow_loads", "count"),
    ("gpu.grid.builds", "count"),
    ("gpu.grid.build_s", "s"),
    ("apps.runs", "count"),
    ("apps.run_s", "s"),
    ("apps.self_s", "s"),
    ("apps.erroneous", "count"),
    ("apps.timeouts", "count"),
    ("testing.cells", "count"),
    ("testing.cell_s", "s"),
    ("litmus.runner.calls", "count"),
    ("litmus.runner.executions", "count"),
    ("litmus.runner.run_s", "s"),
    ("litmus.runner.self_s", "s"),
    ("litmus.runner.exec_per_s", "1/s"),
    ("litmus.runner.weak", "count"),
    ("litmus.vector.calls", "count"),
    ("litmus.vector.executions", "count"),
    ("litmus.vector.run_s", "s"),
    ("litmus.vector.self_s", "s"),
    ("litmus.vector.exec_per_s", "1/s"),
    ("litmus.vector.weak", "count"),
    ("stress.builds", "count"),
    ("stress.build_s", "s"),
    ("gpu.pressure.cache_hits", "count"),
    ("gpu.pressure.cache_misses", "count"),
    ("gpu.pressure.hit_ratio", "ratio"),
    ("rng.make_rng_calls", "count"),
    ("rng.make_rng_s", "s"),
    ("parallel.units", "count"),
    ("parallel.unit_s", "s"),
    ("parallel.unit_s_p50", "s"),
    ("parallel.unit_s_p99", "s"),
    ("store.ledger.appends", "count"),
    ("store.ledger.append_s", "s"),
    ("store.ledger.bytes", "bytes"),
    ("store.ledger.fsyncs", "count"),
    ("dist.worker_start_s", "s"),
    ("dist.leases", "count"),
    ("dist.frames", "count"),
    ("dist.raw_bytes", "bytes"),
    ("dist.wire_bytes", "bytes"),
    ("dist.serve_s", "s"),
    ("dist.worker_cpu_s", "s"),
    ("dist.idle_s", "s"),
    ("dist.units_retried", "count"),
    ("dist.worker.blocking_grants", "count"),
    ("dist.worker.prefetched_grants", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank method (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(dumps: list[dict], extra: dict[str, float]) -> dict:
    """Per-layer metric values of one traced regeneration.

    ``dumps`` are the :meth:`Tracer.dump` documents of every process
    that took part; ``extra`` carries the values measured outside the
    spans (ledger bytes and fsyncs)."""
    spans = span_table(dumps)
    counts: dict[str, float] = defaultdict(float)
    for dump in dumps:
        for key, value in dump["counts"].items():
            counts[key] += value
    counts.update(extra)

    def total(name: str) -> float:
        return spans[name]["total"] if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name]["self"] if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name]["n"] if name in spans else 0

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    units = spans["parallel.unit"]["durations"] if "parallel.unit" in spans else []
    lookups = counts["gpu.pressure.cache_hits"] + counts["gpu.pressure.cache_misses"]
    serve = total("dist.serve")
    values = {
        "gpu.engine.launches": counts["gpu.engine.launches"],
        "gpu.engine.run_s": total("gpu.engine"),
        "gpu.engine.self_s": own("gpu.engine"),
        "gpu.engine.ticks": counts["gpu.engine.ticks"],
        "gpu.engine.us_per_tick": 1e6 * rate(
            total("gpu.engine"), counts["gpu.engine.ticks"]
        ),
        "gpu.engine.fence_stall_cycles": counts["gpu.engine.fence_stall_cycles"],
        "gpu.memory.swaps": counts["gpu.memory.swaps"],
        "gpu.memory.bypasses": counts["gpu.memory.bypasses"],
        "gpu.memory.slow_loads": counts["gpu.memory.slow_loads"],
        "gpu.grid.builds": calls("gpu.grid"),
        "gpu.grid.build_s": total("gpu.grid"),
        "apps.runs": counts["apps.runs"],
        "apps.run_s": total("apps"),
        "apps.self_s": own("apps"),
        "apps.erroneous": counts["apps.erroneous"],
        "apps.timeouts": counts["apps.timeouts"],
        "testing.cells": counts["testing.cells"],
        "testing.cell_s": total("testing"),
        "stress.builds": calls("stress"),
        "stress.build_s": total("stress"),
        "gpu.pressure.cache_hits": counts["gpu.pressure.cache_hits"],
        "gpu.pressure.cache_misses": counts["gpu.pressure.cache_misses"],
        "gpu.pressure.hit_ratio": rate(
            counts["gpu.pressure.cache_hits"], lookups
        ),
        "rng.make_rng_calls": calls("rng.make_rng"),
        "rng.make_rng_s": total("rng.make_rng"),
        "parallel.units": len(units),
        "parallel.unit_s": sum(units),
        "parallel.unit_s_p50": _quantile(units, 0.50),
        "parallel.unit_s_p99": _quantile(units, 0.99),
        "store.ledger.appends": calls("store.ledger.append"),
        "store.ledger.append_s": total("store.ledger.append"),
        "store.ledger.bytes": counts["store.ledger.bytes"],
        "store.ledger.fsyncs": counts["store.ledger.fsyncs"],
        "dist.worker_start_s": counts["dist.worker_start_s"],
        "dist.leases": counts["dist.leases"],
        "dist.frames": counts["dist.frames"],
        "dist.raw_bytes": counts["dist.raw_bytes"],
        "dist.wire_bytes": counts["dist.wire_bytes"],
        "dist.serve_s": serve,
        "dist.worker_cpu_s": counts["dist.worker_cpu_s"],
        "dist.idle_s": (
            serve - counts["dist.worker_cpu_s"] if serve > 0 else 0.0
        ),
        "dist.units_retried": counts["dist.units_granted"] - counts["dist.units"],
        "dist.worker.blocking_grants": counts["dist.worker.blocking_grants"],
        "dist.worker.prefetched_grants": counts["dist.worker.prefetched_grants"],
        "trace.spans": sum(entry["n"] for entry in spans.values()),
    }
    for prefix in ("litmus.runner", "litmus.vector"):
        values[f"{prefix}.calls"] = counts[f"{prefix}.calls"]
        values[f"{prefix}.executions"] = counts[f"{prefix}.executions"]
        values[f"{prefix}.run_s"] = total(prefix)
        values[f"{prefix}.self_s"] = own(prefix)
        values[f"{prefix}.exec_per_s"] = rate(
            counts[f"{prefix}.executions"], total(prefix)
        )
        values[f"{prefix}.weak"] = counts[f"{prefix}.weak"]
    return values


def median_metrics(per_op: list[dict]) -> dict[str, float]:
    """Median of each per-layer metric over the traced regenerations."""
    return {
        key: statistics.median(values[key] for values in per_op)
        for key in per_op[0]
    }
