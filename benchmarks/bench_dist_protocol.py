"""Distributed protocol: blocking lease round trips under wire latency.

Lease pipelining plus adaptive lease sizing takes the coordinator
round trip off the worker's critical path: instead of *blocking* on a
request/lease exchange before every unit, a worker prefetches its next
lease while the current one executes, and the coordinator batches
units toward a target lease duration.

This benchmark measures that directly, without needing a second
machine or even a second CPU: the coordinator runs in a thread, the
worker runs in-process via :func:`repro.dist.run_worker`, and wire
latency is injected deterministically with the fault runtime
(``socket.send``/``delay`` on every frame, both directions — the same
production code path chaos testing uses).  The records must match a
serial in-process run exactly (the byte-identity contract).  Recorded:
wall-clock, blocking lease round trips
(:class:`~repro.dist.WorkerStats`), and raw-vs-wire bytes
(:class:`~repro.dist.WireStats`)::

    REPRO_BENCH_JSON=BENCH_throughput.json \
        pytest benchmarks/bench_dist_protocol.py -s

The acceptance floor: the run blocks on at most a fifth of the round
trips a one-unit-per-lease, unpipelined worker needs (one per unit plus
the final request that reads ``done``).
"""

from __future__ import annotations

import os
import threading
import time

from repro.dist import Coordinator, WorkerStats, run_worker
from repro.faults import FaultPlan, FaultSpec, install, uninstall
from repro.litmus.units import litmus_unit
from repro.parallel import run_units
from repro.parallel.executor import SERIAL
from repro.store import litmus_key
from repro.stress.strategies import NoStress

#: Work units in the grid (cycled over the litmus family, unique
#: seeds, tiny execution counts — the wire, not the simulator, is what
#: this benchmark exercises).
_UNITS = int(os.environ.get("REPRO_BENCH_DIST_UNITS", "24"))
_EXECUTIONS = 8
#: Injected one-way per-frame latency (seconds).
_DELAY_S = float(os.environ.get("REPRO_BENCH_DIST_DELAY_S", "0.003"))
#: Acceptance floor: blocking round trips * this <= units + 1.
_MIN_RT_RATIO = 5

_TESTS = ["MP", "SB", "LB", "CoRR", "R", "S", "WRC", "IRIW"]


def _grid(n=_UNITS):
    units = []
    for i in range(n):
        test = _TESTS[i % len(_TESTS)]
        key = litmus_key("K20", test, "no-str", 64, _EXECUTIONS, i)
        units.append(
            litmus_unit(
                key, "K20", test, 64, NoStress(), _EXECUTIONS, seed=i
            )
        )
    return units


def _latency_plan():
    return FaultPlan(
        name="bench-wire-latency",
        seed=1,
        specs=(
            FaultSpec(
                "socket.send", "delay", params={"delay_s": _DELAY_S}
            ),
        ),
    )


def _run_campaign(units):
    """One full adaptive campaign: coordinator thread + in-process
    worker.  Returns (wall_s, records, worker_stats, coordinator_wire).
    """
    coordinator = Coordinator(units, lease_timeout=30.0)
    host, port = coordinator.bind()
    box = {}

    def serve():
        box["records"] = coordinator.serve()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    stats = WorkerStats()
    start = time.perf_counter()
    run_worker(host, port, name="bench-pipelined", stats=stats)
    wall = time.perf_counter() - start
    thread.join(timeout=60)
    assert "records" in box, "coordinator did not finish"
    return wall, box["records"], stats, coordinator.wire


def _blocking_round_trips(stats):
    """Lease-acquisition round trips the worker *waited* on: blocking
    grant requests plus empty-handed wait/retry sleeps.  Prefetched
    grants are excluded by construction — their latency overlapped
    execution."""
    return stats.blocking_grants + stats.wait_sleeps


def test_dist_protocol_pipelined(bench_json):
    units = _grid()
    install(_latency_plan())
    try:
        wall, records, stats, wire = _run_campaign(units)
    finally:
        uninstall()

    # Byte-identity first: the distributed run must change nothing.
    assert [r.to_json() for r in records] == [
        r.to_json() for r in run_units(units, SERIAL)
    ]
    assert stats.executed == len(units)

    round_trips = _blocking_round_trips(stats)
    bench_json["dist_protocol_pipelined"] = {
        "units": len(units),
        "injected_delay_ms_per_frame": _DELAY_S * 1000.0,
        "wall_s": round(wall, 3),
        "blocking_round_trips": round_trips,
        "blocking_grants": stats.blocking_grants,
        "prefetched_grants": stats.prefetched_grants,
        "wait_sleeps": stats.wait_sleeps,
        "leases_served": stats.leases_served,
        "result_parts_streamed": stats.parts_sent,
        "coordinator_raw_bytes": wire.raw_out + wire.raw_in,
        "coordinator_wire_bytes": wire.wire_out + wire.wire_in,
        "compressed_frames": wire.compressed_out + wire.compressed_in,
        "min_ratio_floor": _MIN_RT_RATIO,
    }

    assert round_trips * _MIN_RT_RATIO <= len(units) + 1, (
        f"pipelined+adaptive still blocked on {round_trips} lease round "
        f"trip(s); the floor is (units + 1) / {_MIN_RT_RATIO} for "
        f"{len(units)} units"
    )
    # Compression must never inflate the wire.
    assert wire.wire_out + wire.wire_in <= (
        wire.raw_out + wire.raw_in + 4 * (wire.frames_out + wire.frames_in)
    )
    print(
        f"\ndist protocol ({len(units)} units, "
        f"{_DELAY_S * 1000:.0f}ms/frame injected): "
        f"{round_trips} blocking round trips / {wall:.2f}s, "
        f"{stats.prefetched_grants} prefetched lease(s), "
        f"{wire.compressed_out + wire.compressed_in} compressed frame(s)"
    )
