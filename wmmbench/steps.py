"""Host-normalised wall time: each step of a regeneration measured
against a reference loop run right after it.

The benchmark's host shares its physical cores with other tenants.  The
same pure-Python loop runs at speeds up to about 1.6x apart, the level
shifting over seconds to minutes, so two runs of the same code a few
minutes apart differ by 10-30 % in host seconds, however long they are.

So every untraced regeneration splits its work into *steps* — short,
deterministic pieces of the same work (a work unit, or an engine
launch) — and after each step times ``reference_loop``, a fixed
pure-Python loop of about half a millisecond.  A step's cost is its
time divided by the reference loop's time next to it: how many
reference loops the host could have run instead.  The host's speed at
that moment largely cancels out of the ratio; the library's code slows
a little more than the loop does when the host is busy, so a few per
cent of the drift remain.  ``norm_wall`` sums these costs
and adds the time outside steps (start-up, rendering, the dist
handshake), divided by the regeneration's median reference time, in
thousands of reference loops (``kref``).
"""

from __future__ import annotations

import statistics
import time

from layertrace import replace_everywhere

#: Additions in one reference loop.
REFERENCE_ADDITIONS = 10_000


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ADDITIONS):
        total += i
    return total


class StepClock:
    """One process's steps, in execution order, as
    ``[step seconds, reference loop seconds]``."""

    def __init__(self):
        self.steps: list[list] = []

    def timed(self, fn):
        """``fn`` wrapped to time each call and the reference loop
        after it."""
        steps = self.steps
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            reference_loop()
            steps.append([end - start, clock() - end])
            return result

        timed.__wrapped__ = fn
        return timed


def install(clock: StepClock, kind: str) -> None:
    """Time every step of ``kind`` in this process: ``unit`` — each work
    unit; ``launch`` — each engine launch."""
    if kind == "unit":
        from repro.parallel import plan

        original = plan.execute_unit
        if replace_everywhere(original, clock.timed(original)) == 0:
            raise RuntimeError("execute_unit not found to time")
    elif kind == "launch":
        from repro.gpu.engine import Engine

        Engine.run = clock.timed(Engine.__dict__["run"])
    else:
        raise ValueError(f"unknown step kind {kind!r}")


def norm_wall(wall_s: float, steps: list[list]) -> dict:
    """The host-normalised cost of one regeneration that took
    ``wall_s`` host seconds, not counting its reference loops."""
    if not steps:
        raise ValueError("the regeneration timed no steps")
    step_kref = sum(s / ref for s, ref in steps) / 1000
    outside_s = wall_s - sum(s for s, _ in steps)
    ref_s = statistics.median(ref for _, ref in steps)
    return {
        "norm_wall": step_kref + outside_s / ref_s / 1000,
        "ref_s": ref_s,
        "outside_s": outside_s,
    }
