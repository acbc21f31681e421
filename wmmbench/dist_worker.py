"""Instrumented dist worker: ``python3 dist_worker.py MODE OUT worker --connect ...``.

``MODE`` is ``trace`` — install the same layer wrappers as the traced
regeneration — or ``steps`` — time each work unit (``steps.py``).  It
then runs the stock ``repro worker`` command with the remaining
arguments and writes this process's spans and counters, or its step
times, to ``OUT`` when the worker returns.
"""

import json
import os
import sys

import layertrace
import steps


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from repro.cli import main as repro_main

    if mode == "trace":
        tracer = layertrace.Tracer(f"worker-{os.getpid()}")
        layertrace.install(tracer, worker=True)
        try:
            return repro_main(argv)
        finally:
            tracer.dump(out)
    if mode == "steps":
        import repro.dist.worker  # noqa: F401 - loads the unit executors' callers

        clock = steps.StepClock()
        steps.install(clock, "unit")
        try:
            return repro_main(argv)
        finally:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump({"steps": clock.steps}, handle)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
