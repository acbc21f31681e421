"""One regeneration of one workload, in a fresh interpreter.

``run.py`` starts this script once per operation and reads the JSON
document it writes to ``--result``.  Modes:

* ``probe`` — import the library and build the inputs, then stop (a
  set-up time sample);
* ``run`` — regenerate the artefact and check it, untraced except for
  the step clock of ``steps.py`` (one wrapper on the workload's steps,
  and a reference loop after each);
* ``trace`` — the same with every layer boundary traced (see
  ``layertrace.py``);
* ``twin`` — regenerate the workload's serial twin (the same artefact
  without dist), whose digest the dist operations must match.

Set-up time is reported as the monotonic clock reading when the inputs
are built; the parent subtracts the reading it took just before
starting this interpreter.
"""

import time

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("probe", "run", "trace", "twin"), required=True
    )
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--expect", default=None,
                        help="digest every regeneration must reproduce")
    return parser.parse_args(argv)


def import_library():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not this checkout")
    import repro.dist  # noqa: F401 - every workload's modules load in set-up
    import repro.reporting.experiments  # noqa: F401


def instrumented_worker_command(stock, mode: str, work: Path):
    """``worker_command`` that starts dist workers through
    ``dist_worker.py`` in ``mode`` (``trace`` or ``steps``), so they
    write their spans or step times into ``work``."""

    def command(*args, **kwargs):
        argv = stock(*args, **kwargs)
        if argv[1:3] != ["-m", "repro"]:
            raise RuntimeError(f"unexpected worker command {argv!r}")
        out = work / f"worker-{len(list(work.glob('worker-*')))}.json"
        return [argv[0], str(BENCH_DIR / "dist_worker.py"), mode, str(out)] + argv[3:]

    return command


def regenerate(args, workload, inputs) -> dict:
    import layertrace
    import steps
    from repro.dist import submit as dist_submit
    from workloads import Capture, install_capture, install_counting_os

    capture = Capture()
    install_capture(capture)
    counting = install_counting_os()
    tracer = clock = None
    if args.mode == "trace":
        tracer = layertrace.Tracer(f"op-{os.getpid()}")
        layertrace.install(tracer)
        dist_submit.worker_command = instrumented_worker_command(
            dist_submit.worker_command, "trace", args.work
        )
    elif args.mode == "run":
        clock = steps.StepClock()
        steps.install(clock, workload.step)
        dist_submit.worker_command = instrumented_worker_command(
            dist_submit.worker_command, "steps", args.work
        )
    references = json.loads((BENCH_DIR / "references.json").read_text())
    expected = references.get(args.workload, {}).get(str(args.seed))

    started = time.perf_counter()
    workload.run(inputs)
    problems = workload.check(capture, inputs)
    digest = capture.digest()
    for label, want in (("reference", expected), ("serial twin", args.expect)):
        if want is not None and digest != want:
            problems.append(f"digest {digest[:12]} != {label} {want[:12]}")
    wall = time.perf_counter() - started

    result = {
        "ok": not problems,
        "problems": problems,
        "digest": digest,
        "wall_s": wall,
        "sim_runs": capture.sim_runs(),
        "units": len(capture.units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if clock is not None:
        timed_steps = list(clock.steps)
        for path in sorted(args.work.glob("worker-*.json")):
            timed_steps += json.loads(path.read_text())["steps"]
        # The reference loops are the benchmark's, not the program's work.
        result["wall_s"] -= sum(ref for _, ref in timed_steps)
        result.update(steps.norm_wall(result["wall_s"], timed_steps))
        result["steps"] = len(timed_steps)
    if tracer is not None:
        dumps = [tracer.document()]
        for path in sorted(args.work.glob("worker-*.json")):
            dumps.append(json.loads(path.read_text()))
        ledger_bytes = 0
        if inputs.ledger_dir is not None:
            ledger_bytes = sum(
                p.stat().st_size for p in inputs.ledger_dir.iterdir()
            )
        result["layers"] = layertrace.layer_metrics(
            dumps,
            {
                "store.ledger.bytes": ledger_bytes,
                "store.ledger.fsyncs": counting.fsyncs,
            },
        )
        tracer.dump(args.work / f"spans-{tracer.run_id}.json")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    code = 0
    try:
        import_library()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        if args.mode == "twin":
            workload = workload.serial_twin
        inputs = workload.inputs(args.seed, args.work)
        result = {"ok": True, "setup_done": time.monotonic()}
        if args.mode != "probe":
            result.update(regenerate(args, workload, inputs))
            if inputs.ledger_dir is not None:
                import shutil

                shutil.rmtree(inputs.ledger_dir, ignore_errors=True)
    except Exception:
        result = {"ok": False, "problems": [traceback.format_exc()]}
        code = 1
    args.result.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
