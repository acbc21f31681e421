"""Benchmark of the paper-artefact pipeline: one workload per run.

Usage (from the root of a checkout)::

    python3 wmmbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Each operation regenerates one paper artefact in a fresh interpreter
(``op.py``), serially, one interpreter at a time, and checks the output.
The run keeps starting operations while the next one should still end
within ``--seconds``, then prints a report and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics, medians over the run:
  ``setup_s``, ``norm_wall`` (the host-normalised wall time of
  ``steps.py``, in thousands of reference loops), ``norm_sim_runs``
  (simulated runs per thousand reference loops) and ``peak_rss_mb``.
  The report lines above the JSON also give the median ``wall_s`` and
  ``sim_runs_per_s`` in host seconds, which follow the host's load.
* ``--trace 1`` alternates untraced and traced operations and reports
  the per-layer metrics of ``layertrace.PER_LAYER``; the tracing
  overhead is the traced median wall time minus the untraced one.

See ``DESIGN.md`` for why each workload exists and which layers it
loads.
"""

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Set-up-only interpreters started before the first regeneration,
#: after one warm-up; one more follows every regeneration, so set-up
#: samples spread over the whole run.
PROBES = 2
#: No operation may end later than this after the run started.
RUN_LIMIT_S = 165.0

END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall", "kref"),
    ("norm_sim_runs", "1/kref"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def spawn(mode, args, work: Path, deadline: float, expect=None) -> dict:
    """Run one ``op.py`` interpreter to completion; its result document
    plus ``elapsed`` and, when it got that far, ``setup_s``."""
    work.mkdir(parents=True)
    result_path = work / "result.json"
    command = [
        sys.executable, str(BENCH_DIR / "op.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--work", str(work), "--result", str(result_path),
    ]
    if expect is not None:
        command += ["--expect", expect]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = max(1.0, deadline - time.monotonic())
    with open(work / "log.txt", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # The op's own children (dist workers) share its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        elapsed = time.monotonic() - started
    if result_path.exists():
        result = json.loads(result_path.read_text())
    else:
        result = {
            "ok": False,
            "problems": [f"{mode} ended with code {proc.returncode} "
                         f"after {elapsed:.1f} s without a result"],
        }
    result["mode"] = mode
    result["work"] = str(work)
    result["elapsed"] = elapsed
    if "setup_done" in result:
        result["setup_s"] = result["setup_done"] - started
    if not result["ok"]:
        result["log"] = (work / "log.txt").read_text()[-2000:]
    return result


def host_info() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(setups, runs) -> dict:
    """The end-to-end metrics, plus the host-second timings that are
    reported but not gated, each with its samples."""
    timed = [r for r in runs if r["ok"]]
    samples = {
        "setup_s": setups,
        "norm_wall": [r["norm_wall"] for r in timed] or [0.0],
        "norm_sim_runs": [r["sim_runs"] / r["norm_wall"] for r in timed] or [0.0],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed] or [0.0],
        "wall_s": [r["wall_s"] for r in timed] or [0.0],
        "sim_runs_per_s": [r["sim_runs"] / r["wall_s"] for r in timed] or [0.0],
        "ref_loop_ms": [1000 * r["ref_s"] for r in timed] or [0.0],
    }
    units = dict(END_TO_END, wall_s="s", sim_runs_per_s="1/s", ref_loop_ms="ms")
    return {
        name: {
            "value": statistics.median(values),
            "unit": units[name],
            "samples": values,
        }
        for name, values in samples.items()
    }


def per_layer(ops) -> dict:
    import layertrace

    traced = [r for r in ops if r["mode"] == "trace" and "layers" in r]
    untraced = [r["wall_s"] for r in ops if r["mode"] == "run" and "wall_s" in r]
    values = layertrace.median_metrics([r["layers"] for r in traced]) if traced else {}
    if traced:
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    if untraced:
        values["trace.untraced_wall_s"] = statistics.median(untraced)
    if traced and untraced:
        values["trace.overhead_s"] = (
            values["trace.wall_s"] - values["trace.untraced_wall_s"]
        )
    return {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in layertrace.PER_LAYER
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_dir = ROOT / ".wmmbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    counter = itertools.count()

    def op(mode, expect=None):
        return spawn(mode, args, run_dir / f"{next(counter):02d}-{mode}",
                     deadline, expect)

    op("probe")  # warm-up: byte-compiles the library in a fresh checkout
    probes = [op("probe") for _ in range(PROBES)]
    regenerations = []
    expect = None
    if WORKLOADS[args.workload].serial_twin is not None:
        twin = op("twin")
        regenerations.append(twin)
        expect = twin.get("digest")

    modes = itertools.cycle(("run", "trace") if args.trace else ("run",))
    ops = []
    cycles = []  # seconds of each regeneration plus its set-up probe
    while True:
        cycle_start = time.monotonic()
        ops.append(op(next(modes), expect))
        probes.append(op("probe"))
        now = time.monotonic()
        cycles.append(now - cycle_start)
        both_seen = not args.trace or len(ops) >= 2
        # Start another cycle only if it should end within half a cycle
        # of ``--seconds``, so runs average ``--seconds``.
        if both_seen and now - start + 0.5 * statistics.mean(cycles) > args.seconds:
            break
        if now + 1.25 * max(cycles) > deadline:
            break
    regenerations += ops

    failed = [r for r in regenerations if not r["ok"]]
    broken_probes = [r for r in probes if not r["ok"]]
    setups = [r["setup_s"] for r in probes + regenerations if "setup_s" in r]
    runs = [r for r in ops if r["mode"] == "run"]
    metrics = per_layer(ops) if args.trace else end_to_end(setups or [0.0], runs)

    host = host_info()
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{len(regenerations)} regenerations ({len(failed)} failed), "
        f"{len(setups)} set-up samples, {time.monotonic() - start:.1f} s"
    )
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for r in regenerations:
        print(
            f"  {r['mode']:5s} ok={r['ok']!s:5s} elapsed={r['elapsed']:.3f}s "
            f"wall={r.get('wall_s', float('nan')):.3f}s "
            f"norm_wall={r.get('norm_wall', float('nan')):.3f}kref "
            f"digest={r.get('digest', '-')[:12]}"
        )
    for r in failed + broken_probes:
        print(f"FAILED {r['mode']}:", *r["problems"], r.get("log", ""), sep="\n")
    for name, m in metrics.items():
        spread = ""
        if "samples" in m:
            q1, q3 = quartiles(m.pop("samples"))
            spread = f"  (q1 {q1:.4f}, q3 {q3:.4f})"
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}{spread}")
    if not args.trace:
        metrics = {name: metrics[name] for name, _ in END_TO_END}

    summary = {
        "correct": not failed and not broken_probes,
        "attempted": len(regenerations),
        "failed": len(failed),
        "metrics": metrics,
    }
    with open(ROOT / ".wmmbench" / "results.jsonl", "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "host": host, **summary,
            "walls": [[r["mode"], r.get("wall_s")] for r in regenerations],
        }) + "\n")
    for r in probes + regenerations:
        if r["mode"] != "trace" and r["ok"]:
            shutil.rmtree(r["work"], ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
