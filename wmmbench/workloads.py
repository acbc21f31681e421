"""The three benchmark workloads: inputs from a seed, one regeneration,
and the output checks.

Every workload regenerates one paper artefact through the library's
public entry point, ``repro.reporting.experiments.run_experiment``,
exactly as ``repro experiment ...`` does.  The benchmark only chooses
the inputs (scale knobs, chips, environments, backend, seed); the
output check digests the rows the artefact is rendered from, not the
rendered text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

#: Columns that carry wall-clock readings, dropped before digesting.
WALL_CLOCK_COLUMNS = frozenset({"~time (mins)"})

#: Tests whose weak outcome is forbidden by their fences or by
#: coherence: they must show 0 weak on every chip and environment.
ZERO_WEAK_TESTS = ("MP-FF", "LB-FF", "SB-FF", "CoRR", "CoWW")

CAMPAIGN_ENVIRONMENTS = ("no-str-", "sys-str+", "rand-str+", "cache-str+")
#: Runs per (app, environment) cell: half of the smoke preset's 24, so
#: a run of the benchmark holds several regenerations.
CAMPAIGN_RUNS = 12


@dataclasses.dataclass
class Inputs:
    """Everything one regeneration receives."""

    experiment: str
    kwargs: dict
    ledger_dir: Path | None = None


@dataclasses.dataclass
class Capture:
    """What the library handed to its renderers during one regeneration."""

    tables: list = dataclasses.field(default_factory=list)
    table5: dict | None = None
    units: list = dataclasses.field(default_factory=list)
    records: int = 0

    def digest(self) -> str:
        canonical = [
            [
                title,
                [
                    {k: v for k, v in row.items() if k not in WALL_CLOCK_COLUMNS}
                    for row in rows
                ],
            ]
            for title, rows in self.tables
        ]
        text = json.dumps(canonical, sort_keys=True, default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def sim_runs(self) -> int:
        """Simulated runs the submitted work units asked for: litmus
        executions, or application runs for campaign shards."""
        runs = 0
        for unit in self.units:
            spec = unit.spec
            if unit.kind == "campaign-shard":
                runs += spec["stop"] - spec["start"]
            else:
                runs += spec["executions"]
        return runs


def install_capture(capture: Capture) -> None:
    """Record the rows, the Table 5 summary and the submitted units of
    every regeneration in ``capture`` (one call per artefact or grid,
    so this costs nothing measurable)."""
    from layertrace import replace_everywhere
    from repro.reporting import experiments
    from repro.store import resume

    render_table = experiments.render_table
    table5_summary = experiments.table5_summary
    submit_units = resume.submit_units

    def capturing_render(rows, *args, **kwargs):
        capture.tables.append(
            (kwargs.get("title"), [dict(row) for row in rows])
        )
        return render_table(rows, *args, **kwargs)

    def capturing_summary(cells):
        capture.table5 = table5_summary(cells)
        return capture.table5

    def capturing_submit(units, config, ledger, submit=None):
        records = submit_units(units, config, ledger, submit)
        capture.units.extend(units)
        capture.records += len(records)
        return records

    experiments.render_table = capturing_render
    experiments.table5_summary = capturing_summary
    replace_everywhere(submit_units, capturing_submit)


class CountingOS:
    """Stands in for ``os`` inside ``repro.store.ledger``: ``fsync`` is
    counted and skipped, everything else passes through.  The ledger is
    written inside the benchmark's checkout, which may sit on a shared
    disk; eliding the sync keeps disk latency out of the timings the way
    a memory-backed filesystem would, while the count still shows every
    sync the ledger asked for."""

    def __init__(self, real):
        self._real = real
        self.fsyncs = 0

    def fsync(self, fd) -> None:
        self.fsyncs += 1

    def __getattr__(self, name):
        return getattr(self._real, name)


def install_counting_os() -> CountingOS:
    import os

    from repro.store import ledger

    counting = CountingOS(os)
    ledger.os = counting
    return counting


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Extra serial regeneration whose digest every op must match.
    serial_twin: "Workload | None" = None
    #: The steps ``steps.py`` times for the host-normalised wall time.
    step = "unit"

    def inputs(self, seed: int, work: Path) -> Inputs:
        raise NotImplementedError

    def check(self, capture: Capture, inputs: Inputs) -> list[str]:
        """Invariants that hold at any seed; returns the violations."""
        return []

    def run(self, inputs: Inputs) -> str:
        from repro.reporting.experiments import run_experiment

        return run_experiment(inputs.experiment, **inputs.kwargs)


class Campaign(Workload):
    """Table 5 on K20 over four environments: 10 apps x 4 environments
    x 12 runs = 480 app runs."""

    name = "campaign"
    #: A work unit here is a whole (app, environment) cell of about
    #: 0.1 s; its 17 engine launches of about 8 ms are finer steps.
    step = "launch"

    def inputs(self, seed, work):
        from repro.scale import get_scale

        scale = dataclasses.replace(
            get_scale("smoke"), campaign_runs=CAMPAIGN_RUNS
        )
        return Inputs(
            "table5",
            dict(
                scale=scale, seed=seed, jobs=1, chips=("K20",),
                environments=CAMPAIGN_ENVIRONMENTS,
            ),
        )

    def check(self, capture, inputs):
        problems = []
        table = capture.table5 or {}
        if sorted(env for _chip, env in table) != sorted(CAMPAIGN_ENVIRONMENTS):
            problems.append(f"table5 cells {sorted(table)}")
        for key, cell in table.items():
            if not 0 <= cell.effective <= cell.observed:
                problems.append(f"table5 {key}: effective > observed")
        expected = 10 * len(CAMPAIGN_ENVIRONMENTS) * CAMPAIGN_RUNS
        if capture.sim_runs() != expected:
            problems.append(
                f"{capture.sim_runs()} app runs, expected {expected}"
            )
        return problems


class Survey(Workload):
    """The 16-test survey over K20/Titan/980 x {no-str, sys-str}."""

    def __init__(self, name, backend, executions, dist=None, ledger=False):
        self.name = name
        self.backend = backend
        self.executions = executions
        self.dist = dist
        self.ledger = ledger

    def inputs(self, seed, work):
        from repro.scale import get_scale

        scale = dataclasses.replace(
            get_scale("smoke"), executions=self.executions
        )
        kwargs = dict(scale=scale, seed=seed, jobs=1, backend=self.backend)
        if self.dist:
            kwargs["dist"] = self.dist
        ledger_dir = None
        if self.ledger:
            ledger_dir = work / "ledger"
            if ledger_dir.exists():
                shutil.rmtree(ledger_dir)
            kwargs["out"] = str(ledger_dir)
        return Inputs("survey", kwargs, ledger_dir=ledger_dir)

    def check(self, capture, inputs):
        problems = []
        if inputs.ledger_dir is not None:
            from repro.store import RunLedger

            recorded = len(RunLedger.open(inputs.ledger_dir))
            if recorded != len(capture.units) or recorded != capture.records:
                problems.append(
                    f"ledger holds {recorded} records for "
                    f"{len(capture.units)} units run"
                )
        if len(capture.units) != 96:
            problems.append(f"{len(capture.units)} survey cells, expected 96")
        for title, rows in capture.tables:
            for row in rows:
                if row["test"] not in ZERO_WEAK_TESTS:
                    continue
                weak = {
                    k: v for k, v in row.items()
                    if k.endswith("-str") and v != 0
                }
                if weak:
                    problems.append(f"{row['test']} weak outcomes {weak}")
        return problems


SURVEY_DIST = Survey("survey-dist", "direct", 100, dist=1, ledger=True)
SURVEY_DIST.serial_twin = Survey("survey-serial", "direct", 100)

WORKLOADS = {
    w.name: w
    for w in (Campaign(), Survey("survey-vector", "vector", 8192), SURVEY_DIST)
}
