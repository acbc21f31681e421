"""Simulator-soundness gate: backends vs the axiomatic model.

The gate runs all sixteen registry tests on all three execution
backends at fixed seeds, collects every observed final state, and
asserts none is axiomatically forbidden — this is the suite CI's
"soundness-gate" step runs.  The collectors themselves are also pinned
against their run_* counterparts: at the same seed they must report
the same weak counts, since each execution draws from its own seed
stream (running the rounds an early-exit would skip cannot leak into
later executions).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.axiom.model import classify
from repro.chips import SC_REFERENCE
from repro.litmus.compile import observed_outcomes_engine, run_litmus_compiled
from repro.litmus.runner import observed_outcomes, run_litmus
from repro.litmus.tests import ALL_TESTS, get_test
from repro.litmus.vector import observed_outcomes_vector, run_litmus_vector
from repro.stress.strategies import TunedStress
from repro.testing.soundness import (
    _COLLECTORS,
    DEFAULT_EXECUTIONS,
    soundness_gate,
)
from repro.tuning.pipeline import shipped_params

SEED = 7

#: sha256 of ``repr((sorted(outcomes.items()), weak, incomplete))`` for
#: seed-7 K20 cells at the gate budgets: the exact outcome histograms,
#: not just the weak counts the other tests compare.
HISTOGRAM_PINS = {
    ("direct", "MP"):
        "c3fd0784624796a00d0d975ca03dd2f19c8baf191b0d28e13f4aef6e539a9855",
    ("direct", "IRIW"):
        "f5abd41910a9aea1e4351b2e39a4c36b9b3313d190fb788eeb6480dd87188f27",
    ("direct", "CoWW"):
        "04f83450d6cc37b78430f472a135b4251a600a9fd97a6989ed6e64464ffd8661",
    ("engine", "MP"):
        "a3f10e0950216b34c27c6d2b9696aee648cdcfc291ba87c5aea1b5c1cf80ac2d",
    ("engine", "SB"):
        "e9b7f2c10cd1906ff645183c433127bf0e7e0ebea59ac8e1e4f948bfa33ad1c0",
    ("vector", "MP"):
        "0661b0782565943c087e0cf3c72d8ce035e46d302465ab7c9eba67465deee75d",
    ("vector", "2+2W"):
        "9a75e85dc85788882d34089109fe424ea84991c63b8c02ae3b0e8e3553ba6065",
}


@pytest.fixture(scope="module")
def gate_report():
    return soundness_gate(seed=SEED)


def test_gate_passes(gate_report):
    assert gate_report.ok, "\n".join(gate_report.violations)


def test_gate_covers_every_test_and_backend(gate_report):
    cells = {(c.test, c.backend) for c in gate_report.checks}
    names = {t.name for t in ALL_TESTS}
    assert cells == {
        (name, backend)
        for name in names
        for backend in ("direct", "engine", "vector")
    }


def test_gate_is_not_vacuous(gate_report):
    """The gate only means something if the backends actually ran and
    produced states: every cell observed at least one complete round,
    and the weak tests fired somewhere at these budgets."""
    for check in gate_report.checks:
        assert check.rounds > 0, (check.test, check.backend)
        assert check.distinct > 0, (check.test, check.backend)
        assert check.incomplete == 0, (check.test, check.backend)
    assert any(c.weak for c in gate_report.checks)


def test_gate_checks_condition_verdicts(gate_report):
    assert len(gate_report.condition_verdicts) == len(ALL_TESTS)
    for name, verdict, expected, sc_agrees in gate_report.condition_verdicts:
        assert verdict == expected, name
        assert sc_agrees, name


def test_sc_reference_only_produces_sc_states(gate_report):
    assert len(gate_report.sc_reference) == len(ALL_TESTS)
    for name, non_sc in gate_report.sc_reference:
        assert not non_sc, (name, non_sc)


@pytest.mark.parametrize("name", ["MP", "IRIW", "CoWW"])
def test_direct_collector_matches_run_litmus(k20, name):
    test = get_test(name)
    spec = TunedStress(shipped_params("K20"))
    d = 2 * k20.patch_size
    n = DEFAULT_EXECUTIONS["direct"]
    obs = observed_outcomes(k20, test, d, spec, n, seed=SEED)
    ref = run_litmus(k20, test, d, spec, n, seed=SEED)
    assert obs.weak == ref.weak
    assert obs.incomplete == 0
    assert sum(obs.outcomes.values()) == n * 8  # every round recorded


@pytest.mark.parametrize("name", ["MP", "SB"])
def test_engine_collector_matches_run_litmus_compiled(k20, name):
    test = get_test(name)
    spec = TunedStress(shipped_params("K20"))
    d = 2 * k20.patch_size
    n = DEFAULT_EXECUTIONS["engine"]
    obs = observed_outcomes_engine(k20, test, d, spec, n, seed=SEED)
    ref = run_litmus_compiled(k20, test, d, spec, n, seed=SEED)
    assert obs.weak == ref.weak
    assert sum(obs.outcomes.values()) == n * 8


@pytest.mark.parametrize("name", ["MP", "2+2W"])
def test_vector_collector_matches_run_litmus_vector(k20, name):
    test = get_test(name)
    spec = TunedStress(shipped_params("K20"))
    d = 2 * k20.patch_size
    n = DEFAULT_EXECUTIONS["vector"]
    obs = observed_outcomes_vector(k20, test, d, spec, n, seed=SEED)
    ref = run_litmus_vector(k20, test, d, spec, n, seed=SEED)
    assert obs.weak == ref.weak
    assert sum(obs.outcomes.values()) == n * 8


@pytest.mark.parametrize("backend,name", sorted(HISTOGRAM_PINS))
def test_outcome_histograms_pinned(k20, backend, name):
    spec = TunedStress(shipped_params("K20"))
    obs = _COLLECTORS[backend](
        k20, get_test(name), 2 * k20.patch_size, spec,
        DEFAULT_EXECUTIONS[backend], seed=SEED,
    )
    blob = repr((sorted(obs.outcomes.items()), obs.weak, obs.incomplete))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == HISTOGRAM_PINS[backend, name]


def test_collectors_observe_weak_states_the_model_allows(k20):
    """On MP the direct backend's weak rounds land exactly on the
    model's weak-only state (r1=1, r2=0) — soundness with bite."""
    test = get_test("MP")
    spec = TunedStress(shipped_params("K20"))
    obs = observed_outcomes(
        k20, test, 2 * k20.patch_size, spec, 60, seed=SEED
    )
    report = classify(test)
    weak_states = {
        s for s in obs.outcomes
        if report.verdict_of(dict(s[0]), dict(s[1])) == "weak"
    }
    assert weak_states == {((("r1", 1), ("r2", 0)), (("x", 1), ("y", 1)))}


def test_sc_reference_is_actually_restrictive(sc_ref):
    """The SC-only assertion is meaningful: the same budget on K20
    observes non-SC states, the reference chip none."""
    test = get_test("MP")
    spec = TunedStress(shipped_params(SC_REFERENCE.short_name))
    obs = observed_outcomes(
        sc_ref, test, 2 * sc_ref.patch_size, spec, 40, seed=SEED
    )
    report = classify(test)
    assert all(
        report.verdict_of(dict(s[0]), dict(s[1])) == "sc"
        for s in obs.outcomes
    )
