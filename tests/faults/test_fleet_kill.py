"""Worker-kill chaos: pool recovery under real (fleet) sweep load.

The ``parallel.worker`` fault point dies with SIGKILL inside a pool
worker -- the genuine BrokenProcessPool scenario.  The plan reaches the
workers through ``REPRO_FAULT_PLAN`` in the environment, and the
cross-process ``once`` sentinel guarantees exactly one kill per run, so
a sweep must recover (replace the pool, resubmit the unfinished jobs)
and still produce a registry byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.lab.registry import (
    LabRegistry,
    run_missing,
    scenario_entry,
    tournament_entry,
)
from repro.parallel import iter_jobs, run_jobs, shutdown_pools
from repro.sim.scenario import scenario_spec


def _square(value):
    return value * value


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Workers must fork after the plan lands in the environment."""
    shutdown_pools()
    yield
    shutdown_pools()


def arm_kill_plan(monkeypatch, sentinel) -> None:
    plan = FaultPlan(
        seed=0,
        rules=(
            FaultRule(site="parallel.worker", kind="kill", once=str(sentinel)),
        ),
    )
    monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
    faults.reset()  # parent re-arms lazily from the env it just set


class TestKilledWorker:
    def test_run_jobs_recovers_from_an_injected_kill(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "claimed"
        arm_kill_plan(monkeypatch, sentinel)
        assert run_jobs(2, _square, [(i,) for i in range(6)]) == [
            i * i for i in range(6)
        ]
        assert sentinel.exists()  # the kill really fired

    def test_iter_jobs_recovers_and_loses_no_results(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "claimed"
        arm_kill_plan(monkeypatch, sentinel)
        results = dict(iter_jobs(2, _square, [(i,) for i in range(8)]))
        assert results == {i: i * i for i in range(8)}
        assert sentinel.exists()


class TestFleetSweepSurvivesWorkerKill:
    def test_tournament_fleet_sweep_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        from repro.lab.tournament import tournament_spec

        suite = [
            tournament_entry(tournament_spec("zipf", seed=0, small=True), 0),
            scenario_entry(scenario_spec("storm", seed=0, small=True), 0),
        ]
        clean = LabRegistry(tmp_path / "clean")
        run_missing(clean, suite, parallel=2)

        sentinel = tmp_path / "claimed"
        arm_kill_plan(monkeypatch, sentinel)
        shutdown_pools()  # fresh workers, forked under the armed plan
        chaos = LabRegistry(tmp_path / "chaos")
        outcome = run_missing(chaos, suite, parallel=2)

        assert sentinel.exists()  # a worker really died mid-sweep
        assert sorted(outcome.executed) == sorted(
            entry.key.as_string() for entry in suite
        )
        # the recovered registry is a pure function of the suite: index
        # and every artifact byte-identical to the uninterrupted sweep
        assert chaos.index_path.read_bytes() == clean.index_path.read_bytes()
        for entry in suite:
            assert (
                chaos.artifact_path(entry.key).read_bytes()
                == clean.artifact_path(entry.key).read_bytes()
            )
