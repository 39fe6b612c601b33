"""Tests for the declarative scenario registry (spec, JSON, building, running)."""

import dataclasses
import json

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.sim.scenario import (
    SCENARIO_FAMILIES,
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_spec,
)

NEW_FAMILIES = ("adversarial-storm", "flash-crowd-recovery", "fleet-sweep")


class TestRegistry:
    def test_all_families_registered(self):
        names = list_scenarios()
        # the re-expressed E9 + E10 suites ...
        for name in ("zipf", "adversarial", "phase-shift",
                     "flash-crowd", "maintenance", "degradation", "storm"):
            assert name in names
        # ... plus the new families
        for name in NEW_FAMILIES:
            assert name in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            scenario_spec("earthquake")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError):
            register_scenario("zipf", SCENARIO_FAMILIES["zipf"])


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIO_FAMILIES))
    def test_json_round_trip_is_lossless(self, name):
        spec = scenario_spec(name, seed=3, small=True)
        text = spec.to_json(indent=2)
        restored = ScenarioSpec.from_json(text)
        # the JSON document is stable under a second round trip
        assert restored.to_json(indent=2) == text
        assert json.loads(text)["format"] == "repro.scenario-spec/v1"

    @pytest.mark.parametrize("name", ["storm", "flash-crowd-recovery"])
    def test_round_tripped_spec_builds_identical_scenario(self, name):
        spec = scenario_spec(name, seed=5, small=True)
        (direct,) = build_scenario(spec)[:1]
        (restored,) = build_scenario(ScenarioSpec.from_json(spec.to_json()))[:1]
        assert direct.sequence.events == restored.sequence.events
        assert direct.trace.mutations == restored.trace.mutations
        assert direct.network.n_nodes == restored.network.n_nodes

    def test_explicitly_empty_sections_survive_round_trip(self):
        spec = ScenarioSpec(
            name="bare",
            description="",
            network={"builder": "single-bus", "args": {"n_processors": 4}},
            workload={"kind": "pattern", "generator": "uniform",
                      "args": {"n_objects": 4, "seed": 0}, "sequence_seed": 1},
            strategies=({"kind": "edge-counter"},),
            sinks=(),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.sinks == ()
        assert restored.strategies == ({"kind": "edge-counter"},)
        (record,) = run_scenario(restored)
        assert "trajectory" not in record  # no sinks were attached

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioSpec.from_dict({"format": "bogus/v9", "name": "x",
                                    "network": {}, "workload": {}})

    def test_unknown_component_keys_rejected(self):
        spec = ScenarioSpec(
            name="broken",
            description="",
            network={"builder": "moebius-strip"},
            workload={"kind": "pattern", "generator": "zipf",
                      "args": {"n_objects": 4}},
        )
        with pytest.raises(SimulationError, match="network builder"):
            build_scenario(spec)


class TestBuildAndRun:
    def test_seed_changes_sequence(self):
        a = build_scenario(scenario_spec("zipf", seed=0, small=True))[0]
        b = build_scenario(scenario_spec("zipf", seed=1, small=True))[0]
        assert a.sequence.events != b.sequence.events

    def test_fleet_sweep_builds_multiple_sizes(self):
        built = build_scenario(scenario_spec("fleet-sweep", small=True))
        assert len(built) >= 2
        sizes = [b.network.n_processors for b in built]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
        labels = [b.label for b in built]
        assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_new_families_run_end_to_end(self, name):
        records = run_scenario(scenario_spec(name, seed=0, small=True))
        assert records
        for rec in records:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]
            assert rec["congestion"] >= 0
            assert len(rec["trajectory"]) >= 1

    def test_flash_crowd_recovery_drops_late_crowd_requests(self):
        records = run_scenario(scenario_spec("flash-crowd-recovery", seed=0, small=True))
        # the crowd departs before the trace ends, so some of its requests drop
        assert all(rec["dropped"] > 0 for rec in records)
        # and the crowd is gone from the final network
        base = build_scenario(scenario_spec("flash-crowd-recovery", seed=0, small=True))[0]
        assert all(
            rec["n_processors_final"] == base.network.n_processors for rec in records
        )

    def test_adversarial_storm_applies_mutations(self):
        records = run_scenario(scenario_spec("adversarial-storm", seed=0, small=True))
        assert all(rec["n_mutations"] > 0 for rec in records)

    def test_first_touch_strategy_kind(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "strategies": [{"kind": "first-touch"}]}
        )
        (record,) = run_scenario(spec)
        assert record["strategy"] == "first-touch"
        # never adapting means no management traffic at all
        assert record["management_load"] == 0


    def test_fractional_strategy_parameter_is_rejected(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        spec = ScenarioSpec.from_dict(
            {
                **spec.to_dict(),
                "strategies": [{"kind": "edge-counter", "args": {"object_size": 2.5}}],
            }
        )
        with pytest.raises(WorkloadError, match="object_size"):
            run_scenario(spec)


def _oracle_specs():
    """Every registered family and the tournament suite, at ``--small``."""
    from repro.lab.registry import suite_entries

    specs = [
        pytest.param(scenario_spec(name, seed=0, small=True), id=name)
        for name in list_scenarios()
    ]
    specs += [
        pytest.param(ScenarioSpec.from_dict(entry.document), id=entry.name)
        for entry in suite_entries("tournament", seed=0, small=True)
    ]
    return specs


def _each_strategy_alone(spec):
    """The records of every strategy replayed alone through ``run``."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.scenario import _strategy_record

    records = []
    for built in build_scenario(spec):
        for sname, factory in built.strategies:
            engine = SimulationEngine(factory(), sinks=built.make_sinks())
            result = engine.run(built.sequence, built.trace)
            records.append(_strategy_record(built, sname, result))
    return records


class TestFleetAndParallel:
    """The stacked replay and the worker-pool sweep path must be
    invisible in the records: identical content for any mode."""

    @pytest.mark.parametrize("spec", _oracle_specs())
    def test_stacked_records_equal_each_strategy_alone(self, spec):
        assert json.dumps(run_scenario(spec)) == json.dumps(
            _each_strategy_alone(spec)
        )

    def test_parallel_records_equal_serial(self):
        spec = scenario_spec("fleet-sweep", seed=0, small=True)
        serial = run_scenario(spec)
        assert json.dumps(serial) == json.dumps(run_scenario(spec, parallel=2))

    def test_parallel_with_churn_scenario(self):
        spec = dataclasses.replace(
            scenario_spec("storm", seed=1, small=True),
            sweep=({"label": "s"}, {"label": "m", "network_args": {"depth": 3}}),
        )
        serial = run_scenario(spec)
        assert {record["label"] for record in serial} == {"storm/s", "storm/m"}
        assert json.dumps(serial) == json.dumps(run_scenario(spec, parallel=2))

    def test_one_entry_spec_runs_in_process(self, monkeypatch):
        import repro.parallel

        def refuse(*args, **kwargs):
            raise AssertionError("a one-entry spec reached the process pool")

        monkeypatch.setattr(repro.parallel, "run_jobs", refuse)
        spec = scenario_spec("storm", seed=1, small=True)
        assert json.dumps(run_scenario(spec, parallel=2)) == json.dumps(run_scenario(spec))

    def test_parallel_rejects_bad_worker_count(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        with pytest.raises(ValueError):
            run_scenario(spec, parallel=0)
