"""The experiment sweep: `repro lab run-missing --suite experiments`.

Per-experiment seeding, the natural id order behind it, the one
signature adapter (`run_experiment`) and the suite knobs.  The
parallel-sweep determinism of the whole suite lives in
``test_resume.py``.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    EXPERIMENT_IDS,
    experiment_deletion_invariants,
    experiment_nibble_optimality,
    run_experiment,
)
from repro.lab.registry import (
    LabRegistry,
    experiment_entry,
    experiment_seeds,
    run_missing,
    suite_entries,
)


class TestSeeds:
    def test_deterministic(self):
        assert experiment_seeds(0, EXPERIMENT_IDS) == experiment_seeds(
            0, EXPERIMENT_IDS
        )

    def test_seed_independent_of_peer_selection(self):
        full = experiment_seeds(7, EXPERIMENT_IDS)
        subset = experiment_seeds(7, ["E4", "E7"])
        assert subset["E4"] == full["E4"]
        assert subset["E7"] == full["E7"]

    def test_base_seed_changes_seeds(self):
        assert experiment_seeds(0, ["E1"]) != experiment_seeds(1, ["E1"])

    def test_natural_id_order(self):
        # E10/E11 sort after E9, so E1..E9 keep their entropy indices (and
        # therefore their per-experiment seeds) from before they existed
        assert list(EXPERIMENT_IDS[:9]) == [f"E{i}" for i in range(1, 10)]
        assert list(EXPERIMENT_IDS[9:]) == ["E10", "E11"]


class TestRunExperiment:
    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99", 0)

    def test_returns_records(self):
        for exp_id in ("E1", "E4"):
            records = run_experiment(exp_id, 0, small=True)
            assert len(records) > 0
            assert all(isinstance(rec, dict) for rec in records)

    def test_passes_only_the_knobs_a_runner_takes(self, monkeypatch):
        def runner(seed=0, large=False):
            return [{"seed": seed, "large": large}]

        monkeypatch.setitem(experiments.EXPERIMENT_RUNNERS, "E1", runner)
        assert run_experiment("E1", 7, small=True) == [{"seed": 7, "large": False}]
        assert run_experiment("E1", 7, large=True) == [{"seed": 7, "large": True}]

    def test_seeds_block_keeps_the_default_width(self, monkeypatch):
        def five(seeds=(0, 1, 2, 3, 4)):
            return [{"seeds": seeds}]

        monkeypatch.setitem(experiments.EXPERIMENT_RUNNERS, "E1", five)
        assert run_experiment("E1", 7) == [{"seeds": (7, 8, 9, 10, 11)}]

    def test_seed_zero_reproduces_runner_defaults(self):
        # `repro experiment` passes seed 0: the `seeds` block of E3/E4
        # keeps the width of the runner's default and starts at the seed
        assert run_experiment("E3", 0) == experiment_nibble_optimality()
        assert run_experiment("E4", 2) == experiment_deletion_invariants(
            seeds=(2, 3, 4, 5)
        )


class TestExperimentSuite:
    @pytest.mark.parametrize("suite", ["ci", "scenarios", "experiments", "full"])
    def test_small_and_large_mutually_exclusive(self, suite):
        with pytest.raises(ValueError, match="mutually exclusive"):
            suite_entries(suite, small=True, large=True)

    def test_natural_order_without_e6(self):
        # E6 records wall-clock runtimes, so it has no registry entry; the
        # others keep their natural-order seeds from the full id list
        seeds = experiment_seeds(5, EXPERIMENT_IDS)
        entries = suite_entries("experiments", seed=5, small=True)
        assert [e.name for e in entries] == [i for i in EXPERIMENT_IDS if i != "E6"]
        assert [e.seed for e in entries] == [seeds[e.name] for e in entries]

    def test_registry_records_match_run_experiment(self, tmp_path):
        seeds = experiment_seeds(0, ["E1", "E4"])
        entries = [
            experiment_entry(exp_id, seeds[exp_id], small=True)
            for exp_id in ("E1", "E4")
        ]
        registry = LabRegistry(tmp_path / "reg")
        assert run_missing(registry, entries, parallel=1).n_executed == 2
        for entry in entries:
            assert registry.get(entry.key)["records"] == run_experiment(
                entry.name, entry.seed, small=True
            )
