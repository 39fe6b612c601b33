"""Resume semantics: a killed sweep redoes only the unfinished entries.

The acceptance contract of `repro lab run-missing`: after k of n entries
complete, a re-run executes exactly n - k jobs, and the final registry is
byte-identical to an uninterrupted sweep -- across serial, parallel and
fleet execution modes.
"""

import pytest

from repro.errors import LabError
from repro.lab import registry as registry_mod
from repro.lab.registry import (
    LabRegistry,
    experiment_entry,
    run_missing,
    suite_entries,
)


def registry_bytes(registry):
    """Every file of a registry as relative-path -> bytes."""
    return {
        path.relative_to(registry.root).as_posix(): path.read_bytes()
        for path in sorted(registry.root.rglob("*.json"))
    }


@pytest.fixture(scope="session")
def uninterrupted(tmp_path_factory, tiny_suite):
    """The reference: one clean serial sweep over the tiny suite."""
    registry = LabRegistry(tmp_path_factory.mktemp("reference") / "reg")
    result = run_missing(registry, tiny_suite, parallel=1)
    assert result.n_executed == len(tiny_suite)
    return registry_bytes(registry)


class TestResume:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_then_resume_runs_only_the_missing(
        self, tmp_path, tiny_suite, uninterrupted, k
    ):
        registry = LabRegistry(tmp_path / "reg")
        first = run_missing(registry, tiny_suite[:k], parallel=1)
        assert first.n_executed == k
        resumed = run_missing(registry, tiny_suite, parallel=1)
        assert resumed.already_stored == k
        assert resumed.n_executed == len(tiny_suite) - k
        assert registry_bytes(registry) == uninterrupted

    def test_complete_registry_executes_nothing(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite, parallel=1)
        again = run_missing(registry, tiny_suite, parallel=1)
        assert again.n_executed == 0
        assert again.already_stored == len(tiny_suite)
        assert registry_bytes(registry) == uninterrupted

    def test_killed_sweep_keeps_finished_work(
        self, tmp_path, tiny_suite, uninterrupted, monkeypatch
    ):
        """Simulate a mid-sweep crash: the 3rd job dies, 2 artifacts survive."""
        registry = LabRegistry(tmp_path / "reg")
        real_execute = registry_mod._execute_entry
        calls = {"n": 0}

        def dying_execute(job_json):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("sweep killed")
            return real_execute(job_json)

        monkeypatch.setattr(registry_mod, "_execute_entry", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_missing(registry, tiny_suite, parallel=1)
        assert len(registry.missing(tiny_suite)) == len(tiny_suite) - 2

        monkeypatch.setattr(registry_mod, "_execute_entry", real_execute)
        resumed = run_missing(registry, tiny_suite, parallel=1)
        assert resumed.already_stored == 2
        assert resumed.n_executed == len(tiny_suite) - 2
        assert registry_bytes(registry) == uninterrupted

    def test_parallel_resume_matches_uninterrupted(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite[:2], parallel=1)
        resumed = run_missing(registry, tiny_suite, parallel=2)
        assert resumed.n_executed == len(tiny_suite) - 2
        assert registry_bytes(registry) == uninterrupted

    def test_dangling_index_entry_is_healed(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        # an artifact deleted out from under the index is re-run, not trusted
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite, parallel=1)
        registry.artifact_path(tiny_suite[0].key).unlink()
        healed = run_missing(registry, tiny_suite, parallel=1)
        assert healed.n_executed == 1
        assert registry_bytes(registry) == uninterrupted


class TestParallelDeterminism:
    def test_experiments_suite_parallel_byte_identical_to_serial(self, tmp_path):
        # the whole experiments suite (every seeded runner; E6 is excluded
        # because its records are wall-clock measurements)
        entries = suite_entries("experiments", seed=5, small=True)
        serial = LabRegistry(tmp_path / "serial")
        parallel = LabRegistry(tmp_path / "parallel")
        assert run_missing(serial, entries, parallel=1).n_executed == len(entries)
        assert run_missing(parallel, entries, parallel=4).n_executed == len(entries)
        assert registry_bytes(serial) == registry_bytes(parallel)


class TestFailureIsolation:
    def test_failure_keeps_earlier_artifacts(
        self, tmp_path, tiny_suite, monkeypatch
    ):
        from repro.analysis import experiments

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        # parallel=1 keeps the failure in-process so the monkeypatch applies
        monkeypatch.setitem(experiments.EXPERIMENT_RUNNERS, "E4", boom)
        registry = LabRegistry(tmp_path / "reg")
        with pytest.raises(LabError):
            run_missing(registry, tiny_suite, parallel=1)
        # everything before the failure is registered; the failed entry is not
        missing = registry.missing(tiny_suite)
        assert [e.name for e in missing] == ["E4"]

    def test_failed_experiment_is_isolated(
        self, tmp_path, tiny_suite, uninterrupted, monkeypatch
    ):
        # E1 fails; E4, which comes after it, still runs and registers
        from repro.analysis import experiments

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(experiments.EXPERIMENT_RUNNERS, "E1", boom)
        registry = LabRegistry(tmp_path / "reg")
        seed = next(e.seed for e in tiny_suite if e.name == "E1")
        message = (
            r"1 of 4 missing runs failed .*"
            rf"experiment E1 \(seed {seed}\) failed: RuntimeError: synthetic failure"
        )
        with pytest.raises(LabError, match=message):
            run_missing(registry, tiny_suite, parallel=1)
        assert [e.name for e in registry.missing(tiny_suite)] == ["E1"]

        monkeypatch.undo()
        resumed = run_missing(registry, tiny_suite, parallel=1)
        assert resumed.n_executed == 1
        assert registry_bytes(registry) == uninterrupted

    def test_parallel_failures_do_not_cancel_the_rest(self, tmp_path, tiny_suite):
        # an unknown experiment id fails deterministically in every worker;
        # the error names each failed entry in suite order
        broken = [experiment_entry("E98", 1), experiment_entry("E99", 2)]
        suite = [broken[0], *tiny_suite, broken[1]]
        registry = LabRegistry(tmp_path / "reg")
        with pytest.raises(LabError) as info:
            run_missing(registry, suite, parallel=2)
        message = str(info.value)
        assert message.startswith("2 of 6 missing runs failed")
        assert message.index("experiment E98 (seed 1)") < message.index(
            "experiment E99 (seed 2)"
        )
        assert registry.missing(suite) == broken
