"""Tests for the command-line interface."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import WorkloadError


def run_cli(args):
    stream = io.StringIO()
    code = main(args, stream=stream)
    return code, stream.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])


class TestGenerateAndInfo:
    def test_generate_balanced_network_and_info(self, tmp_path):
        out = tmp_path / "net.json"
        code, text = run_cli(
            [
                "generate-network",
                "--topology",
                "balanced",
                "--arity",
                "2",
                "--depth",
                "2",
                "--leaves-per-bus",
                "2",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "balanced network" in text

        code, text = run_cli(["info", str(out)])
        assert code == 0
        assert "n_processors" in text

    @pytest.mark.parametrize(
        "topology", ["single-bus", "star", "path", "fat-tree", "random"]
    )
    def test_all_topologies(self, tmp_path, topology):
        out = tmp_path / f"{topology}.json"
        code, _ = run_cli(
            ["generate-network", "--topology", topology, "-o", str(out)]
        )
        assert code == 0 and out.exists()


class TestWorkloadAndPlace:
    @pytest.fixture
    def instance_files(self, tmp_path):
        net_path = tmp_path / "net.json"
        wl_path = tmp_path / "wl.json"
        run_cli(
            ["generate-network", "--topology", "balanced", "--depth", "2", "-o", str(net_path)]
        )
        run_cli(
            [
                "generate-workload",
                "--network",
                str(net_path),
                "--kind",
                "zipf",
                "--objects",
                "8",
                "--requests",
                "16",
                "-o",
                str(wl_path),
            ]
        )
        return net_path, wl_path

    def test_generate_workload_kinds(self, tmp_path):
        net_path = tmp_path / "net.json"
        run_cli(["generate-network", "--topology", "single-bus", "-o", str(net_path)])
        for kind in ("uniform", "hotspot", "local", "counter", "web"):
            out = tmp_path / f"{kind}.json"
            code, text = run_cli(
                [
                    "generate-workload",
                    "--network",
                    str(net_path),
                    "--kind",
                    kind,
                    "--objects",
                    "6",
                    "-o",
                    str(out),
                ]
            )
            assert code == 0
            data = json.loads(out.read_text())
            assert data["format"] == "repro.workload/v1"

    def test_place_extended_nibble(self, instance_files, tmp_path):
        net_path, wl_path = instance_files
        out = tmp_path / "placement.json"
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                "extended-nibble",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "congestion" in text and "lower bound" in text
        data = json.loads(out.read_text())
        assert data["strategy"] == "extended-nibble"
        assert len(data["holders"]) == 8

    def test_place_with_local_search_refinement(self, instance_files):
        net_path, wl_path = instance_files
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                "extended-nibble",
                "--refine",
            ]
        )
        assert code == 0
        assert "local-search moves" in text
        assert "congestion before refine" in text

    @pytest.mark.parametrize("strategy", ["owner", "greedy", "full-replication"])
    def test_place_baselines(self, instance_files, strategy):
        net_path, wl_path = instance_files
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                strategy,
            ]
        )
        assert code == 0
        assert strategy in text


class TestExperimentSweep:
    """Whole experiment sweeps run through the lab."""

    def test_lab_run_missing_experiments_suite(self, tmp_path):
        root = tmp_path / "registry"
        code, text = run_cli(
            ["lab", "run-missing", "--suite", "experiments", "--small",
             "--registry", str(root)]
        )
        assert code == 0
        assert "suite experiments: 10 entries, 0 already stored, 10 executed" in text

    def test_small_and_large_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lab", "run-missing", "--suite", "experiments", "--small", "--large"]
            )

    @pytest.mark.parametrize("registry", [None, "lab/registry", "lab/../lab/registry"])
    def test_committed_registry_takes_only_the_ci_suite(
        self, tmp_path, monkeypatch, registry
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["lab", "run-missing", "--suite", "experiments", "--large"]
        if registry is not None:
            argv += ["--registry", registry]
        code, text = run_cli(argv)
        assert code == 2
        assert "holds only the ci suite" in text
        assert not (tmp_path / "lab").exists()

    @pytest.mark.parametrize(
        "argv", [[], ["--small", "--seed", "3"], ["--large"]], ids=["plain", "seed3", "large"]
    )
    def test_tournament_writes_only_ci_entries_into_the_committed_registry(
        self, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["tournament", *argv])
        assert code == 2
        assert "tournament: lab/registry holds only the ci suite" in text
        assert not (tmp_path / "lab").exists()

    def test_tournament_ci_entries_still_run_on_the_committed_registry(
        self, tmp_path, monkeypatch
    ):
        committed = Path(__file__).resolve().parents[1] / "lab" / "registry"
        shutil.copytree(committed, tmp_path / "lab" / "registry")
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["tournament", "--small", "--seed", "0"])
        assert code == 0
        assert "tournament: 10 entries, 10 already stored, 0 executed" in text

        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(tmp_path / "lab" / "registry") == files(committed)


class TestExperimentCommand:
    def test_experiment_e1(self):
        code, text = run_cli(["experiment", "E1"])
        assert code == 0
        assert "experiment E1" in text
        assert "ringlet" in text

    def test_experiment_e5_small(self):
        code, text = run_cli(["experiment", "E5", "--small"])
        assert code == 0
        assert "ratio_lb" in text

    def test_experiment_e9_small(self):
        code, text = run_cli(["experiment", "E9", "--small"])
        assert code == 0
        assert "hindsight-static" in text
        assert "phase-shift" in text

    def test_experiment_e10_small(self):
        code, text = run_cli(["experiment", "E10", "--small"])
        assert code == 0
        assert "flash-crowd" in text
        assert "storm" in text
        assert "hindsight-static" in text
        assert "repair_consistent" in text


class TestChurnScenarios:
    """The churn families (E10's building blocks) through `repro simulate`."""

    @pytest.mark.parametrize(
        "scenario", ["flash-crowd", "maintenance", "degradation", "storm"]
    )
    def test_simulate_churn_family(self, tmp_path, scenario):
        out = tmp_path / "sim.json"
        code, text = run_cli(
            ["simulate", "--scenario", scenario, "--small", "-o", str(out)]
        )
        assert code == 0
        assert "edge-counter" in text and "hindsight-static" in text
        records = json.loads(out.read_text())["records"]
        assert {rec["strategy"] for rec in records} >= {
            "hindsight-static", "edge-counter"
        }
        for rec in records:
            assert rec["served"] + rec["dropped"] == rec["n_events"]

    def test_unknown_scenario_rejected(self, tmp_path):
        out = tmp_path / "sim.json"
        with pytest.raises(KeyError, match="unknown scenario 'earthquake'"):
            run_cli(["simulate", "--scenario", "earthquake", "--small", "-o", str(out)])
        assert not out.exists()


class TestSimulateCommand:
    def test_list_scenarios(self):
        code, text = run_cli(["simulate", "--list"])
        assert code == 0
        for name in ("zipf", "storm", "adversarial-storm",
                     "flash-crowd-recovery", "fleet-sweep"):
            assert name in text

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_list_into_a_closed_pipe_exits_without_a_traceback(self, unbuffered):
        # `repro simulate --list | head -1`: the reader is gone before the
        # CLI writes (the deterministic form of head exiting early), with
        # stdout unbuffered (fails inside print) and buffered (fails at
        # the final flush)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "repro.cli", "simulate", "--list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert b"Traceback" not in child.stderr
        assert b"BrokenPipeError" not in child.stderr

    def test_refused_input_is_one_error_line_and_exit_2(self, tmp_path):
        # a journal header the engine refuses: the process prints one line
        # naming the error, and exits with the CLI's refused-input code,
        # not --check's mismatch code 1
        root = Path(__file__).resolve().parents[1]
        fixture = root / "tests" / "serve" / "data" / "storm-small-v1.jsonl"
        header, rest = fixture.read_text().split("\n", 1)
        header = json.loads(header)
        header["chunk_size"] = 2.5
        journal = tmp_path / "bad-chunk.jsonl"
        journal.write_text(json.dumps(header) + "\n" + rest)
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "repro.cli", "replay-stream", str(journal), "--check"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert child.returncode == 2
        assert child.stderr.splitlines() == [
            "repro: error: WorkloadError: chunk_size must be an integer of at "
            "least 1, got 2.5"
        ]
        # in process, the error still propagates
        with pytest.raises(WorkloadError, match="chunk_size"):
            main(["replay-stream", str(journal), "--check"], stream=io.StringIO())

    @pytest.mark.parametrize(
        "scenario", ["adversarial-storm", "flash-crowd-recovery", "fleet-sweep"]
    )
    def test_new_scenarios_end_to_end_with_artifact(self, tmp_path, scenario):
        out = tmp_path / "sim.json"
        code, text = run_cli(
            ["simulate", "--scenario", scenario, "--small", "-o", str(out)]
        )
        assert code == 0
        assert f"scenario {scenario}" in text
        data = json.loads(out.read_text())
        assert data["format"] == "repro.sim-result/v1"
        assert data["scenario"] == scenario
        from repro.core.kernels import active_backend

        assert data["backend"] == active_backend()
        assert data["spec"]["format"] == "repro.scenario-spec/v1"
        assert len(data["records"]) >= 2
        for rec in data["records"]:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]

    def test_spec_file_round_trip(self, tmp_path):
        from repro.sim.scenario import scenario_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scenario_spec("storm", seed=2, small=True).to_json())
        code, text = run_cli(["simulate", "--spec", str(spec_path)])
        assert code == 0
        assert "scenario storm" in text

    def test_requires_scenario_or_spec(self):
        code, text = run_cli(["simulate"])
        assert code == 2
        assert "--scenario" in text

    def test_scenario_and_spec_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--scenario", "storm", "--spec", "x.json"]
            )

    def test_spec_artifact_records_no_cli_seed(self, tmp_path):
        from repro.sim.scenario import scenario_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scenario_spec("zipf", seed=2, small=True).to_json())
        out = tmp_path / "out.json"
        code, _ = run_cli(["simulate", "--spec", str(spec_path), "-o", str(out)])
        assert code == 0
        # the CLI --seed default did not produce this run; the artifact must
        # not claim it did (the spec document carries its own seeds)
        assert json.loads(out.read_text())["seed"] is None

    def test_seedless_spec_is_byte_deterministic(self, tmp_path):
        # regression: specs omitting every optional seed used to fall back
        # to fresh OS entropy per run; missing seeds now derive from the
        # spec hash, so two runs must produce byte-identical artifacts
        from repro.sim.scenario import scenario_spec

        document = scenario_spec("storm", seed=2, small=True).to_dict()
        document["workload"]["args"].pop("seed", None)
        document["workload"].pop("sequence_seed", None)
        for entry in document["churn"] or []:
            entry["args"].pop("seed", None)
        spec_path = tmp_path / "seedless.json"
        spec_path.write_text(json.dumps(document))

        artifacts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _ = run_cli(["simulate", "--spec", str(spec_path), "-o", str(out)])
            assert code == 0
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]


class TestSimulateParallelAndFleet:
    def test_parallel_artifact_byte_identical_to_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        code, _ = run_cli(
            ["simulate", "--scenario", "fleet-sweep", "--small", "-o", str(serial)]
        )
        assert code == 0
        code, _ = run_cli(
            [
                "simulate", "--scenario", "fleet-sweep", "--small",
                "--parallel", "2", "-o", str(parallel),
            ]
        )
        assert code == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parallel_rejects_zero(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--scenario", "zipf", "--parallel", "0"]
            )


class TestServeCommands:
    def test_serve_loadgen_replay_check_round_trip(self, tmp_path):
        import socket
        import threading

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        spec_args = ["--scenario", "storm", "--small", "--seed", "0"]
        record_dir = tmp_path / "recordings"
        serve_result = {}

        def serve():
            serve_result["code"], serve_result["text"] = run_cli(
                ["serve", *spec_args, "--port", str(port),
                 "--sessions", "1", "--record-dir", str(record_dir)]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        report = tmp_path / "report.json"
        code, text = run_cli(
            ["loadgen", *spec_args, "--port", str(port),
             "--report", str(report)]
        )
        thread.join(timeout=30)
        assert code == 0
        assert "achieved" in text
        assert serve_result["code"] == 0
        assert "served 1 sessions" in serve_result["text"]
        stats = json.loads(report.read_text())
        assert stats["summary"]["n_events"] == stats["n_events"]

        (recording,) = record_dir.glob("session-*.jsonl")
        code, text = run_cli(["replay-stream", str(recording), "--check"])
        assert code == 0
        assert "bit-for-bit" in text

    def test_replay_stream_check_fails_on_partial_recording(self, tmp_path):
        from repro.serve import StreamRecorder
        from repro.sim.scenario import scenario_spec

        spec = scenario_spec("zipf", seed=0, small=True)
        path = tmp_path / "partial.jsonl"
        recorder = StreamRecorder(path)
        recorder.write_header(spec.to_dict(), "edge-counter", None, 8)
        recorder.abort("test")
        code, text = run_cli(["replay-stream", str(path), "--check"])
        assert code == 1
        assert "no served summary" in text

    def test_serve_requires_scenario_or_spec(self):
        code, text = run_cli(["serve"])
        assert code == 2
        assert "--scenario" in text


class TestLab:
    """The `repro lab` command group: run-missing, status, report, gc."""

    @pytest.fixture(scope="class")
    def ci_registry(self, tmp_path_factory):
        """A tmp registry populated once with the pinned ci suite."""
        root = tmp_path_factory.mktemp("lab") / "registry"
        code, text = run_cli(
            ["lab", "run-missing", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        return root, text

    def test_run_missing_populates_then_noops(self, ci_registry):
        root, first_text = ci_registry
        assert "0 already stored" in first_text
        code, text = run_cli(
            ["lab", "run-missing", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        assert "0 executed" in text

    def test_status_reports_stored_counts(self, ci_registry, tmp_path):
        from repro.core.kernels import active_backend

        root, _ = ci_registry
        code, text = run_cli(
            ["lab", "status", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        assert f"suite entries stored in {root}" in text
        assert f"(kernel backend: {active_backend()})" in text
        # a fresh registry stores nothing
        code, text = run_cli(
            ["lab", "status", "--registry", str(tmp_path / "empty"), "--suite", "ci"]
        )
        assert code == 0
        assert "0 of" in text

    def test_report_write_and_check_round_trip(self, ci_registry, tmp_path):
        root, _ = ci_registry
        results = tmp_path / "RESULTS.md"
        code, _ = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--write", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 0
        assert results.read_text().startswith("# Results")

        code, text = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--check", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 0
        assert "matches the registry artifacts" in text

        results.write_text(results.read_text() + "drifted\n")
        code, text = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--check", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1
        assert "out of date" in text

    def test_gc_of_complete_suite_is_noop(self, ci_registry):
        root, _ = ci_registry
        code, text = run_cli(
            ["lab", "gc", "--registry", str(root), "--suite", "ci", "--dry-run"]
        )
        assert code == 0
        assert "would remove 0 stored runs" in text

    def test_write_and_check_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lab", "report", "--write", "--check"])
