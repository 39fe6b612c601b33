"""Self-test of the benchmark at a tiny input size (seconds per workload).

    python -m pytest perfbench/tests -q

Checks that every declared metric is printed with its unit, that a
corrupted output is reported as a failed operation, and that the offline
records do not depend on the kernel backend (compiled equals reference).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture
def pinned(monkeypatch):
    for key, value in common.child_env().items():
        monkeypatch.setenv(key, value)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_tampered_served_summary_is_a_failed_operation(tmp_path, monkeypatch, pinned):
    finish = served.Session.finish

    def tampered_finish(session):
        summary = finish(session)
        return dict(summary, congestion=summary["congestion"] + 1.0)

    monkeypatch.setattr(served.Session, "finish", tampered_finish)
    args = run.build_parser(DECLARED).parse_args(
        ["--workload", "served-b32", "--seed", "3", "--seconds", "1", "--size", "tiny"]
    )
    out = run.Outcome()
    run.run_served(args, out, tmp_path)
    assert out.failed > 0
    assert any("replay" in note for note in out.notes if note.startswith("FAILED"))


def test_offline_records_check_catches_an_inconsistent_record(pinned):
    import offline

    record = {"strategy": "s", "n_events": 10, "served": 9, "dropped": 0,
              "repair_consistent": True}
    assert offline.check_records([dict(record, served=10)]) == []
    assert offline.check_records([record]) != []
    assert offline.check_records([dict(record, served=10, repair_consistent=False)]) != []


@pytest.mark.parametrize("workload", ["offline-static", "offline-adaptive-churn"])
def test_offline_records_are_identical_under_the_numpy_backend(workload):
    digests = {}
    for backend in ("cc", "numpy"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "offline.py"), "--workload", workload,
             "--seed", "3", "--rep", "0", "--size", "tiny"],
            cwd=ROOT, env=common.child_env(REPRO_BACKEND=backend),
            capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["backend"] == backend and result["failures"] == []
        digests[backend] = result["digest"]
    assert digests["cc"] == digests["numpy"]
