"""Inputs, environment and process readers shared by the benchmark's scripts.

Everything here is benchmark-side: the program under test only ever sees
the scenario spec documents and the request event stream built below.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the checkout the benchmark runs from
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# The same process environment on every run: the compiled kernel backend
# with the benchmark's own kernel cache, single-threaded BLAS/OpenMP pools,
# a fixed str-hash seed, and no fault plan.
PINNED_ENV = {
    "REPRO_BACKEND": "cc",
    "REPRO_KERNEL_CACHE": str(BUILD / "kernels"),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# With two or more CPUs the process under test gets the last one to itself
# and the benchmark's own process keeps to the first: a served closed loop
# then always crosses the same two cores, which steadies server CPU per
# event (unpinned, the scheduler's placement moved it by about 10%).
_CPUS = sorted(os.sched_getaffinity(0))
NPROC = len(_CPUS)
BENCH_CPUS = {_CPUS[0]} if NPROC > 1 else set(_CPUS)
UNDER_TEST_CPUS = {_CPUS[-1]} if NPROC > 1 else set(_CPUS)


def pin_under_test() -> None:
    """``preexec_fn`` of every process under test (runs in the child)."""
    os.sched_setaffinity(0, UNDER_TEST_CPUS)


def child_env(**overrides: str) -> Dict[str, str]:
    """The environment for processes under test (``overrides`` win)."""
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


# --------------------------------------------------------------------------- #
# workload inputs
# --------------------------------------------------------------------------- #
# ~1e3 leaves: a balanced bus tree of arity 4 and depth 4 with 16
# processors per lowest-level bus (85 buses, 1024 processors).
NETWORK = {"builder": "balanced-tree", "args": {"arity": 4, "depth": 4, "leaves_per_bus": 16}}
TINY_NETWORK = {"builder": "balanced-tree", "args": {"arity": 2, "depth": 3, "leaves_per_bus": 4}}

SIZES = {
    # objects, requests per processor, mutations of the storm
    "full": {"static": (128, 48), "adaptive": (64, 24, 24), "served": (64, 16)},
    "tiny": {"static": (16, 8), "adaptive": (16, 8, 4), "served": (16, 8)},
}


def _seeds(*key: int) -> List[int]:
    """Three independent generator seeds for one input, derived from ``key``."""
    import numpy as np

    return [int(x) for x in np.random.SeedSequence(list(key)).generate_state(3)]


def _zipf(n_objects: int, rpp: int, write_fraction: float, seeds: List[int]) -> Dict:
    return {
        "kind": "pattern",
        "generator": "zipf",
        "args": {
            "n_objects": n_objects,
            "requests_per_processor": rpp,
            "write_fraction": write_fraction,
            "seed": seeds[0],
        },
        "sequence_seed": seeds[1],
    }


def offline_spec(workload: str, seed: int, rep: int, size: str) -> Dict:
    """The scenario-spec document of repetition ``rep`` of an offline run.

    Each repetition draws its own input from ``(seed, rep)``, so a run's
    median spans several traces and storm mixes rather than one.
    """
    network = NETWORK if size == "full" else TINY_NETWORK
    seeds = _seeds(seed, rep)
    if workload == "offline-static":
        n_objects, rpp = SIZES[size]["static"]
        return {
            "name": "bench-offline-static",
            "description": "stationary read-mostly Zipf trace, hindsight placement",
            "network": network,
            "workload": _zipf(n_objects, rpp, 0.1, seeds),
            "churn": [],
            "strategies": [{"kind": "hindsight-static"}],
        }
    if workload == "offline-adaptive-churn":
        n_objects, rpp, n_mutations = SIZES[size]["adaptive"]
        return {
            "name": "bench-offline-adaptive-churn",
            "description": "write-heavier Zipf trace under a mutation storm",
            "network": network,
            "workload": _zipf(n_objects, rpp, 0.3, seeds),
            "churn": [
                {
                    "generator": "mutation-storm",
                    "args": {
                        "n_mutations": n_mutations,
                        "start": {"events_div": 8},
                        "spacing": {"events_div": n_mutations + 8, "min": 1},
                        "seed": seeds[2],
                    },
                }
            ],
            "strategies": [{"kind": "edge-counter"}],
        }
    raise ValueError(f"not an offline workload: {workload}")


def served_spec(seed: int, size: str) -> Dict:
    """The spec every served session of a run is built from (hindsight-static)."""
    n_objects, rpp = SIZES[size]["served"]
    return {
        "name": "bench-served",
        "description": "read-mostly Zipf sessions, hindsight placement",
        "network": NETWORK if size == "full" else TINY_NETWORK,
        "workload": _zipf(n_objects, rpp, 0.1, _seeds(seed)),
        "churn": [],
        "strategies": [{"kind": "hindsight-static"}],
    }


class EventStream:
    """The served request stream: Zipf(1) objects, uniform processors,
    10% writes, drawn in order from one seeded generator."""

    def __init__(self, seed: int, processors: Sequence[int], n_objects: int) -> None:
        import numpy as np

        self._rng = np.random.default_rng([seed, 7])
        self._procs = np.asarray(processors, dtype=np.int64)
        weights = 1.0 / np.arange(1, n_objects + 1)
        self._probs = weights / weights.sum()

    def take(self, n: int) -> List[list]:
        rng = self._rng
        procs = self._procs[rng.integers(0, len(self._procs), n)].tolist()
        objs = rng.choice(len(self._probs), size=n, p=self._probs).tolist()
        kinds = ["w" if w else "r" for w in (rng.random(n) < 0.1).tolist()]
        return [list(row) for row in zip(procs, objs, kinds)]


# --------------------------------------------------------------------------- #
# process and host readers
# --------------------------------------------------------------------------- #
def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) of every thread of process ``pid``.

    Summed from each thread's ``schedstat`` (nanoseconds), so short phases
    are not quantised to the 10 ms ticks of ``/proc/<pid>/stat``.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
            total += int(fh.read().split()[0])
    return total / 1e9


def proc_peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def steal_pct(start: Tuple[int, int], end: Tuple[int, int]) -> float:
    total = end[1] - start[1]
    return 100.0 * (end[0] - start[0]) / total if total > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])


def emit(document: Dict) -> None:
    """Print one JSON result line and flush (the parent reads the last line)."""
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()
