"""An event naming a bus or a negative processor id is rejected, not served.

``SimulationEngine.run`` and ``run_fleet`` reject such an event with the
:class:`~repro.errors.WorkloadError` that ``EngineStream.validate`` raises,
before any event is served (under a trace, before the event's span).
Under the compiled backend these ids used to crash the interpreter inside
the kernels, so the cc cases run in one child process, one JSON line per
finished case: a crash shows up as failed cases, not as a dead test run.
Run as a script, this file prints those lines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import kernels
from repro.core.placement import Placement
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestSequence
from repro.network.builders import balanced_tree
from repro.network.mutation import ChurnTrace, SetBusBandwidth
from repro.sim.engine import SimulationEngine

SRC = Path(__file__).resolve().parents[2] / "src"

#: (engine entry point, strategy, bad processor id, with a churn trace)
CASES = [
    (engine, kind, bad, traced)
    for engine in ("run", "run_fleet")
    for kind in ("static", "edge-counter")
    for bad in (0, -1)
    for traced in (False, True)
]
REJECTED = {"raised": "WorkloadError", "untouched": True}


def serve_bad_id(engine: str, kind: str, bad: int, traced: bool) -> dict:
    """Serve the events of processors ``[5, bad, 6]`` on ``balanced_tree(2,
    2, 2)`` (buses 0-2, processors 3-6); report the exception raised and
    whether any load or cost was charged."""
    net = balanced_tree(2, 2, 2)
    if kind == "static":
        strategy = StaticPlacementManager(net, Placement([[3], [6, 4]]))
    else:
        strategy = EdgeCounterManager(net, 2)
    sequence = RequestSequence.from_columns(
        np.array([5, bad, 6]), np.array([0, 1, 1]), np.array([False, True, False]), 2
    )
    # the mutation lands after the span holding the bad event
    trace = ChurnTrace([(2, SetBusBandwidth(0, 2.0))]) if traced else None
    raised = None
    try:
        if engine == "run":
            SimulationEngine(strategy).run(sequence, trace)
        else:
            SimulationEngine.run_fleet([strategy], sequence, trace)
    except Exception as exc:  # reported, not raised: the child prints it
        raised = type(exc).__name__
    account = strategy.account
    untouched = not (
        np.any(account.state.edge_loads)
        or np.any(account.state.bus_loads)
        or account.service_units
        or account.management_units
    )
    return {"raised": raised, "untouched": untouched}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_numpy_backend_rejects(case):
    with kernels.use_backend("numpy"):
        assert serve_bad_id(*case) == REJECTED


@pytest.fixture(scope="module")
def cc_results():
    if "cc" not in kernels.available_backends():
        pytest.skip("no C compiler on PATH")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__],
        env=dict(os.environ, REPRO_BACKEND="cc", PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    results = {}
    for line in child.stdout.splitlines():
        record = json.loads(line)
        results[tuple(record.pop("case"))] = record
    return results, child.returncode, child.stderr[-800:]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_cc_backend_rejects(cc_results, case):
    results, status, stderr = cc_results
    assert case in results, (
        f"the cc child exited with status {status} before this case: {stderr}"
    )
    assert results[case] == REJECTED


if __name__ == "__main__":
    for case in CASES:
        print(json.dumps({"case": case, **serve_bad_id(*case)}), flush=True)
