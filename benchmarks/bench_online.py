"""E9 -- online streaming replay: event loop vs. incremental vs. batch.

The dynamic model (Section 1.3 of the paper, following [MMVW97]/[MVW99])
serves request sequences online.  Since the load-state refactor all replay
layers charge into the incremental :class:`repro.core.loadstate.LoadState`
engine; this benchmark measures the three replay modes against each other
on the streaming read pattern (congestion sampled after every event):

* **event/reference** -- the retained pre-refactor scalar account
  (``ReferenceOnlineCostAccount``): Python loops per path, full edge/bus
  rescans per congestion read;
* **event/incremental** -- the same event loop on the incremental engine
  (one fused pair charge per request, lazily-repaired running max per
  read);
* **batch** -- whole-sequence chunks through the path-incidence operator
  (exact for the non-adapting static reference).

Both event modes run the scalar serve loop of ``tests/scalar_oracle.py``.
All three modes produce bit-for-bit identical loads; the property tests in
``tests/properties/test_loadstate_properties.py`` assert that, and the
assertions here double-check it on the benchmark scenarios.  The speedup
gate at the bottom enforces the headline number: incremental replay at
least 20x faster than the pre-refactor event loop on the largest trace.

It also keeps the strategy-level E9 measurements (adaptive edge-counter vs
hindsight-static) that feed EXPERIMENTS.md.
"""

import os
import time

import numpy as np
import pytest

from repro.core.extended_nibble import extended_nibble
from repro.dynamic.evaluate import empirical_competitive_ratio, evaluate_strategies
from repro.dynamic.online import StaticPlacementManager
from repro.dynamic.sequence import phase_change_sequence, sequence_from_pattern
from repro.network.builders import balanced_tree
from repro.workload.generators import uniform_pattern, zipf_pattern
from repro.workload.traces import producer_consumer_trace
from tests.scalar_oracle import ReferenceOnlineCostAccount, serve

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

# replay scenarios: (tree dims, n_objects, requests per processor)
SCENARIOS = {
    "small": ((2, 3, 2), 32, 32),
    "large": ((3, 5, 3), 64, 64),
}
_cache = {}


def replay_scenario(name):
    """Build (network, placement, sequence) for a named trace scenario."""
    if name not in _cache:
        dims, n_objects, requests = SCENARIOS[name]
        net = balanced_tree(*dims)
        pattern = zipf_pattern(
            net, n_objects, requests_per_processor=requests, seed=0
        )
        seq = sequence_from_pattern(net, pattern, seed=1)
        placement = extended_nibble(net, pattern).placement
        _cache[name] = (net, placement, seq)
    return _cache[name]


def stream_replay(net, placement, seq, account=None):
    """Event-by-event replay sampling the congestion after every event."""
    manager = StaticPlacementManager(net, placement, account=account)
    for event in seq:
        serve(manager, event)
        _ = manager.account.congestion
    return manager.account


def batch_replay(net, placement, seq):
    """Whole-sequence batch replay through the path-incidence operator."""
    manager = StaticPlacementManager(net, placement)
    manager.run(seq)
    _ = manager.account.congestion
    return manager.account


# --------------------------------------------------------------------------- #
# replay-mode benchmarks
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="E9-replay")
def test_replay_event_reference_small(benchmark):
    net, placement, seq = replay_scenario("small")
    account = benchmark.pedantic(
        stream_replay,
        args=(net, placement, seq),
        kwargs={"account": ReferenceOnlineCostAccount(net)},
        rounds=3,
        iterations=1,
    )
    assert account.congestion > 0


@pytest.mark.benchmark(group="E9-replay")
def test_replay_event_incremental_small(benchmark):
    net, placement, seq = replay_scenario("small")
    account = benchmark.pedantic(
        stream_replay, args=(net, placement, seq), rounds=3, iterations=1
    )
    reference = stream_replay(
        net, placement, seq, account=ReferenceOnlineCostAccount(net)
    )
    assert np.array_equal(account.edge_loads, reference.edge_loads)
    assert account.congestion == reference.congestion


@pytest.mark.benchmark(group="E9-replay")
def test_replay_batch_small(benchmark):
    net, placement, seq = replay_scenario("small")
    account = benchmark.pedantic(
        batch_replay, args=(net, placement, seq), rounds=3, iterations=1
    )
    eventwise = stream_replay(net, placement, seq)
    assert np.array_equal(account.edge_loads, eventwise.edge_loads)
    assert account.service_units == eventwise.service_units


@pytest.mark.benchmark(group="E9-replay")
@pytest.mark.skipif(QUICK, reason="large trace scenario is skipped in quick mode")
def test_replay_event_incremental_large(benchmark):
    net, placement, seq = replay_scenario("large")
    account = benchmark.pedantic(
        stream_replay, args=(net, placement, seq), rounds=2, iterations=1
    )
    assert account.congestion > 0


@pytest.mark.benchmark(group="E9-replay")
@pytest.mark.skipif(QUICK, reason="large trace scenario is skipped in quick mode")
def test_replay_batch_large(benchmark):
    net, placement, seq = replay_scenario("large")
    account = benchmark.pedantic(
        batch_replay, args=(net, placement, seq), rounds=2, iterations=1
    )
    eventwise = stream_replay(net, placement, seq)
    assert np.array_equal(account.edge_loads, eventwise.edge_loads)


def test_incremental_speedup_over_event_loop():
    """Gate the headline number of the load-state refactor.

    On the largest trace scenario the incremental engine must replay (with
    per-event congestion reads) at least 20x faster than the retained
    pre-refactor event loop.  Quick mode uses the small scenario, where the
    fixed numpy call overhead dominates, and gates a conservative 2x.
    """
    name = "small" if QUICK else "large"
    floor = 2.0 if QUICK else 20.0
    # quick mode compares millisecond-scale runs on possibly contended CI
    # runners: take best-of-3 per side so one scheduler hiccup cannot fail
    # the gate; the large scenario runs for seconds and needs no repeats
    repeats = 3 if QUICK else 1
    net, placement, seq = replay_scenario(name)

    reference = incremental = None
    ref_time = inc_time = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference = stream_replay(
            net, placement, seq, account=ReferenceOnlineCostAccount(net)
        )
        t1 = time.perf_counter()
        incremental = stream_replay(net, placement, seq)
        t2 = time.perf_counter()
        ref_time = min(ref_time, t1 - t0)
        inc_time = min(inc_time, t2 - t1)

    assert np.array_equal(incremental.edge_loads, reference.edge_loads)
    assert incremental.congestion == reference.congestion
    speedup = ref_time / max(inc_time, 1e-12)
    print(
        f"\nE9 replay [{name}]: {len(seq)} events, reference {ref_time:.3f}s, "
        f"incremental {inc_time:.3f}s -> {speedup:.1f}x"
    )
    assert speedup >= floor, (
        f"incremental replay only {speedup:.1f}x faster than the "
        f"pre-refactor event loop (gate: {floor:.0f}x)"
    )


# --------------------------------------------------------------------------- #
# strategy-level E9 measurements (feed EXPERIMENTS.md)
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="E9-online")
def test_e9_stationary_workload(benchmark, report_table):
    net = balanced_tree(2, 2, 2)
    pattern = uniform_pattern(net, 24, requests_per_processor=24, seed=0)
    seq = sequence_from_pattern(net, pattern, seed=1)

    records = benchmark(evaluate_strategies, net, seq, None, 4)
    report_table("E9: online strategies, stationary workload", [r.as_dict() for r in records])
    by_name = {r.strategy: r for r in records}
    assert by_name["edge-counter"].congestion <= 6 * by_name["hindsight-static"].congestion


@pytest.mark.benchmark(group="E9-online")
def test_e9_phase_change_workload(benchmark, report_table):
    net = balanced_tree(2, 2, 2)
    phases = [
        producer_consumer_trace(net, n_channels=12, items_per_channel=16, seed=s)
        for s in (0, 7)
    ]
    seq = phase_change_sequence(net, phases, seed=1)

    records = benchmark(evaluate_strategies, net, seq, None, 3)
    report_table("E9: online strategies, phase-changing workload", [r.as_dict() for r in records])
    by_name = {r.strategy: r for r in records}
    # adapting never costs much more than refusing to adapt
    assert by_name["edge-counter"].total_load <= 1.5 * by_name["first-touch"].total_load


@pytest.mark.benchmark(group="E9-online")
@pytest.mark.parametrize("object_size", [1, 4, 16])
def test_e9_rent_or_buy_threshold(benchmark, object_size):
    """Sweep the replication threshold (rent-or-buy trade-off)."""
    net = balanced_tree(2, 2, 2)
    pattern = uniform_pattern(net, 16, requests_per_processor=24, seed=2)
    seq = sequence_from_pattern(net, pattern, seed=3)

    ratio = benchmark(
        empirical_competitive_ratio, net, seq, object_size, "total_load"
    )
    print(f"\nE9 rent-or-buy: object_size={object_size} total-load ratio={ratio:.2f}")
    assert ratio >= 1.0 - 1e-9
