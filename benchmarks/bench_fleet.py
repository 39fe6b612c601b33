"""Fleet replay: one stacked pass vs. sequential per-strategy replay.

The paper's central experiment shape is comparative -- the same request
timeline replayed under a whole family of placement strategies.  Run
strategy by strategy, a K-strategy scenario pays K timeline decodes and K
chunk aggregations over the *same* events.
:meth:`repro.sim.engine.SimulationEngine.run_fleet` stacks the K cost
accounts as lanes of one :class:`~repro.core.loadstate.StackedLoadState`
and decodes the timeline once; a static fleet then shares each chunk's
aggregation (unique ``(processor, object)`` pairs with multiplicities) and
its per-object write counts, and each lane makes its own gather, pair
charge and Steiner column from its placement's two tables.

This benchmark measures both sides on an 8-placement static fleet (the
extended-nibble hindsight reference plus the full baseline family) and
gates the headline number: on the largest scenario the stacked pass must
be at least **1.7x** faster than sequential per-strategy replay.  Both
sides time *replay only* -- strategies are freshly built (and their
placement-derived caches warmed) outside the timed region, identically
for both arms -- and take best-of-N so a scheduler hiccup cannot fail
the gate.  Bit-for-bit result equality between the two arms is asserted
on every run (the differential suite in
``tests/properties/test_fleet_parity.py`` covers the full matrix).

The **adaptive-fleet** group does the same for 8 differently-tuned
:class:`~repro.dynamic.online.EdgeCounterManager` lanes: the batched
group path (shared chunk decode and nearest-table build, per-lane
two-phase counter replay) against the pre-batching scalar event loop
(``tests/scalar_oracle.py``), gated at **3x** on the largest scenario and recorded into
``BENCH_history.json`` as ``pr9-adaptive-fleet``.
"""

import os
import time

import numpy as np
import pytest

from repro.core.baselines import (
    full_replication_placement,
    greedy_congestion_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import sequence_from_pattern
from repro.network.builders import balanced_tree
from repro.sim.engine import SimulationEngine
from repro.workload.generators import zipf_pattern
from tests.scalar_oracle import serve_events

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

# replay scenarios (dims kept in sync with bench_online.py / bench_sim.py)
SCENARIOS = {
    "small": ((2, 3, 2), 32, 32),
    "large": ((3, 5, 3), 64, 64),
}
_cache = {}


def fleet_scenario(name):
    """Build (network, sequence, placements) for an 8-strategy fleet."""
    if name not in _cache:
        dims, n_objects, requests = SCENARIOS[name]
        net = balanced_tree(*dims)
        pattern = zipf_pattern(
            net, n_objects, requests_per_processor=requests, seed=0
        )
        seq = sequence_from_pattern(net, pattern, seed=1)
        placements = [
            extended_nibble(net, pattern).placement,
            owner_placement(net, pattern),
            median_leaf_placement(net, pattern),
            greedy_congestion_placement(net, pattern),
            full_replication_placement(net, pattern),
            random_placement(net, pattern, seed=0),
            random_placement(net, pattern, seed=1),
            random_placement(net, pattern, seed=2),
        ]
        _cache[name] = (net, seq, placements)
    return _cache[name]


def build_managers(name):
    """Fresh static managers for every placement, tables prebuilt.

    Manager construction and each placement's two tables (nearest-copy
    rows and write-broadcast Steiner edge CSR) are deliberately outside
    the timed region: both arms replay with identically warm strategies,
    so the measured ratio isolates the replay architecture.
    """
    net, _, placements = fleet_scenario(name)
    managers = [StaticPlacementManager(net, pl) for pl in placements]
    for manager in managers:
        manager.tables()
    return managers


def sequential_replay(managers, seq):
    """The pre-fleet path: one full engine run per strategy."""
    return [SimulationEngine(manager).run(seq) for manager in managers]


def fleet_replay(managers, seq):
    """The stacked path: one timeline decode, K lanes, shared scatters."""
    return SimulationEngine.run_fleet(managers, seq)


def _assert_fleet_parity(seq_results, fleet_results):
    for a, b in zip(seq_results, fleet_results):
        assert np.array_equal(a.account.edge_loads, b.account.edge_loads)
        assert a.account.congestion == b.account.congestion
        assert a.account.service_units == b.account.service_units
        assert a.account.management_units == b.account.management_units


# --------------------------------------------------------------------------- #
# sequential-vs-fleet benchmarks
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="fleet-replay")
def test_sequential_fleet_small(benchmark):
    net, seq, _ = fleet_scenario("small")
    results = benchmark.pedantic(
        sequential_replay,
        setup=lambda: ((build_managers("small"), seq), {}),
        rounds=3,
        iterations=1,
    )
    assert results[0].account.congestion > 0


@pytest.mark.benchmark(group="fleet-replay")
def test_fleet_replay_small(benchmark):
    net, seq, _ = fleet_scenario("small")
    results = benchmark.pedantic(
        fleet_replay,
        setup=lambda: ((build_managers("small"), seq), {}),
        rounds=3,
        iterations=1,
    )
    _assert_fleet_parity(sequential_replay(build_managers("small"), seq), results)


@pytest.mark.benchmark(group="fleet-replay")
@pytest.mark.skipif(QUICK, reason="large fleet scenario is skipped in quick mode")
def test_sequential_fleet_large(benchmark):
    net, seq, _ = fleet_scenario("large")
    results = benchmark.pedantic(
        sequential_replay,
        setup=lambda: ((build_managers("large"), seq), {}),
        rounds=3,
        iterations=1,
    )
    assert results[0].account.congestion > 0


@pytest.mark.benchmark(group="fleet-replay")
@pytest.mark.skipif(QUICK, reason="large fleet scenario is skipped in quick mode")
def test_fleet_replay_large(benchmark):
    net, seq, _ = fleet_scenario("large")
    results = benchmark.pedantic(
        fleet_replay,
        setup=lambda: ((build_managers("large"), seq), {}),
        rounds=3,
        iterations=1,
    )
    _assert_fleet_parity(sequential_replay(build_managers("large"), seq), results)


def test_fleet_speedup_gate():
    """Gate the headline number of the fleet engine.

    An 8-strategy stacked replay of the largest scenario must beat
    sequential per-strategy replay by at least 1.7x.  This is a
    machine-independent claim, so it runs on the large scenario even in
    quick mode (the scenario builds in about a second); both sides take
    best-of-N over identically warmed fresh managers.

    The floor was 3.0x when the sequential side spent most of its time
    in the 2D ``np.unique`` chunk aggregation; the compiled-kernel work
    (shared int64-key aggregation + compiled apply/rescan) made the
    *sequential* path ~5-8x faster, so the stacked-vs-sequential ratio
    legitimately compressed (~2.0x numpy, ~2.6x compiled measured).
    Absolute fleet replay time is gated by the baseline regression
    check, not this ratio.
    """
    floor = 1.7
    repeats = 3
    net, seq, _ = fleet_scenario("large")

    seq_results = fleet_results = None
    seq_time = fleet_time = float("inf")
    for _ in range(repeats):
        managers = build_managers("large")
        t0 = time.perf_counter()
        seq_results = sequential_replay(managers, seq)
        t1 = time.perf_counter()
        managers = build_managers("large")
        t2 = time.perf_counter()
        fleet_results = fleet_replay(managers, seq)
        t3 = time.perf_counter()
        seq_time = min(seq_time, t1 - t0)
        fleet_time = min(fleet_time, t3 - t2)

    _assert_fleet_parity(seq_results, fleet_results)
    speedup = seq_time / max(fleet_time, 1e-12)
    print(
        f"\nfleet replay [large]: {len(seq)} events x 8 strategies, "
        f"sequential {seq_time*1e3:.1f}ms, fleet {fleet_time*1e3:.1f}ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= floor, (
        f"stacked fleet replay only {speedup:.2f}x faster than sequential "
        f"per-strategy replay (gate: {floor:.1f}x)"
    )


# --------------------------------------------------------------------------- #
# adaptive fleet: batched counter replay vs. the scalar event loop
# --------------------------------------------------------------------------- #
def adaptive_managers(name):
    """Eight differently-tuned edge-counter lanes over one scenario."""
    net, seq, _ = fleet_scenario(name)
    return [
        EdgeCounterManager(
            net,
            seq.n_objects,
            object_size=4 + (k % 4) * 2,
            invalidation_patience=2 + k % 3,
        )
        for k in range(8)
    ]


def lane_by_lane_replay(managers, seq):
    """The pre-batching path: the scalar event loop, one lane at a time."""
    for manager in managers:
        serve_events(manager, seq.events)
    return managers


def adaptive_fleet_replay(managers, seq):
    """The batched group hook: shared decode and nearest tables, per-lane
    two-phase counter replay."""
    return SimulationEngine.run_fleet(managers, seq)


def _assert_adaptive_parity(scalar_managers, fleet_results):
    # both sides expose ``.account``; the fleet side wraps its manager in
    # a SimulationResult, the scalar side *is* the manager list
    _assert_fleet_parity(scalar_managers, fleet_results)
    for manager, result in zip(scalar_managers, fleet_results):
        for obj in range(manager.n_objects):
            assert manager.holders(obj) == result.strategy.holders(obj)


@pytest.mark.benchmark(group="adaptive-fleet")
def test_adaptive_lane_by_lane_small(benchmark):
    net, seq, _ = fleet_scenario("small")
    results = benchmark.pedantic(
        lane_by_lane_replay,
        setup=lambda: ((adaptive_managers("small"), seq), {}),
        rounds=3,
        iterations=1,
    )
    assert results[0].account.congestion > 0


@pytest.mark.benchmark(group="adaptive-fleet")
def test_adaptive_fleet_small(benchmark):
    net, seq, _ = fleet_scenario("small")
    results = benchmark.pedantic(
        adaptive_fleet_replay,
        setup=lambda: ((adaptive_managers("small"), seq), {}),
        rounds=3,
        iterations=1,
    )
    _assert_adaptive_parity(
        lane_by_lane_replay(adaptive_managers("small"), seq), results
    )


@pytest.mark.benchmark(group="adaptive-fleet")
@pytest.mark.skipif(QUICK, reason="large fleet scenario is skipped in quick mode")
def test_adaptive_fleet_large(benchmark):
    net, seq, _ = fleet_scenario("large")
    results = benchmark.pedantic(
        adaptive_fleet_replay,
        setup=lambda: ((adaptive_managers("large"), seq), {}),
        rounds=3,
        iterations=1,
    )
    assert results[0].account.congestion > 0


def test_adaptive_fleet_speedup_gate():
    """Gate the adaptive-fleet headline number.

    Eight differently-tuned :class:`EdgeCounterManager` lanes replaying
    the largest scenario through the batched group hook must beat the
    pre-batching scalar event loop by at least 3x.  As with the static
    gate, both arms use fresh managers and best-of-N timing, and
    bit-for-bit equality of accounts *and* final holder sets is asserted
    on every run (the exactness matrix lives in
    ``tests/properties/test_fleet_parity.py``).
    """
    floor = 3.0
    repeats = 3
    net, seq, _ = fleet_scenario("large")

    scalar_results = fleet_results = None
    scalar_time = fleet_time = float("inf")
    for _ in range(repeats):
        managers = adaptive_managers("large")
        t0 = time.perf_counter()
        scalar_results = lane_by_lane_replay(managers, seq)
        t1 = time.perf_counter()
        managers = adaptive_managers("large")
        t2 = time.perf_counter()
        fleet_results = adaptive_fleet_replay(managers, seq)
        t3 = time.perf_counter()
        scalar_time = min(scalar_time, t1 - t0)
        fleet_time = min(fleet_time, t3 - t2)

    _assert_adaptive_parity(scalar_results, fleet_results)
    speedup = scalar_time / max(fleet_time, 1e-12)
    print(
        f"\nadaptive fleet [large]: {len(seq)} events x 8 lanes, "
        f"scalar {scalar_time*1e3:.1f}ms, fleet {fleet_time*1e3:.1f}ms "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= floor, (
        f"batched adaptive fleet only {speedup:.2f}x faster than the "
        f"lane-by-lane scalar loop (gate: {floor:.1f}x)"
    )
