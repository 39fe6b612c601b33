"""Differential suite: fleet replay equals sequential replay, bit-for-bit.

Invariant 7 of ARCHITECTURE.md: one
:meth:`~repro.sim.engine.SimulationEngine.run_fleet` call over K
strategies produces exactly the results of K sequential
:meth:`~repro.sim.engine.SimulationEngine.run` calls over freshly-built
copies of the same strategies -- per-lane edge/bus loads, congestion,
service/management cost units, sampled trajectories, drop accounting and
mutation counts, under churn-free replay and under every churn generator
(structural and bandwidth mutations).  All charges are integer request
counts, so the stacked lanes and the standalone load states must agree
**bitwise**, not approximately.

The strategy fleets mix the group-served static managers (hindsight
reference plus baseline placements, batched through
``serve_chunk_fleet``) with the adaptive counter family
(:class:`EdgeCounterManager` and its hysteresis / rent-or-buy tournament
subclasses), which batches through its *own* ``serve_chunk_fleet`` group
hook -- shared chunk decode and nearest-table build, per-lane counter
cascades.  Both group-served paths are therefore covered, including
first-touch objects appearing mid-chunk and
threshold crossings landing exactly on chunk boundaries (the crafted
boundary tests sweep every chunk alignment of an adaptation cascade).

The seed matrix is extendable via ``REPRO_FLEET_SEEDS`` (comma-separated
integers), mirroring the churn differential harness.
"""

import os

import numpy as np
import pytest

from repro.core.baselines import (
    full_replication_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.loadstate import LoadState
from repro.dynamic.evaluate import first_touch_manager, hindsight_static_manager
from repro.dynamic.online import (
    EdgeCounterManager,
    HysteresisCounterManager,
    OnlineCostAccount,
    RentOrBuyManager,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import AlgorithmError, SimulationError, WorkloadError
from repro.network.builders import balanced_tree
from repro.sim.engine import SimulationEngine
from repro.sim.sinks import CostBreakdownSink, DropAccountingSink, TrajectorySink
from repro.workload.churn import (
    bandwidth_degradation,
    flash_crowd_attach,
    mutation_storm,
    rolling_maintenance_detach,
)
from repro.workload.generators import zipf_pattern

DEFAULT_SEEDS = (0, 1)


def _seed_matrix():
    raw = os.environ.get("REPRO_FLEET_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return DEFAULT_SEEDS


def build_instance(seed):
    """One network + sequence + access pattern, seeded."""
    net = balanced_tree(2, 3, 2)
    pattern = zipf_pattern(net, 24, requests_per_processor=10, seed=seed)
    seq = sequence_from_pattern(net, pattern, seed=seed + 1)
    return net, pattern, seq


def fleet_factories(net, pattern, seq, seed):
    """A mixed fleet: group-served static managers + adaptive strategies."""
    return [
        lambda: hindsight_static_manager(net, seq),
        lambda: StaticPlacementManager(net, owner_placement(net, pattern)),
        lambda: StaticPlacementManager(net, median_leaf_placement(net, pattern)),
        lambda: StaticPlacementManager(
            net, full_replication_placement(net, pattern)
        ),
        lambda: StaticPlacementManager(
            net, random_placement(net, pattern, seed=seed)
        ),
        lambda: EdgeCounterManager(net, seq.n_objects),
        lambda: EdgeCounterManager(
            net, seq.n_objects, object_size=2, invalidation_patience=1
        ),
        lambda: HysteresisCounterManager(
            net, seq.n_objects, object_size=2, migration_factor=3
        ),
        lambda: RentOrBuyManager(
            net, seq.n_objects, replicate_threshold=5, migrate_threshold=2
        ),
        lambda: first_touch_manager(net, seq),
    ]


def make_sinks(seq):
    return [
        TrajectorySink(max(1, len(seq) // 5)),
        CostBreakdownSink(),
        DropAccountingSink(),
    ]


CHURN_GENERATORS = {
    None: None,
    "storm": lambda net, seed: mutation_storm(
        net, n_mutations=10, start=5, spacing=3, seed=seed
    ),
    "degradation": lambda net, seed: bandwidth_degradation(
        net, n_steps=6, start=4, spacing=5, seed=seed
    ),
    "maintenance": lambda net, seed: rolling_maintenance_detach(
        net, n_detach=4, start=6, spacing=8, seed=seed
    ),
    "flash-crowd": lambda net, seed: flash_crowd_attach(
        net, n_new_leaves=5, time=10, seed=seed
    ),
}


def assert_results_equal(sequential, fleet):
    """Every observable of the two runs must agree bit-for-bit."""
    for a, b in zip(sequential, fleet):
        assert np.array_equal(a.account.edge_loads, b.account.edge_loads)
        assert np.array_equal(a.account.bus_loads, b.account.bus_loads)
        assert a.account.congestion == b.account.congestion
        assert a.account.total_load == b.account.total_load
        assert a.account.service_units == b.account.service_units
        assert a.account.management_units == b.account.management_units
        assert (a.n_events, a.served, a.dropped) == (b.n_events, b.served, b.dropped)
        assert a.n_mutations == b.n_mutations
        ta, tb = a.sink(TrajectorySink), b.sink(TrajectorySink)
        if ta is not None:
            assert np.array_equal(ta.trajectory, tb.trajectory)
            assert np.array_equal(ta.sample_times, tb.sample_times)
        ca, cb = a.sink(CostBreakdownSink), b.sink(CostBreakdownSink)
        if ca is not None:
            assert ca.breakdown == cb.breakdown
        da, db = a.sink(DropAccountingSink), b.sink(DropAccountingSink)
        if da is not None:
            assert (da.served, da.dropped, da.span_drops) == (
                db.served,
                db.dropped,
                db.span_drops,
            )
        assert b.account.state.verify_bus_loads()


@pytest.mark.parametrize("seed", _seed_matrix())
@pytest.mark.parametrize("churn", sorted(k for k in CHURN_GENERATORS if k))
def test_fleet_equals_sequential_under_churn(seed, churn):
    net, pattern, seq = build_instance(seed)
    trace = CHURN_GENERATORS[churn](net, seed + 7)
    factories = fleet_factories(net, pattern, seq, seed)

    sequential = [
        SimulationEngine(factory(), sinks=make_sinks(seq)).run(seq, trace)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories],
        seq,
        trace,
        sinks=[make_sinks(seq) for _ in factories],
    )
    assert_results_equal(sequential, fleet)
    assert sum(r.dropped for r in fleet) == len(factories) * sequential[0].dropped


@pytest.mark.parametrize("seed", _seed_matrix())
def test_fleet_equals_sequential_churn_free(seed):
    net, pattern, seq = build_instance(seed)
    factories = fleet_factories(net, pattern, seq, seed)
    sequential = [
        SimulationEngine(factory(), sinks=make_sinks(seq)).run(seq)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories],
        seq,
        sinks=[make_sinks(seq) for _ in factories],
    )
    assert_results_equal(sequential, fleet)
    assert all(r.dropped == 0 for r in fleet)


@pytest.mark.parametrize("chunk_size", (1, 7, 64))
def test_fleet_respects_chunk_grid(chunk_size):
    """Any chunk grid yields the same final state on both paths."""
    net, pattern, seq = build_instance(3)
    factories = fleet_factories(net, pattern, seq, 3)
    sequential = [
        SimulationEngine(factory(), chunk_size=chunk_size).run(seq)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories], seq, chunk_size=chunk_size
    )
    assert_results_equal(sequential, fleet)


def test_fleet_lanes_share_one_substrate():
    """All fleet accounts sit on lanes of one stacked state."""
    net, pattern, seq = build_instance(0)
    factories = fleet_factories(net, pattern, seq, 0)
    strategies = [factory() for factory in factories]
    SimulationEngine.run_fleet(strategies, seq)
    states = [s.account.state for s in strategies]
    assert all(isinstance(state, LoadState) for state in states)
    assert len({id(state.stack) for state in states}) == 1
    assert states[0].stack.n_lanes == len(states)
    assert [state.lane_index for state in states] == list(range(len(states)))
    with pytest.raises(AlgorithmError):
        states[0].snapshot()


def test_fleet_rejects_used_strategies():
    net, pattern, seq = build_instance(0)
    manager = hindsight_static_manager(net, seq)
    SimulationEngine(manager).run(seq)
    with pytest.raises(SimulationError):
        SimulationEngine.run_fleet([manager], seq)


def test_fleet_rejects_mixed_networks():
    net_a, pattern_a, seq = build_instance(0)
    net_b, pattern_b, _ = build_instance(0)
    with pytest.raises(SimulationError):
        SimulationEngine.run_fleet(
            [
                hindsight_static_manager(net_a, seq),
                StaticPlacementManager(net_b, owner_placement(net_b, pattern_b)),
            ],
            seq,
        )


def test_fleet_rejects_duplicate_instances():
    net, pattern, seq = build_instance(0)
    manager = hindsight_static_manager(net, seq)
    with pytest.raises(SimulationError):
        SimulationEngine.run_fleet([manager, manager], seq)


def _assert_untouched(strategies, states):
    """Every strategy still sits on its own fresh one-lane state."""
    for strategy, state in zip(strategies, states):
        assert strategy.account.state is state
        assert isinstance(state, LoadState) and state.stack.n_lanes == 1
        assert not state.edge_loads.any()
        assert strategy.account.service_units == 0
        assert strategy.account.management_units == 0


def test_fleet_bad_chunk_size_refused_before_rebinding():
    """A refused chunk size leaves every account on its own state, so the
    corrected call then replays the same fleet."""
    net, _pattern, seq = build_instance(0)
    n = seq.n_objects
    strategies = [
        EdgeCounterManager(net, n),
        EdgeCounterManager(net, n, object_size=2),
    ]
    states = [s.account.state for s in strategies]
    with pytest.raises(WorkloadError, match="chunk_size"):
        SimulationEngine.run_fleet(strategies, seq, chunk_size=0)
    _assert_untouched(strategies, states)
    fleet = SimulationEngine.run_fleet(strategies, seq, chunk_size=4)
    sequential = [
        SimulationEngine(EdgeCounterManager(net, n, **args), chunk_size=4).run(seq)
        for args in ({}, {"object_size": 2})
    ]
    assert_results_equal(sequential, fleet)


def test_fleet_shared_account_refused_before_rebinding():
    """Two strategies charging one account would share one lane; the
    fleet is refused untouched, and one with separate accounts replays."""
    net, _pattern, seq = build_instance(0)
    n = seq.n_objects
    account = OnlineCostAccount(net)
    strategies = [
        EdgeCounterManager(net, n, account=account),
        EdgeCounterManager(net, n, object_size=2, account=account),
    ]
    with pytest.raises(SimulationError, match="own cost accounts"):
        SimulationEngine.run_fleet(strategies, seq)
    _assert_untouched(strategies, [account.state] * 2)
    strategies[1] = EdgeCounterManager(net, n, object_size=2)
    fleet = SimulationEngine.run_fleet(strategies, seq)
    sequential = [
        SimulationEngine(EdgeCounterManager(net, n, **args)).run(seq)
        for args in ({}, {"object_size": 2})
    ]
    assert_results_equal(sequential, fleet)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "flash-crowd"])
@pytest.mark.parametrize("defect", ["processor", "objects"])
def test_fleet_bad_sequence_refused_before_rebinding(defect, traced):
    """An event past the reference universe, or a sequence over more
    objects than the strategies know, is refused untouched -- under a
    trace too, whose attaches the universe reserves -- and the corrected
    sequence then replays the same fleet."""
    net, _pattern, seq = build_instance(0)
    n = seq.n_objects
    trace = CHURN_GENERATORS["flash-crowd"](net, 7) if traced else None
    strategies = [
        EdgeCounterManager(net, n),
        EdgeCounterManager(net, n, object_size=2),
    ]
    states = [s.account.state for s in strategies]
    procs, objs, writes = seq.as_arrays()
    if defect == "processor":
        n_refs = net.n_nodes + (trace.attach_count() if traced else 0)
        bad = RequestSequence.from_columns(
            np.append(procs, n_refs), np.append(objs, 0), np.append(writes, False), n
        )
        match = f"processor id {n_refs}, but the replay universe has {n_refs}"
    else:
        bad = RequestSequence.from_columns(procs, objs, writes, n + 1)
        match = "more objects than the strategy was built for"
    with pytest.raises(WorkloadError, match=match):
        SimulationEngine.run_fleet(strategies, bad, trace)
    _assert_untouched(strategies, states)
    fleet = SimulationEngine.run_fleet(strategies, seq, trace)
    sequential = [
        SimulationEngine(EdgeCounterManager(net, n, **args)).run(seq, trace)
        for args in ({}, {"object_size": 2})
    ]
    assert_results_equal(sequential, fleet)


def _adaptive_only_factories(net, n_objects):
    """An all-adaptive fleet: three counter tunings plus both subclasses."""
    return [
        lambda: EdgeCounterManager(net, n_objects, object_size=2),
        lambda: EdgeCounterManager(
            net, n_objects, object_size=2, invalidation_patience=1
        ),
        lambda: EdgeCounterManager(
            net, n_objects, object_size=4, invalidation_patience=3
        ),
        lambda: HysteresisCounterManager(
            net, n_objects, object_size=2, migration_factor=2
        ),
        lambda: RentOrBuyManager(
            net, n_objects, replicate_threshold=3, migrate_threshold=2
        ),
    ]


def _crossing_sequence(net):
    """A crafted sequence whose adaptation events sit at known indices.

    With ``object_size=2`` the remote reader earns its replica on its
    2nd read (index 2), the writer invalidates it (index 3 area) and a
    lonely copy migrates after persistent remote writes -- plus a fresh
    object first-touched deep into the stream (index 7), so sweeping
    every chunk size places first touches and threshold crossings at
    every possible chunk-relative offset, including exactly on chunk
    boundaries.
    """
    p0, p1, p2 = net.processors[0], net.processors[-1], net.processors[1]
    events = [
        RequestEvent(p0, 0, "read"),   # first touch: p0 materialises obj 0
        RequestEvent(p1, 0, "read"),   # credit 1
        RequestEvent(p1, 0, "read"),   # credit 2 -> replicate (crossing)
        RequestEvent(p0, 0, "write"),  # invalidation pressure on p1's copy
        RequestEvent(p0, 0, "write"),  # patience 2 -> p1's replica dropped
        RequestEvent(p2, 1, "write"),  # first touch mid-stream: obj 1 on p2
        RequestEvent(p0, 1, "write"),  # remote-writer credit 1
        RequestEvent(p0, 1, "write"),  # credit 2 -> migrate (crossing)
        RequestEvent(p1, 0, "read"),   # re-earn credit after invalidation
        RequestEvent(p1, 0, "read"),   # -> replicate again (thrash cycle)
        RequestEvent(p0, 0, "write"),
        RequestEvent(p2, 1, "read"),
    ]
    return RequestSequence(events, n_objects=2)


@pytest.mark.parametrize("chunk_size", tuple(range(1, 14)))
def test_adaptive_fleet_every_crossing_alignment(chunk_size):
    """Adaptive group replay is exact for every chunk alignment.

    Sweeping the chunk size over a crafted cascade puts each replicate /
    invalidate / migrate crossing and the mid-stream first touch at every
    chunk-relative position -- first event of a chunk, interior, and
    exactly on the boundary.
    """
    net = balanced_tree(2, 2, 2)
    seq = _crossing_sequence(net)
    factories = _adaptive_only_factories(net, seq.n_objects)
    sequential = [
        SimulationEngine(factory(), chunk_size=chunk_size).run(seq)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories], seq, chunk_size=chunk_size
    )
    assert_results_equal(sequential, fleet)
    for a, b in zip(sequential, fleet):
        for obj in range(seq.n_objects):
            assert a.strategy.holders(obj) == b.strategy.holders(obj)


@pytest.mark.parametrize("seed", _seed_matrix())
@pytest.mark.parametrize("churn", sorted(k for k in CHURN_GENERATORS if k))
def test_adaptive_only_fleet_under_churn(seed, churn):
    """The adaptive group hook alone, under all four churn kinds."""
    net, pattern, seq = build_instance(seed)
    trace = CHURN_GENERATORS[churn](net, seed + 13)
    factories = _adaptive_only_factories(net, seq.n_objects)
    sequential = [
        SimulationEngine(factory(), sinks=make_sinks(seq)).run(seq, trace)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories],
        seq,
        trace,
        sinks=[make_sinks(seq) for _ in factories],
    )
    assert_results_equal(sequential, fleet)
    for a, b in zip(sequential, fleet):
        for obj in range(seq.n_objects):
            assert a.strategy.holders(obj) == b.strategy.holders(obj)


def test_stacked_repair_is_idempotent_for_outcome_sequences():
    """Every lane may replay the same outcome *sequence* through its view."""
    from repro.core.loadstate import LoadState, StackedLoadState
    from repro.network.mutation import apply_mutation
    from repro.workload.churn import random_valid_mutation

    net = balanced_tree(2, 3, 2)
    rng = np.random.default_rng(11)
    stacked = StackedLoadState(net, 3)
    reference = LoadState(net)
    procs = net.processors
    for lane in stacked.lanes:
        lane.apply_pairs([procs[0]], [procs[-1]], [2])
    reference.apply_pairs([procs[0]], [procs[-1]], [2])

    outcomes = []
    current = net
    for _ in range(3):
        outcome = apply_mutation(current, random_valid_mutation(current, rng))
        outcomes.append(outcome)
        current = outcome.network
    # the batch repair applied through every lane view must run once
    for lane in stacked.lanes:
        lane.repair(outcomes)
    loads = reference.edge_loads.copy()
    for outcome in outcomes:
        loads = outcome.mapped_edge_loads(loads)
    rebuilt = LoadState(current)
    rebuilt.apply_edge_loads(loads)
    for lane in stacked.lanes:
        assert np.array_equal(lane.edge_loads, rebuilt.edge_loads)
        assert lane.congestion == rebuilt.congestion
        assert lane.verify_bus_loads()
