"""Differential suite: fleet replay equals sequential replay, bit-for-bit.

Invariant 7 of ARCHITECTURE.md: one
:meth:`~repro.sim.engine.SimulationEngine.run_fleet` call over K
strategies produces exactly the results of K sequential
:meth:`~repro.sim.engine.SimulationEngine.run` calls over freshly-built
copies of the same strategies -- per-lane loads, congestion, cost units,
sampled trajectories, drop accounting, mutation counts and holder sets.
All charges are integer request counts, so the stacked lanes and the
standalone load states must agree **bitwise**, not approximately.

The oracle replays each drawn case of ``tests/fuzz.py`` (its chunk grid,
its churn and boundary mutations) over its whole roster: the
group-served static managers (hindsight reference plus the four baseline
placements, batched through ``serve_chunk_fleet``) and the adaptive
counter family, which batches through its *own* group hook -- shared
chunk decode and nearest-table build, per-lane counter cascades.  It
runs once per roster member, comparing that member's lane of the fleet
with the member replayed alone.  The crafted tests sweep every chunk
alignment of an adaptation cascade and pin the refusals that must leave
a fleet untouched.
"""

import numpy as np
import pytest

from repro.core.baselines import owner_placement
from repro.core.loadstate import LoadState
from repro.dynamic.evaluate import hindsight_static_manager
from repro.dynamic.online import (
    EdgeCounterManager,
    OnlineCostAccount,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestSequence, sequence_from_pattern
from repro.errors import AlgorithmError, SimulationError, WorkloadError
from repro.network.builders import balanced_tree
from repro.sim.engine import SimulationEngine
from repro.sim.sinks import DropAccountingSink
from repro.workload.churn import flash_crowd_attach
from repro.workload.generators import zipf_pattern
from tests.fuzz import adaptive_only_factories, crossing_sequence, record_of


def test_fleet_equals_sequential(member):
    case, index = member
    alone, lane = case.alone[index], case.together[index]
    assert record_of(lane) == record_of(alone)
    drops = lane.sink(DropAccountingSink).span_drops
    assert drops == alone.sink(DropAccountingSink).span_drops


def build_instance():
    """The fixed instance of the crafted tests."""
    net = balanced_tree(2, 3, 2)
    pattern = zipf_pattern(net, 24, requests_per_processor=10, seed=0)
    return net, pattern, sequence_from_pattern(net, pattern, seed=1)


def assert_results_equal(sequential, fleet):
    """Every observable of the two runs must agree bit-for-bit."""
    assert [record_of(r) for r in fleet] == [record_of(r) for r in sequential]


def test_fleet_lanes_share_one_substrate():
    """All fleet accounts sit on lanes of one stacked state."""
    net, pattern, seq = build_instance()
    strategies = [
        hindsight_static_manager(net, seq),
        StaticPlacementManager(net, owner_placement(net, pattern)),
        EdgeCounterManager(net, seq.n_objects),
        EdgeCounterManager(net, seq.n_objects, object_size=2),
    ]
    SimulationEngine.run_fleet(strategies, seq)
    states = [s.account.state for s in strategies]
    assert all(isinstance(state, LoadState) for state in states)
    assert len({id(state.stack) for state in states}) == 1
    assert states[0].stack.n_lanes == len(states)
    assert [state.lane_index for state in states] == list(range(len(states)))
    with pytest.raises(AlgorithmError):
        states[0].snapshot()


def test_fleet_rejects_used_strategies():
    net, pattern, seq = build_instance()
    manager = hindsight_static_manager(net, seq)
    SimulationEngine(manager).run(seq)
    with pytest.raises(SimulationError):
        SimulationEngine.run_fleet([manager], seq)


def test_fleet_rejects_mixed_networks():
    net_a, pattern_a, seq = build_instance()
    net_b, pattern_b, _ = build_instance()
    with pytest.raises(SimulationError):
        SimulationEngine.run_fleet(
            [
                hindsight_static_manager(net_a, seq),
                StaticPlacementManager(net_b, owner_placement(net_b, pattern_b)),
            ],
            seq,
        )


def test_fleet_rejects_duplicate_instances():
    net, pattern, seq = build_instance()
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
    net, _pattern, seq = build_instance()
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
    net, _pattern, seq = build_instance()
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
    net, _pattern, seq = build_instance()
    n = seq.n_objects
    trace = flash_crowd_attach(net, n_new_leaves=5, time=10, seed=7) if traced else None
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


@pytest.mark.parametrize("chunk_size", tuple(range(1, 14)))
def test_adaptive_fleet_every_crossing_alignment(chunk_size):
    """Adaptive group replay is exact for every chunk alignment.

    Sweeping the chunk size over a crafted cascade puts each replicate /
    invalidate / migrate crossing and the mid-stream first touch at every
    chunk-relative position -- first event of a chunk, interior, and
    exactly on the boundary.
    """
    net = balanced_tree(2, 2, 2)
    seq = crossing_sequence(net)
    factories = adaptive_only_factories(net, seq.n_objects)
    sequential = [
        SimulationEngine(factory(), chunk_size=chunk_size).run(seq)
        for factory in factories
    ]
    fleet = SimulationEngine.run_fleet(
        [factory() for factory in factories], seq, chunk_size=chunk_size
    )
    assert_results_equal(sequential, fleet)


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
