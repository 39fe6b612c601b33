"""Differential tests: the simulation kernel vs. the pre-refactor loops.

Four legacy replay loops run on :class:`repro.sim.engine.SimulationEngine`
/ :class:`repro.sim.engine.RoundReplayDriver`: ``OnlineStrategy.run``'s
event/chunk replay and ``replay_requests``'s round loop through thin
adapters, and the congestion-trajectory sampler and the request/churn
interleaver as the engine itself (``SimulationEngine(strategy,
sinks=(TrajectorySink(k),)).run(seq, trace)``).  This module keeps the
pre-refactor implementations **verbatim** (as ``_reference_*`` functions,
per ARCHITECTURE.md invariant 1) and asserts bit-for-bit agreement on
seeded scenarios: loads, cost units, congestion values, served/dropped
counts, trajectories and per-round congestion.  The per-event ``serve``
they called is the scalar oracle of :mod:`tests.scalar_oracle`.
"""

import numpy as np
import pytest

from repro.core.extended_nibble import extended_nibble
from repro.core.loadstate import LoadState
from repro.distributed.request_sim import _expand_messages, replay_requests
from repro.dynamic.online import (
    EdgeCounterManager,
    HysteresisCounterManager,
    RentOrBuyManager,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestEvent, sequence_from_pattern
from repro.network.builders import balanced_tree, star_of_buses
from repro.network.mutation import apply_mutation
from repro.core.placement import RequestAssignment
from repro.sim.engine import SimulationEngine
from repro.sim.sinks import TrajectorySink
from repro.workload.churn import mutation_storm, rolling_maintenance_detach
from repro.workload.generators import uniform_pattern, zipf_pattern
from tests.scalar_oracle import serve


# --------------------------------------------------------------------------- #
# pre-refactor reference implementations (verbatim)
# --------------------------------------------------------------------------- #
def _reference_run(strategy, sequence, chunk_size=None):
    """``OnlineStrategy.run`` as it was before the kernel refactor."""
    if chunk_size is None:
        for event in sequence:
            serve(strategy, event)
    else:
        for start in range(0, len(sequence), chunk_size):
            strategy.serve_chunk(sequence, start, min(start + chunk_size, len(sequence)))
    return strategy.account


def _reference_congestion_trajectory(strategy, sequence, sample_every=1):
    """``congestion_trajectory`` as it was before the kernel refactor."""
    samples = []
    for i, event in enumerate(sequence):
        serve(strategy, event)
        if (i + 1) % sample_every == 0 or i + 1 == len(sequence):
            samples.append(strategy.account.congestion)
    return np.asarray(samples, dtype=np.float64)


def _reference_replay_with_churn(strategy, sequence, trace, sample_every=None):
    """``replay_with_churn`` as it was before the kernel refactor."""
    from repro.network.mutation import AttachLeaf

    base_n = strategy.network.n_nodes
    n_refs = base_n + trace.attach_count()
    current_of_ref = np.full(n_refs, -1, dtype=np.int64)
    current_of_ref[:base_n] = np.arange(base_n, dtype=np.int64)
    next_attach_ref = base_n

    outcomes = []
    served = 0
    dropped = 0
    samples = []
    sample_times = []
    timed = trace.events
    ti = 0

    def apply_pending(now):
        nonlocal ti, next_attach_ref
        while ti < len(timed) and timed[ti].time <= now:
            mutation = timed[ti].mutation
            outcome = apply_mutation(strategy.network, mutation)
            strategy.apply_mutation(outcome)
            outcomes.append(outcome)
            alive = current_of_ref >= 0
            current_of_ref[alive] = outcome.node_map[current_of_ref[alive]]
            if isinstance(mutation, AttachLeaf):
                current_of_ref[next_attach_ref] = int(outcome.new_node)
                next_attach_ref += 1
            ti += 1

    for i, event in enumerate(sequence):
        apply_pending(i)
        proc = int(current_of_ref[event.processor])
        if proc < 0:
            dropped += 1
        else:
            if proc == event.processor:
                serve(strategy, event)
            else:
                serve(strategy, RequestEvent(proc, event.obj, event.kind))
            served += 1
        if sample_every is not None and (
            (i + 1) % sample_every == 0 or i + 1 == len(sequence)
        ):
            samples.append(strategy.account.congestion)
            sample_times.append(i + 1)

    apply_pending(max(len(sequence), trace.max_time))
    return {
        "account": strategy.account,
        "network": strategy.network,
        "outcomes": outcomes,
        "served": served,
        "dropped": dropped,
        "trajectory": np.asarray(samples, dtype=np.float64) if sample_every else None,
        "sample_times": np.asarray(sample_times, dtype=np.int64) if sample_every else None,
    }


def _reference_round_replay(network, pattern, placement, assignment, batch=1):
    """The round loop of ``replay_requests`` as it was before the refactor."""
    rooted = network.rooted()
    traversals, per_edge, _dilation = _expand_messages(
        network, pattern, placement, assignment, rooted, batch
    )
    edge_bw = np.asarray(network.edge_bandwidths)
    bus_bw = np.asarray(network.bus_bandwidths)
    delivered_state = LoadState(network, rooted)
    round_congestion = []

    pending_by_edge = {e: [] for e in range(network.n_edges)}
    blocked_children = {}
    remaining = 0
    for idx, tr in enumerate(traversals):
        remaining += 1
        if tr.predecessor is None:
            pending_by_edge[tr.edge_id].append(idx)
        else:
            blocked_children.setdefault(tr.predecessor, []).append(idx)
    for queue in pending_by_edge.values():
        queue.sort(key=lambda i: traversals[i].order)

    rounds = 0
    while remaining > 0:
        rounds += 1
        edge_capacity = {
            e: int(edge_bw[e]) if edge_bw[e] >= 1 else 1 for e in range(network.n_edges)
        }
        bus_capacity = {b: max(1, int(2 * bus_bw[b])) for b in network.buses}
        newly_done = []
        for eid in range(network.n_edges):
            queue = pending_by_edge[eid]
            if not queue:
                continue
            taken = []
            for idx in queue:
                if edge_capacity[eid] <= 0:
                    break
                tr = traversals[idx]
                if any(bus_capacity[b] <= 0 for b in tr.bus_endpoints):
                    continue
                edge_capacity[eid] -= 1
                for b in tr.bus_endpoints:
                    bus_capacity[b] -= 1
                tr.done = True
                taken.append(idx)
                newly_done.append(idx)
            for idx in taken:
                queue.remove(idx)
        remaining -= len(newly_done)
        delivered_state.apply_edges(
            np.fromiter(
                (traversals[i].edge_id for i in newly_done),
                dtype=np.int64,
                count=len(newly_done),
            )
        )
        round_congestion.append(delivered_state.congestion)
        for idx in newly_done:
            for child in blocked_children.get(idx, ()):
                pending_by_edge[traversals[child].edge_id].append(child)
        for idx in newly_done:
            if idx in blocked_children:
                del blocked_children[idx]
        for queue in pending_by_edge.values():
            queue.sort(key=lambda i: traversals[i].order)

    return rounds, np.asarray(round_congestion, dtype=np.float64), per_edge


# --------------------------------------------------------------------------- #
# shared fixtures
# --------------------------------------------------------------------------- #
SEEDS = (0, 1, 2)


def _instance(seed):
    net = balanced_tree(2, 3, 2)
    pattern = zipf_pattern(net, 16, requests_per_processor=8, seed=seed)
    seq = sequence_from_pattern(net, pattern, seed=seed + 1)
    placement = extended_nibble(net, pattern).placement
    return net, pattern, seq, placement


def _assert_accounts_equal(kernel, reference):
    assert np.array_equal(kernel.edge_loads, reference.edge_loads)
    assert np.array_equal(kernel.bus_loads, reference.bus_loads)
    assert kernel.congestion == reference.congestion
    assert kernel.total_load == reference.total_load
    assert kernel.service_units == reference.service_units
    assert kernel.management_units == reference.management_units


# --------------------------------------------------------------------------- #
# 1. OnlineStrategy.run (event loop and chunked batch replay)
# --------------------------------------------------------------------------- #
class TestRunParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk_size", [None, 1, 7, 64, 10_000])
    def test_static_manager(self, seed, chunk_size):
        net, _pattern, seq, placement = _instance(seed)
        kernel = StaticPlacementManager(net, placement).run(seq, chunk_size=chunk_size)
        reference = _reference_run(
            StaticPlacementManager(net, placement), seq, chunk_size=chunk_size
        )
        _assert_accounts_equal(kernel, reference)

    # the adaptive chunk path against the scalar event loop at every
    # chunk size, one-event chunks included
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk_size", [None, 1, 5, 1024])
    def test_edge_counter(self, seed, chunk_size):
        net, _pattern, seq, _placement = _instance(seed)
        kernel = EdgeCounterManager(net, seq.n_objects).run(seq, chunk_size=chunk_size)
        reference = _reference_run(
            EdgeCounterManager(net, seq.n_objects), seq, chunk_size=None
        )
        _assert_accounts_equal(kernel, reference)

    # the batched two-phase replay must stay exact for every tuning of
    # the adaptive family, including the tournament subclasses: chunked
    # kernel replay vs the scalar event loop, plus identical holder sets
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    @pytest.mark.parametrize(
        "make",
        [
            lambda net, n: EdgeCounterManager(
                net, n, object_size=2, invalidation_patience=1
            ),
            lambda net, n: HysteresisCounterManager(
                net, n, object_size=2, migration_factor=2
            ),
            lambda net, n: RentOrBuyManager(
                net, n, replicate_threshold=3, migrate_threshold=2
            ),
        ],
        ids=["edge-counter-eager", "hysteresis", "rent-or-buy"],
    )
    def test_adaptive_variants(self, seed, chunk_size, make):
        net, _pattern, seq, _placement = _instance(seed)
        chunked = make(net, seq.n_objects)
        kernel = chunked.run(seq, chunk_size=chunk_size)
        scalar = make(net, seq.n_objects)
        reference = _reference_run(scalar, seq, chunk_size=None)
        _assert_accounts_equal(kernel, reference)
        for obj in range(seq.n_objects):
            assert chunked.holders(obj) == scalar.holders(obj)


# --------------------------------------------------------------------------- #
# 2. congestion trajectory: the engine with a TrajectorySink
# --------------------------------------------------------------------------- #
def _kernel_trajectory(strategy, sequence, sample_every):
    sink = TrajectorySink(sample_every)
    SimulationEngine(strategy, sinks=(sink,)).run(sequence)
    return sink.trajectory


class TestTrajectoryParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sample_every", [1, 3, 17, 100_000])
    def test_edge_counter_trajectory(self, seed, sample_every):
        net, _pattern, seq, _placement = _instance(seed)
        kernel = _kernel_trajectory(
            EdgeCounterManager(net, seq.n_objects), seq, sample_every=sample_every
        )
        reference = _reference_congestion_trajectory(
            EdgeCounterManager(net, seq.n_objects), seq, sample_every=sample_every
        )
        assert np.array_equal(kernel, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_static_trajectory(self, seed):
        net, _pattern, seq, placement = _instance(seed)
        kernel = _kernel_trajectory(
            StaticPlacementManager(net, placement), seq, sample_every=5
        )
        reference = _reference_congestion_trajectory(
            StaticPlacementManager(net, placement), seq, sample_every=5
        )
        assert np.array_equal(kernel, reference)


# --------------------------------------------------------------------------- #
# 3. request/churn interleaving: the engine run with a churn trace
# --------------------------------------------------------------------------- #
class TestChurnReplayParity:
    def _traces(self, net, seq, seed):
        yield mutation_storm(
            net,
            n_mutations=8,
            start=len(seq) // 5,
            spacing=max(1, len(seq) // 16),
            seed=seed + 10,
        )
        yield rolling_maintenance_detach(
            net,
            n_detach=3,
            start=len(seq) // 4,
            spacing=max(1, len(seq) // 8),
            seed=seed + 11,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("strategy_kind", ["static", "edge-counter"])
    def test_churn_replay(self, seed, strategy_kind):
        net, _pattern, seq, placement = _instance(seed)

        def make():
            if strategy_kind == "static":
                return StaticPlacementManager(net, placement)
            return EdgeCounterManager(net, seq.n_objects)

        for trace in self._traces(net, seq, seed):
            sink = TrajectorySink(7)
            kernel = SimulationEngine(make(), sinks=(sink,)).run(seq, trace)
            reference = _reference_replay_with_churn(
                make(), seq, trace, sample_every=7
            )
            _assert_accounts_equal(kernel.account, reference["account"])
            assert kernel.served == reference["served"]
            assert kernel.dropped == reference["dropped"]
            assert kernel.n_mutations == len(reference["outcomes"])
            assert np.array_equal(sink.trajectory, reference["trajectory"])
            assert np.array_equal(sink.sample_times, reference["sample_times"])
            assert kernel.network.n_nodes == reference["network"].n_nodes
            assert kernel.account.state.verify_bus_loads()


# --------------------------------------------------------------------------- #
# 4. replay_requests round loop
# --------------------------------------------------------------------------- #
class TestRoundReplayParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("batch", [1, 4])
    def test_round_congestion(self, seed, batch):
        net = star_of_buses(3, 3)
        pattern = uniform_pattern(net, 8, requests_per_processor=6, seed=seed)
        placement = extended_nibble(net, pattern).placement
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)

        kernel = replay_requests(
            net, pattern, placement, assignment=assignment, batch=batch
        )
        rounds, round_congestion, per_edge = _reference_round_replay(
            net, pattern, placement, assignment, batch=batch
        )
        assert kernel.makespan == rounds
        assert np.array_equal(kernel.round_congestion, round_congestion)
        assert np.array_equal(kernel.per_edge_traffic, per_edge)
        assert kernel.round_congestion[-1] == kernel.congestion
