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
from repro.distributed.request_sim import _expand_messages, _schedule_rounds, replay_requests
from repro.dynamic.online import (
    EdgeCounterManager,
    HysteresisCounterManager,
    RentOrBuyManager,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.network.builders import balanced_tree, random_tree, star_of_buses
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    SetBusBandwidth,
    SetEdgeBandwidth,
    apply_mutation,
)
from repro.core.placement import RequestAssignment
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.sinks import TrajectorySink
from repro.workload.churn import (
    mutation_storm,
    random_valid_mutation,
    rolling_maintenance_detach,
)
from repro.workload.generators import uniform_pattern, zipf_pattern
from tests.scalar_oracle import reference_schedule_rounds, serve


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
    """The round loop of ``replay_requests`` as it was before the refactor:
    the oracle's scheduler, each round charged as its per-edge column."""
    rooted = network.rooted()
    traversals, per_edge, _dilation = _expand_messages(
        network, pattern, placement, assignment, rooted, batch
    )
    delivered_state = LoadState(network, rooted)
    round_congestion = []
    rounds = 0
    for ids in reference_schedule_rounds(network, traversals, 10_000_000):
        rounds += 1
        delivered_state.apply_edge_loads(np.bincount(ids, minlength=network.n_edges))
        round_congestion.append(delivered_state.congestion)
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


    GRID = 8

    def _adversarial(self, net, seq, seed):
        """The serve differential's adversarial trace, and an event sent to
        a processor before its attach.

        Mutation times are 0, a tie, a chunk-grid multiple, ``n - 1``,
        ``n`` and past the end, each valid for the evolving network.  The
        tie holds an attach whose reference id an event names three events
        before it lands, and again after.  Returns ``(trace, early,
        ordinary)``: the sequence with that early event, and the same
        sequence with an ordinary event in its place (a stream rejects it).
        """
        n = len(seq) + 2
        rng = np.random.default_rng(seed + 20)
        scratch, timed, new_ref = net, [], None
        for time in (0, 5, 5, 2 * self.GRID, n - 1, n, n + 7):
            if new_ref is None and time == 5:
                new_ref = net.n_nodes + sum(isinstance(m, AttachLeaf) for _, m in timed)
                mutation = AttachLeaf(scratch.buses[0])
            else:
                mutation = random_valid_mutation(scratch, rng)
            scratch = apply_mutation(scratch, mutation).network
            timed.append((time, mutation))
        events = list(seq)
        late = RequestEvent(new_ref, 1, "write")

        def with_event_at_2(event):
            return RequestSequence(
                events[:2] + [event] + events[2:9] + [late] + events[9:], seq.n_objects
            )

        return (
            ChurnTrace(timed),
            with_event_at_2(RequestEvent(new_ref, 0, "read")),
            with_event_at_2(events[2]),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("chunk_size", [None, GRID])
    def test_adversarial_trace_at_every_entry(self, seed, chunk_size):
        """``run``, every lane of ``run_fleet`` and a ragged-batch stream
        against the verbatim churn replay."""
        net, _pattern, seq, placement = _instance(seed)
        trace, early, ordinary = self._adversarial(net, seq, seed)
        makers = (
            lambda: StaticPlacementManager(net, placement),
            lambda: EdgeCounterManager(net, seq.n_objects),
            lambda: EdgeCounterManager(net, seq.n_objects, object_size=2),
        )

        def check(result, sink, reference):
            _assert_accounts_equal(result.account, reference["account"])
            assert result.served == reference["served"]
            assert result.dropped == reference["dropped"]
            assert result.n_mutations == len(reference["outcomes"]) == len(trace)
            assert np.array_equal(sink.trajectory, reference["trajectory"])
            assert np.array_equal(sink.sample_times, reference["sample_times"])

        references = [
            _reference_replay_with_churn(make(), early, trace, sample_every=7)
            for make in makers
        ]
        for make, reference in zip(makers, references):
            sink = TrajectorySink(7)
            engine = SimulationEngine(make(), sinks=(sink,), chunk_size=chunk_size)
            check(engine.run(early, trace), sink, reference)

        sinks = [TrajectorySink(7) for _ in makers]
        fleet = SimulationEngine.run_fleet(
            [make() for make in makers],
            early,
            trace,
            sinks=[(sink,) for sink in sinks],
            chunk_size=chunk_size,
        )
        for result, sink, reference in zip(fleet, sinks, references):
            check(result, sink, reference)

        for make in makers:
            reference = _reference_replay_with_churn(
                make(), ordinary, trace, sample_every=7
            )
            sink = TrajectorySink(7)
            stream = EngineStream(make(), sinks=(sink,), chunk_size=chunk_size)
            check(_feed_ragged(stream, ordinary, trace), sink, reference)
        assert references[0]["dropped"] > reference["dropped"]  # the early event


def _feed_ragged(stream, sequence, trace, sizes=(5, 1, 13, 2, 9)):
    """Serve ``sequence`` in ragged batches, each mutation at its time."""
    pending = list(trace.events)
    position = cursor = 0
    while position < len(sequence):
        while pending and pending[0].time <= position:
            stream.mutate(pending.pop(0).mutation)
        stop = min(position + sizes[cursor % len(sizes)], len(sequence))
        if pending:
            stop = min(stop, pending[0].time)
        stream.serve(sequence.subsequence(position, stop))
        position, cursor = stop, cursor + 1
    for timed in pending:
        stream.mutate(timed.mutation)
    return stream.finish()


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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_batches_equal_the_reference_scheduler(self, seed):
        """Every round delivers the very edge-id batch of the reference
        scheduler, under mixed edge and bus bandwidths (fractional ones
        clamp to one traversal) and multi-hop precedence chains."""
        rng = np.random.default_rng(seed)
        net = random_tree(4, 10, seed=seed)
        for e in net.edges:
            bw = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            net = apply_mutation(net, SetEdgeBandwidth(e.u, e.v, bw)).network
        for bus in net.buses:
            bw = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            net = apply_mutation(net, SetBusBandwidth(bus, bw)).network
        pattern = zipf_pattern(
            net, 12, requests_per_processor=12, write_fraction=0.3, seed=seed
        )
        placement = extended_nibble(net, pattern).placement
        assignment = RequestAssignment.nearest_copy(net, pattern, placement)

        def expand():
            return _expand_messages(
                net, pattern, placement, assignment, net.rooted(), 1
            )[0]

        traversals = expand()
        assert any(tr.predecessor is not None for tr in traversals)
        got = list(_schedule_rounds(net, traversals, 10_000))
        want = list(reference_schedule_rounds(net, expand(), 10_000))
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()
        assert all(tr.done for tr in traversals)
