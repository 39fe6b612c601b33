"""Differential tests: the simulation kernel vs. the pre-refactor loops.

The replay loops run on :class:`repro.sim.engine.SimulationEngine` /
:class:`repro.sim.engine.RoundReplayDriver`.  Their pre-refactor
implementations are kept **verbatim** as references (ARCHITECTURE.md
invariant 1): the request/churn interleaver that served every event on
its own is :func:`tests.scalar_oracle.reference_replay_with_churn`, one
arm of the served = offline = scalar oracle of
``test_serve_differential.py``; the round loop of ``replay_requests``
is :func:`_reference_round_replay` here.  This module pins the round
replay against it on every drawn case of ``tests/fuzz.py`` (per-round
congestion, makespan, per-edge traffic and every round's edge-id batch)
and pins a crafted adversarial trace -- an event addressed to a
processor before its attach, mutations at 0, a tie, a chunk-grid
multiple, ``n - 1``, ``n`` and past the end -- at every entry point:
``run``, every lane of ``run_fleet`` and a ragged-batch stream.
"""

import numpy as np
import pytest

from repro.core.baselines import owner_placement
from repro.core.extended_nibble import extended_nibble
from repro.core.loadstate import LoadState
from repro.core.placement import RequestAssignment
from repro.distributed.request_sim import _expand_messages, _schedule_rounds, replay_requests
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.network.builders import balanced_tree
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    SetBusBandwidth,
    SetEdgeBandwidth,
    apply_mutation,
)
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.sinks import TrajectorySink
from repro.workload.churn import random_valid_mutation
from repro.workload.generators import zipf_pattern
from tests.fuzz import feed, record_of, scalar_record
from tests.scalar_oracle import reference_schedule_rounds


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


class TestChurnReplayParity:
    GRID = 8

    def _adversarial(self, net, seq, seed):
        """A boundary-time trace like the drawn cases', and an event sent
        to a processor before its attach.

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

    @pytest.mark.parametrize("chunk_size", [None, GRID])
    def test_adversarial_trace_at_every_entry(self, chunk_size):
        """``run``, every lane of ``run_fleet`` and a ragged-batch stream
        against the verbatim churn replay."""
        net = balanced_tree(2, 3, 2)
        pattern = zipf_pattern(net, 16, requests_per_processor=8, seed=0)
        seq = sequence_from_pattern(net, pattern, seed=1)
        placement = extended_nibble(net, pattern).placement
        trace, early, ordinary = self._adversarial(net, seq, 0)
        makers = (
            lambda: StaticPlacementManager(net, placement),
            lambda: EdgeCounterManager(net, seq.n_objects),
            lambda: EdgeCounterManager(net, seq.n_objects, object_size=2),
        )

        def sinks():
            return [TrajectorySink(7)]

        references = [scalar_record(make(), early, trace, 7) for make in makers]
        runs = [
            SimulationEngine(make(), sinks=sinks(), chunk_size=chunk_size).run(early, trace)
            for make in makers
        ]
        fleet = SimulationEngine.run_fleet(
            [make() for make in makers], early, trace,
            sinks=[sinks() for _ in makers], chunk_size=chunk_size,
        )
        assert [record_of(r) for r in runs] == references
        assert [record_of(r) for r in fleet] == references

        streamed = [
            feed(EngineStream(make(), sinks=sinks(), chunk_size=chunk_size),
                 ordinary, trace, (5, 1, 13, 2, 9))
            for make in makers
        ]
        ordinary_references = [scalar_record(make(), ordinary, trace, 7) for make in makers]
        assert [record_of(r) for r in streamed] == ordinary_references
        assert {r.n_mutations for r in runs + fleet + streamed} == {len(trace)}
        # the early event is dropped
        assert references[0]["counts"][1] > ordinary_references[0]["counts"][1]


class TestRoundReplayParity:
    @pytest.mark.parametrize("batch", [1, 4])
    def test_round_congestion(self, case, batch):
        net, pattern = case.built.network, case.pattern
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

    def test_round_batches_equal_the_reference_scheduler(self, case):
        """Every round delivers the very edge-id batch of the reference
        scheduler, under mixed edge and bus bandwidths (fractional ones
        clamp to one traversal) and multi-hop precedence chains."""
        rng = np.random.default_rng(case.seed)
        net, pattern = case.built.network, case.pattern
        for e in net.edges:
            bw = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            net = apply_mutation(net, SetEdgeBandwidth(e.u, e.v, bw)).network
        for bus in net.buses:
            bw = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            net = apply_mutation(net, SetBusBandwidth(bus, bw)).network
        # one copy per object, so requests travel multi-hop chains
        placement = owner_placement(net, pattern)
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
