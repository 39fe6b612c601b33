"""Interleaved request + churn replay: ``SimulationEngine.run(seq, trace)``.

Requests address processors by reference ids that survive renumbering;
requests from departed (or not yet arrived) processors are dropped, and
the strategy's substrate is repaired at every mutation.
"""

import numpy as np
import pytest

from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import WorkloadError
from repro.network.builders import balanced_tree, single_bus
from repro.network.mutation import AttachLeaf, ChurnTrace, DetachLeaf, SetBusBandwidth
from repro.sim.engine import SimulationEngine
from repro.sim.sinks import TrajectorySink
from repro.workload.generators import uniform_pattern


@pytest.fixture
def instance():
    net = balanced_tree(2, 2, 2)
    pattern = uniform_pattern(net, 8, requests_per_processor=10, seed=0)
    seq = sequence_from_pattern(net, pattern, seed=1)
    placement = extended_nibble(net, pattern).placement
    return net, pattern, seq, placement


class TestChurnReplay:
    def test_empty_trace_matches_plain_replay(self, instance):
        net, pattern, seq, placement = instance
        churned = SimulationEngine(StaticPlacementManager(net, placement)).run(
            seq, ChurnTrace([])
        )
        plain = StaticPlacementManager(net, placement).run(seq)
        assert churned.served == len(seq)
        assert churned.dropped == 0
        assert np.array_equal(churned.account.edge_loads, plain.edge_loads)
        assert churned.account.congestion == plain.congestion

    def test_dropped_requests_counted(self, instance):
        net, pattern, seq, placement = instance
        # detach one leaf immediately: all its requests are dropped
        victim = net.processors[0]
        trace = ChurnTrace([(0, DetachLeaf(victim))])
        result = SimulationEngine(EdgeCounterManager(net, seq.n_objects)).run(seq, trace)
        expected_drops = sum(1 for ev in seq if ev.processor == victim)
        assert result.dropped == expected_drops
        assert result.served == len(seq) - expected_drops
        assert result.network.n_processors == net.n_processors - 1

    def test_attached_leaf_serves_after_arrival(self):
        net = single_bus(3)
        new_ref = net.n_nodes  # reference id of the first attached leaf
        events = [
            RequestEvent(new_ref, 0, "read"),  # before the attach: dropped
            RequestEvent(net.processors[0], 0, "read"),
            RequestEvent(new_ref, 0, "read"),  # after the attach: served
            RequestEvent(new_ref, 0, "read"),
        ]
        seq = RequestSequence(events, 1)
        trace = ChurnTrace([(1, AttachLeaf(0))])
        result = SimulationEngine(EdgeCounterManager(net, 1)).run(seq, trace)
        assert result.dropped == 1
        assert result.served == 3
        assert result.network.n_processors == 4

    def test_rehoming_preserves_single_copy(self, instance):
        net, pattern, seq, placement = instance
        strategy = EdgeCounterManager(net, seq.n_objects)
        # materialise every object on one leaf, then detach that leaf
        victim = net.processors[0]
        touches = RequestSequence(
            [RequestEvent(victim, obj, "read") for obj in range(seq.n_objects)],
            seq.n_objects,
        )
        strategy.serve_chunk(touches, 0, len(touches))
        trace = ChurnTrace([(0, DetachLeaf(victim))])
        result = SimulationEngine(strategy).run(seq, trace)
        final_net = result.network
        for obj in range(seq.n_objects):
            holders = strategy.holders(obj)
            assert holders, f"object {obj} lost all copies"
            assert all(final_net.is_processor(h) for h in holders)

    def test_static_placement_rehomed_and_valid(self, instance):
        net, pattern, seq, placement = instance
        victim = [p for p in net.processors
                  if net.degree(next(iter(net.neighbors(p)))) > 2][0]
        strategy = StaticPlacementManager(net, placement)
        result = SimulationEngine(strategy).run(
            seq, ChurnTrace([(len(seq) // 3, DetachLeaf(victim))])
        )
        final_net = result.network
        strategy._placement.validate_for(final_net, require_leaf_only=True)
        assert result.account.state.verify_bus_loads()

    def test_bandwidth_mutation_changes_congestion_only_via_denominator(
        self, instance
    ):
        net, pattern, seq, placement = instance
        trace = ChurnTrace([(len(seq) // 2, SetBusBandwidth(0, 100.0))])
        churned = SimulationEngine(StaticPlacementManager(net, placement)).run(seq, trace)
        plain = StaticPlacementManager(net, placement).run(seq)
        # loads are identical; only the relative-load denominators moved
        assert np.array_equal(churned.account.edge_loads, plain.edge_loads)
        assert churned.account.congestion <= plain.congestion

    def test_trajectory_sampling(self, instance):
        net, pattern, seq, placement = instance
        sink = TrajectorySink(10)
        SimulationEngine(StaticPlacementManager(net, placement), sinks=(sink,)).run(
            seq, ChurnTrace([])
        )
        assert sink.sample_times[-1] == len(seq)
        assert np.all(np.diff(sink.trajectory) >= 0)  # static never drops

    def test_out_of_universe_reference_rejected(self):
        net = single_bus(3)
        seq = RequestSequence([RequestEvent(99, 0, "read")], 1)
        with pytest.raises(WorkloadError):
            SimulationEngine(EdgeCounterManager(net, 1)).run(seq, ChurnTrace([]))

    def test_mutations_after_sequence_end_applied(self, instance):
        net, pattern, seq, placement = instance
        trace = ChurnTrace([(len(seq) + 50, AttachLeaf(0))])
        result = SimulationEngine(StaticPlacementManager(net, placement)).run(seq, trace)
        assert result.n_mutations == 1
        assert result.network.n_processors == net.n_processors + 1