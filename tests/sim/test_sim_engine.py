"""Unit tests for the simulation kernel (timeline, protocol, engine, sinks)."""

import numpy as np
import pytest

from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import EdgeCounterManager, OnlineStrategy, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import SimulationError, WorkloadError
from repro.network.builders import balanced_tree, single_bus
from repro.network.mutation import AttachLeaf, ChurnTrace, DetachLeaf
from repro.sim.engine import EngineStream, RoundReplayDriver, SimulationEngine
from repro.sim.protocol import validate_strategy
from repro.sim.sinks import (
    CostBreakdownSink,
    DropAccountingSink,
    RoundStatsSink,
    TrajectorySink,
)
from repro.sim.timeline import MutationPoint, ServeSpan, merge_timeline
from repro.workload.generators import uniform_pattern
from tests.scalar_oracle import ReferenceOnlineCostAccount


@pytest.fixture
def instance():
    net = balanced_tree(2, 2, 2)
    pattern = uniform_pattern(net, 8, requests_per_processor=10, seed=0)
    seq = sequence_from_pattern(net, pattern, seed=1)
    placement = extended_nibble(net, pattern).placement
    return net, seq, placement


class TestMergeTimeline:
    def test_plain_sequence_is_one_span(self):
        items = merge_timeline(10)
        assert items == [ServeSpan(0, 10)]

    def test_chunk_grid(self):
        items = merge_timeline(10, chunk_size=4)
        assert items == [ServeSpan(0, 4), ServeSpan(4, 8), ServeSpan(8, 10)]

    def test_mutations_split_spans_and_come_first(self):
        trace = ChurnTrace([(0, AttachLeaf(0)), (5, AttachLeaf(0))])
        items = merge_timeline(10, trace)
        assert isinstance(items[0], MutationPoint) and items[0].time == 0
        assert items[1] == ServeSpan(0, 5)
        assert isinstance(items[2], MutationPoint) and items[2].time == 5
        assert items[3] == ServeSpan(5, 10)

    def test_late_mutations_after_last_span(self):
        trace = ChurnTrace([(99, AttachLeaf(0))])
        items = merge_timeline(10, trace)
        assert items[0] == ServeSpan(0, 10)
        assert isinstance(items[1], MutationPoint)

    def test_empty_sequence_applies_all_mutations(self):
        trace = ChurnTrace([(3, AttachLeaf(0)), (7, AttachLeaf(0))])
        items = merge_timeline(0, trace)
        assert all(isinstance(i, MutationPoint) for i in items)
        assert len(items) == 2

    def test_boundaries_split_spans(self):
        items = merge_timeline(10, boundaries=[3, 30])
        assert items == [ServeSpan(0, 3), ServeSpan(3, 10)]


class TestMergeTimelineEdgeCases:
    """Degenerate timelines, pinned against the engine's serve behavior."""

    def test_empty_sequence_with_pending_mutations_runs_them_all(self, instance):
        net, _seq, placement = instance
        trace = ChurnTrace([(0, AttachLeaf(0)), (5, AttachLeaf(0))])
        items = merge_timeline(0, trace)
        assert all(isinstance(i, MutationPoint) for i in items)

        n_before = net.n_nodes
        sink = TrajectorySink(10)
        result = SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(sink,)
        ).run(RequestSequence([], 8), trace)
        assert result.n_events == result.served == result.dropped == 0
        assert result.n_mutations == 2
        assert result.network.n_nodes == n_before + 2
        assert len(sink.sample_times) == 0  # nothing served, nothing sampled

    def test_mutation_at_time_zero_precedes_every_event(self, instance):
        net, seq, placement = instance
        victim = net.processors[0]
        trace = ChurnTrace([(0, DetachLeaf(victim))])
        items = merge_timeline(len(seq), trace, chunk_size=5)
        assert isinstance(items[0], MutationPoint) and items[0].time == 0
        assert items[1].start == 0  # no zero-width span before the mutation
        assert all(
            s.stop > s.start for s in items if isinstance(s, ServeSpan)
        )

        result = SimulationEngine(StaticPlacementManager(net, placement)).run(
            seq, trace
        )
        # the detach lands before event 0: every victim request drops
        assert result.dropped == sum(1 for ev in seq if ev.processor == victim)

    def test_boundary_coinciding_with_chunk_cut_is_not_duplicated(self, instance):
        net, seq, placement = instance
        items = merge_timeline(10, boundaries=[4], chunk_size=4)
        assert items == [ServeSpan(0, 4), ServeSpan(4, 8), ServeSpan(8, 10)]

        # a sink interval equal to the chunk grid must not double-sample
        sink = TrajectorySink(4)
        SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(sink,), chunk_size=4
        ).run(seq)
        times = list(sink.sample_times)
        assert times == sorted(set(times))
        assert times[-1] == len(seq)

    def test_chunk_size_larger_than_sequence_is_one_span(self, instance):
        net, seq, placement = instance
        assert merge_timeline(5, chunk_size=100) == [ServeSpan(0, 5)]

        big = SimulationEngine(
            StaticPlacementManager(net, placement), chunk_size=10 * len(seq)
        ).run(seq)
        plain = SimulationEngine(StaticPlacementManager(net, placement)).run(seq)
        assert big.served == plain.served == len(seq)
        assert np.array_equal(big.account.edge_loads, plain.account.edge_loads)
        assert big.account.congestion == plain.account.congestion


class TestProtocol:
    def test_online_strategies_conform(self, instance):
        net, seq, placement = instance
        validate_strategy(StaticPlacementManager(net, placement))
        validate_strategy(EdgeCounterManager(net, seq.n_objects))

    def test_non_strategy_rejected(self):
        with pytest.raises(SimulationError, match="PlacementStrategy"):
            validate_strategy(object())

    def test_engine_rejects_non_strategy(self):
        with pytest.raises(SimulationError):
            SimulationEngine(object())

    @pytest.mark.parametrize("member", ["account.state", "serve_chunk"])
    @pytest.mark.parametrize("entry", ["run", "run_fleet", "stream"])
    def test_unservable_strategy_is_refused_before_serving(
        self, instance, member, entry
    ):
        """No entry point takes a strategy nothing could serve: one whose
        account has no load state, or one without ``serve_chunk``."""
        net, seq, _placement = instance
        if member == "account.state":
            strategy = EdgeCounterManager(
                net, seq.n_objects, account=ReferenceOnlineCostAccount(net)
            )
        else:
            strategy = _HoldersOnly(net, seq.n_objects)
        account = strategy.account
        counters = [a.copy() for a in _counter_arrays(strategy)]
        with pytest.raises(SimulationError, match=f"missing {member}$"):
            if entry == "run":
                SimulationEngine(strategy).run(seq)
            elif entry == "run_fleet":
                SimulationEngine.run_fleet([strategy], seq)
            else:
                EngineStream(strategy)
        assert strategy.account is account
        assert not account.edge_loads.any()
        assert account.service_units == account.management_units == 0
        for before, after in zip(counters, _counter_arrays(strategy)):
            assert np.array_equal(before, after)


class _HoldersOnly(OnlineStrategy):
    """An online strategy that implements ``holders`` and no serving."""

    def holders(self, obj):
        return set()


def _counter_arrays(strategy):
    adaptive = getattr(strategy, "_adaptive", None)
    if adaptive is None:
        return []
    return [adaptive.holder_mask, adaptive.read_credit, adaptive.unread_writes,
            adaptive.n_holders]


class TestEngine:
    def test_bad_chunk_size_rejected(self, instance):
        net, seq, placement = instance
        with pytest.raises(WorkloadError):
            SimulationEngine(StaticPlacementManager(net, placement), chunk_size=0)

    def test_object_universe_checked(self, instance):
        net, _seq, placement = instance
        seq = RequestSequence([RequestEvent(net.processors[0], 0, "read")], 99)
        with pytest.raises(WorkloadError):
            SimulationEngine(StaticPlacementManager(net, placement)).run(seq)

    def test_chunked_equals_eventwise(self, instance):
        net, seq, placement = instance
        accounts = []
        for chunk in (1, 3, None):
            engine = SimulationEngine(
                StaticPlacementManager(net, placement), chunk_size=chunk
            )
            accounts.append(engine.run(seq).account)
        for other in accounts[1:]:
            assert np.array_equal(accounts[0].edge_loads, other.edge_loads)
            assert accounts[0].congestion == other.congestion

    def test_result_counts_without_churn(self, instance):
        net, seq, placement = instance
        result = SimulationEngine(StaticPlacementManager(net, placement)).run(seq)
        assert result.n_events == len(seq)
        assert result.served == len(seq)
        assert result.dropped == 0
        assert result.n_mutations == 0

    def test_drops_and_mutations_with_churn(self, instance):
        net, seq, placement = instance
        victim = net.processors[0]
        trace = ChurnTrace([(0, DetachLeaf(victim))])
        drops = DropAccountingSink()
        result = SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(drops,)
        ).run(seq, trace)
        expected = sum(1 for ev in seq if ev.processor == victim)
        assert result.dropped == expected == drops.dropped
        assert result.served == len(seq) - expected == drops.served
        assert result.n_mutations == 1

    def test_out_of_universe_reference_rejected(self):
        net = single_bus(3)
        seq = RequestSequence([RequestEvent(99, 0, "read")], 1)
        with pytest.raises(WorkloadError, match="reference ids"):
            SimulationEngine(EdgeCounterManager(net, 1)).run(seq, ChurnTrace([]))

    def test_sink_hooks_fire(self, instance):
        net, seq, placement = instance

        class Recorder(CostBreakdownSink):
            def __init__(self):
                super().__init__()
                self.events = []

            def on_begin(self, sim):
                self.events.append("begin")

            def on_mutation(self, sim, outcome):
                self.events.append("mutation")

            def on_end(self, sim):
                super().on_end(sim)
                self.events.append("end")

        sink = Recorder()
        trace = ChurnTrace([(len(seq) // 2, AttachLeaf(0))])
        SimulationEngine(StaticPlacementManager(net, placement), sinks=(sink,)).run(
            seq, trace
        )
        assert sink.events[0] == "begin"
        assert sink.events[-1] == "end"
        assert "mutation" in sink.events
        assert sink.breakdown["total_load"] > 0
        assert sink.breakdown["management_load"] == 0


class TestTrajectorySink:
    def test_sampling_positions(self, instance):
        net, seq, placement = instance
        sink = TrajectorySink(10)
        SimulationEngine(StaticPlacementManager(net, placement), sinks=(sink,)).run(seq)
        assert sink.sample_times[-1] == len(seq)
        assert all(t % 10 == 0 for t in sink.sample_times[:-1])
        assert np.all(np.diff(sink.trajectory) >= 0)  # static never drops

    def test_invalid_sample_every(self):
        with pytest.raises(ValueError):
            TrajectorySink(0)


class TestRoundReplayDriver:
    def test_round_stats(self):
        from repro.core.loadstate import LoadState

        net = single_bus(4)
        state = LoadState(net)
        stats = RoundStatsSink()
        driver = RoundReplayDriver(state, sinks=(stats,))
        rounds = [np.array([0, 1]), np.array([2]), np.array([0])]
        assert driver.run(rounds) == 3
        assert stats.n_rounds == 3
        assert list(stats.delivered_per_round) == [2, 1, 1]
        # cumulative congestion is non-decreasing
        assert np.all(np.diff(stats.round_congestion) >= 0)
        assert state.edge_loads[0] == 2.0
