"""Unit tests for the simulation kernel (span timeline, protocol, engine, sinks)."""

import numpy as np
import pytest

from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import EdgeCounterManager, OnlineStrategy, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import InvalidEdgeError, SimulationError, WorkloadError
from repro.network.builders import balanced_tree, single_bus
from repro.network.mutation import AttachLeaf, ChurnTrace, DetachLeaf
from repro.sim.engine import EngineStream, RoundReplayDriver, SimulationEngine
from repro.sim.protocol import fleet_groups, validate_strategy
from repro.sim.sinks import (
    CostBreakdownSink,
    DropAccountingSink,
    MetricsSink,
    RoundStatsSink,
    TrajectorySink,
)
from repro.workload.generators import uniform_pattern
from tests.scalar_oracle import ReferenceOnlineCostAccount


@pytest.fixture
def instance():
    net = balanced_tree(2, 2, 2)
    pattern = uniform_pattern(net, 8, requests_per_processor=10, seed=0)
    seq = sequence_from_pattern(net, pattern, seed=1)
    placement = extended_nibble(net, pattern).placement
    return net, seq, placement


class SpanLog(MetricsSink):
    """Record the ``(start, stop)`` of every span and each mutation, in order."""

    def __init__(self, interval=None):
        self.interval = interval
        self.log = []

    def on_span(self, sim, start, stop, served, dropped):
        self.log.append((start, stop))

    def on_mutation(self, sim, outcome):
        self.log.append("mutation")

    @property
    def spans(self):
        return [item for item in self.log if item != "mutation"]


def _span_log(instance, trace=None, chunk_size=None, interval=None):
    net, seq, placement = instance
    log = SpanLog(interval)
    result = SimulationEngine(
        StaticPlacementManager(net, placement), sinks=(log,), chunk_size=chunk_size
    ).run(seq, trace)
    return log, result


class TestSpanTimeline:
    """The spans and mutations one replay shows its sinks: the timeline."""

    def test_plain_sequence_is_one_span(self, instance):
        log, _ = _span_log(instance)
        assert log.log == [(0, 40)]

    def test_chunk_grid(self, instance):
        log, _ = _span_log(instance, chunk_size=16)
        assert log.log == [(0, 16), (16, 32), (32, 40)]

    def test_sink_interval_splits_spans(self, instance):
        log, _ = _span_log(instance, interval=15)
        assert log.log == [(0, 15), (15, 30), (30, 40)]

    def test_mutations_split_spans_and_come_first(self, instance):
        trace = ChurnTrace([(0, AttachLeaf(0)), (5, AttachLeaf(0))])
        log, _ = _span_log(instance, trace)
        assert log.log == ["mutation", (0, 5), "mutation", (5, 40)]

    def test_late_mutations_after_last_span(self, instance):
        net, seq, placement = instance
        trace = ChurnTrace([(40, AttachLeaf(0)), (99, AttachLeaf(0))])
        log, sink = SpanLog(), TrajectorySink(7)
        SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(log, sink)
        ).run(seq, trace)
        assert log.log[-3:] == [(35, 40), "mutation", "mutation"]
        assert "mutation" not in log.log[:-2]
        # the forced final sample precedes the trailing mutations
        final = StaticPlacementManager(net, placement).run(seq).congestion
        assert sink.sample_times[-1] == 40 and sink.trajectory[-1] == final

    def test_empty_sequence_with_pending_mutations_runs_them_all(self, instance):
        net, _seq, placement = instance
        trace = ChurnTrace([(0, AttachLeaf(0)), (5, AttachLeaf(0))])
        log, sink = SpanLog(), TrajectorySink(10)
        result = SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(log, sink)
        ).run(RequestSequence([], 8), trace)
        assert log.log == ["mutation", "mutation"]
        assert result.n_events == result.served == result.dropped == 0
        assert result.n_mutations == 2
        assert result.network.n_nodes == net.n_nodes + 2
        assert len(sink.sample_times) == 0  # nothing served, nothing sampled

    def test_mutation_at_time_zero_precedes_every_event(self, instance):
        net, seq, placement = instance
        victim = net.processors[0]
        trace = ChurnTrace([(0, DetachLeaf(victim))])
        log, result = _span_log(instance, trace, chunk_size=5)
        assert log.log[0] == "mutation"
        assert log.spans == [(start, start + 5) for start in range(0, 40, 5)]
        # the detach lands before event 0: every victim request drops
        assert result.dropped == sum(1 for ev in seq if ev.processor == victim)

    def test_sink_interval_equal_to_chunk_grid_is_not_duplicated(self, instance):
        net, seq, placement = instance
        log, sink = SpanLog(4), TrajectorySink(4)
        SimulationEngine(
            StaticPlacementManager(net, placement), sinks=(log, sink), chunk_size=4
        ).run(seq)
        assert log.spans == [(start, start + 4) for start in range(0, 40, 4)]
        assert list(sink.sample_times) == list(range(4, 41, 4))

    def test_chunk_size_larger_than_sequence_is_one_span(self, instance):
        net, seq, placement = instance
        log, big = _span_log(instance, chunk_size=10 * len(seq))
        assert log.log == [(0, 40)]
        plain = SimulationEngine(StaticPlacementManager(net, placement)).run(seq)
        assert big.served == plain.served == len(seq)
        assert np.array_equal(big.account.edge_loads, plain.account.edge_loads)
        assert big.account.congestion == plain.account.congestion

    @pytest.mark.parametrize("chunk_size", [None, 4, 7])
    def test_no_zero_width_span(self, instance, chunk_size):
        """Ties, grid multiples, the last events and times past the end:
        the spans still tile the sequence, each at least one event wide."""
        trace = ChurnTrace(
            [(t, AttachLeaf(0)) for t in (0, 0, 8, 8, 13, 28, 39, 40, 41, 99)]
        )
        log, _ = _span_log(instance, trace, chunk_size=chunk_size, interval=6)
        spans = log.spans
        assert all(stop > start for start, stop in spans)
        assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == 40
        assert log.log.count("mutation") == 10
        assert log.log[-3:] == ["mutation"] * 3  # times 40, 41 and 99


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


    def test_fleet_groups_serve_a_lone_hooked_member_alone(
        self, instance, monkeypatch
    ):
        """Only two or more members of a hooked class share a group call;
        a lone member is served through its own ``serve_chunk``."""
        net, seq, placement = instance
        statics = [StaticPlacementManager(net, placement) for _ in range(2)]
        counter = EdgeCounterManager(net, seq.n_objects)
        groups = fleet_groups([statics[0], counter, statics[1]])
        assert groups == [(StaticPlacementManager, statics), (None, [counter])]

        def refuse(cls, members, sequence, start, stop):
            raise AssertionError("a lone member reached serve_chunk_fleet")

        monkeypatch.setattr(
            EdgeCounterManager, "serve_chunk_fleet", classmethod(refuse)
        )
        fleet = SimulationEngine.run_fleet([statics[0], counter, statics[1]], seq)
        alone = SimulationEngine(EdgeCounterManager(net, seq.n_objects)).run(seq)
        assert np.array_equal(fleet[1].account.edge_loads, alone.account.edge_loads)
        assert fleet[1].account.service_units == alone.account.service_units


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

    @pytest.mark.parametrize("chunk_size", [2.5, "4", True, 0, -3])
    @pytest.mark.parametrize("entry", ["engine", "run_fleet", "stream"])
    def test_chunk_size_must_be_a_positive_integer(self, instance, entry, chunk_size):
        """One rule at every entry: a journal header may carry any value."""
        net, seq, placement = instance
        strategy = StaticPlacementManager(net, placement)
        with pytest.raises(WorkloadError, match="chunk_size"):
            if entry == "engine":
                SimulationEngine(strategy, chunk_size=chunk_size)
            elif entry == "run_fleet":
                SimulationEngine.run_fleet([strategy], seq, chunk_size=chunk_size)
            else:
                EngineStream(strategy, chunk_size=chunk_size)
        assert not strategy.account.edge_loads.any()

    def test_numpy_integer_chunk_size_accepted(self, instance):
        net, seq, placement = instance
        engine = SimulationEngine(
            StaticPlacementManager(net, placement), chunk_size=np.int64(3)
        )
        assert engine.chunk_size == 3 and type(engine.chunk_size) is int
        assert engine.run(seq).served == len(seq)

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

    @pytest.mark.parametrize("bad", [-1, 4, 5])
    def test_refuses_an_edge_outside_the_network(self, bad):
        from repro.core.loadstate import LoadState

        net = single_bus(4)  # edges 0-3
        state = LoadState(net)
        stats = RoundStatsSink()
        driver = RoundReplayDriver(state, sinks=(stats,))
        with pytest.raises(InvalidEdgeError, match=f"round 1 holds edge id {bad},"):
            driver.run([np.array([0, 1]), np.array([2, bad])])
        # round 0 is charged, the refused round 1 is not
        assert state.edge_loads.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert state.verify_bus_loads()
        assert state.congestion == 1.0
        assert stats.n_rounds == 1
