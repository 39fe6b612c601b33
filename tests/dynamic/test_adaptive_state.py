"""Tests for the array-backed adaptive counter substrate.

Pins the two contracts :mod:`repro.dynamic.adaptive_state` makes:
exact dict-semantics transitions (the differential suites cover those
end to end; here the oracle's transitions) and the hygiene/memory
story -- the counter footprint is a function of the universe sizes,
never of the stream length, and ``unread_writes`` never accumulates
entries outside the holder mask.
"""

import numpy as np
import pytest

from repro.core.loadstate import StackedLoadState
from repro.dynamic.adaptive_state import AdaptiveState
from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import sequence_from_pattern
from repro.errors import WorkloadError
from repro.network.builders import balanced_tree
from repro.sim.engine import SimulationEngine
from repro.workload.generators import zipf_pattern
from tests.scalar_oracle import add_holder, drop_holder, materialise, serve_events, set_sole_holder


class TestTransitions:
    def test_materialise_and_holder_queries(self):
        state = AdaptiveState(3, 5)
        assert not state.touched(0)
        materialise(state, 0, 4)
        assert state.touched(0)
        assert state.holders_list(0) == [4]
        assert state.holders_set(0) == {4}

    def test_add_holder_resets_both_counters(self):
        state = AdaptiveState(2, 4)
        materialise(state, 0, 1)
        state.read_credit[0, 3] = 7
        state.unread_writes[0, 3] = 2
        add_holder(state, 0, 3)
        assert state.holders_list(0) == [1, 3]
        assert state.read_credit[0, 3] == 0
        assert state.unread_writes[0, 3] == 0

    def test_drop_holder_purges_unread_but_keeps_credit(self):
        # the dict implementation kept read_credit entries across
        # invalidations; the arrays must mirror that bit for bit
        state = AdaptiveState(1, 4)
        materialise(state, 0, 0)
        add_holder(state, 0, 2)
        state.read_credit[0, 2] = 5
        state.unread_writes[0, 2] = 1
        drop_holder(state, 0, 2)
        assert state.holders_list(0) == [0]
        assert state.read_credit[0, 2] == 5
        assert state.unread_writes[0, 2] == 0

    def test_set_sole_holder_wipes_unread_row(self):
        state = AdaptiveState(1, 5)
        materialise(state, 0, 0)
        add_holder(state, 0, 2)
        state.unread_writes[0, 0] = 3
        state.read_credit[0, 4] = 9
        set_sole_holder(state, 0, 4)
        assert state.holders_list(0) == [4]
        assert not state.unread_writes[0].any()
        assert state.read_credit[0, 4] == 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(WorkloadError):
            AdaptiveState(-1, 4)
        with pytest.raises(WorkloadError):
            AdaptiveState(2, 0)


class TestChurnReshaping:
    def test_grow_appends_zero_columns(self):
        state = AdaptiveState(2, 3)
        materialise(state, 0, 2)
        state.read_credit[0, 1] = 4
        state.grow(5)
        assert state.n_nodes == 5
        assert state.holders_list(0) == [2]
        assert state.read_credit[0, 1] == 4
        assert not state.holder_mask[:, 3:].any()

    def test_grow_cannot_shrink(self):
        state = AdaptiveState(1, 4)
        with pytest.raises(WorkloadError):
            state.grow(3)

    def test_remap_detach_gathers_and_reports_orphans(self):
        state = AdaptiveState(3, 4)
        materialise(state, 0, 3)  # loses its only copy with node 3
        materialise(state, 1, 1)  # survives, renumbered
        state.read_credit[1, 2] = 6
        node_map = np.array([0, 1, 2, -1])
        orphans = state.remap_detach(node_map, 3)
        assert orphans.tolist() == [0]
        assert state.holders_list(1) == [1]
        assert state.read_credit[1, 2] == 6
        state.rehome(0, 1)
        assert state.holders_list(0) == [1]


class TestHygieneSoak:
    """The soak-shaped memory contract of the adaptive strategies."""

    def _stream(self, net, n_objects, requests, seed):
        pattern = zipf_pattern(
            net, n_objects, requests_per_processor=requests, seed=seed
        )
        return sequence_from_pattern(net, pattern, seed=seed + 1)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda net, n: EdgeCounterManager(
                net, n, object_size=2, invalidation_patience=1
            ),
            lambda net, n: EdgeCounterManager(
                net, n, object_size=2, migrate_threshold=4
            ),
            lambda net, n: EdgeCounterManager(
                net, n, replicate_threshold=3, migrate_threshold=2
            ),
        ],
        ids=["edge-counter", "hysteresis", "rent-or-buy"],
    )
    def test_memory_bounded_in_stream_length(self, factory):
        # serve a short and a 4x longer thrashy stream: the strategy
        # footprint may differ only by cached nearest tables, whose count
        # is capped, never by per-event growth
        net = balanced_tree(2, 3, 2)
        n_objects = 12
        manager = factory(net, n_objects)
        manager.run(self._stream(net, n_objects, 8, seed=3), chunk_size=1)
        short_bytes = manager.memory_bytes()
        assert short_bytes > 0

        longer = factory(net, n_objects)
        longer.run(self._stream(net, n_objects, 32, seed=3), chunk_size=1)
        cap = longer._MAX_HOLDER_TABLES * net.n_nodes * np.int64().nbytes
        assert longer.memory_bytes() <= short_bytes + cap

    def test_unread_writes_zero_outside_holder_mask(self):
        # the hygiene invariant: invalidation/migration purge counters,
        # so unread_writes never accumulates entries for non-holders
        net = balanced_tree(2, 3, 2)
        manager = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        manager.run(self._stream(net, 16, 24, seed=7), chunk_size=1)
        adaptive = manager._adaptive
        assert not adaptive.unread_writes[~adaptive.holder_mask].any()
        assert np.array_equal(
            adaptive.n_holders,
            adaptive.holder_mask.sum(axis=1, dtype=np.int64),
        )

    def test_chunked_replay_obeys_the_same_hygiene(self):
        net = balanced_tree(2, 3, 2)
        sequence = self._stream(net, 16, 24, seed=11)
        manager = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        manager.serve_chunk(sequence, 0, len(sequence.events))
        adaptive = manager._adaptive
        assert not adaptive.unread_writes[~adaptive.holder_mask].any()

    def test_holder_table_cache_is_capped(self):
        net = balanced_tree(2, 3, 2)
        sequence = self._stream(net, 16, 24, seed=13)
        manager = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        manager._MAX_HOLDER_TABLES = 1  # force constant cache churn
        step = 8
        for start in range(0, len(sequence.events), step):
            manager.serve_chunk(
                sequence, start, min(start + step, len(sequence.events))
            )
        # the cap wipes the cache at every chunk start, so what survives
        # is one chunk's worth of distinct holder sets -- never the
        # stream's accumulation
        assert len(manager._tables_by_holders) <= step

        reference = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        serve_events(reference, sequence)
        for obj in range(16):
            assert manager.holders(obj) == reference.holders(obj)
        assert manager.account.congestion == reference.account.congestion

        # the fleet's fill step reads the cap per lane: only the lane that
        # lowered it keeps a small cache, and both lanes stay exact
        capped, free = (
            EdgeCounterManager(net, 16, object_size=2, invalidation_patience=1)
            for _ in range(2)
        )
        capped._MAX_HOLDER_TABLES = 1
        SimulationEngine.run_fleet([capped, free], sequence, chunk_size=step)
        assert len(capped._tables_by_holders) <= step < len(free._tables_by_holders)
        for lane in (capped, free):
            assert lane.account.congestion == reference.account.congestion
            for obj in range(16):
                assert lane.holders(obj) == reference.holders(obj)

    def test_steiner_entry_cache_is_capped(self, monkeypatch):
        net = balanced_tree(2, 3, 2)
        sequence = self._stream(net, 16, 24, seed=13)
        manager = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        stack = manager.account.state.stack
        monkeypatch.setattr(StackedLoadState, "_MAX_STEINER_ENTRIES", 1)
        sizes = []
        step = 8
        for start in range(0, len(sequence.events), step):
            manager.serve_chunk(
                sequence, start, min(start + step, len(sequence.events))
            )
            sizes.append(len(stack._steiner_cache))
        # the cap clears the cache before each new entry, so it never holds
        # more than the one set a chunk last charged
        assert max(sizes) == 1

        reference = EdgeCounterManager(
            net, 16, object_size=2, invalidation_patience=1
        )
        serve_events(reference, sequence)
        for obj in range(16):
            assert manager.holders(obj) == reference.holders(obj)
        assert np.array_equal(
            manager.account.edge_loads, reference.account.edge_loads
        )
        assert manager.account.congestion == reference.account.congestion

        # the cached entries are part of the substrate's footprint
        cached = sum(a.nbytes for e in stack._steiner_cache.values() for a in e)
        assert cached
        assert stack.memory_bytes() == StackedLoadState(net, 1).memory_bytes() + cached

    def test_state_memory_bytes_matches_array_sum(self):
        state = AdaptiveState(6, 9)
        expected = (
            state.holder_mask.nbytes
            + state.read_credit.nbytes
            + state.unread_writes.nbytes
            + state.n_holders.nbytes
        )
        assert state.memory_bytes() == expected
