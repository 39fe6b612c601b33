"""Property-based parity tests for the incremental load-state engine.

The incremental :class:`repro.core.loadstate.LoadState` (and the
:class:`repro.dynamic.online.OnlineCostAccount` facade on top of it) must
agree *exactly* -- same float values, not just approximately -- with the
retained scalar replay (``ReferenceOnlineCostAccount`` and the scalar serve
loop of :mod:`tests.scalar_oracle`) and with the
static batch evaluator (:func:`repro.core.congestion.compute_loads`) on
randomized networks, request sequences and interleaved
migrate/replicate/invalidate traffic.  All charged quantities are
integer-valued, so bit-for-bit equality is achievable and asserted.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.congestion import compute_loads
from repro.core.extended_nibble import extended_nibble
from repro.core.loadstate import LoadState
from repro.dynamic.online import (
    EdgeCounterManager,
    OnlineCostAccount,
    StaticPlacementManager,
)
from repro.dynamic.sequence import sequence_from_pattern
from tests.conftest import instances, networks
from tests.scalar_oracle import ReferenceOnlineCostAccount, charge_path, serve_events

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_accounts_equal(incremental, reference):
    """Bit-for-bit comparison of an incremental and a scalar account."""
    assert np.array_equal(incremental.edge_loads, reference.edge_loads)
    assert np.array_equal(incremental.bus_loads, reference.bus_loads)
    assert incremental.congestion == reference.congestion
    assert incremental.total_load == reference.total_load
    assert incremental.service_units == reference.service_units
    assert incremental.management_units == reference.management_units


class TestChargeParity:
    @given(net=networks(), data=st.data())
    @settings(**SETTINGS)
    def test_interleaved_path_and_steiner_charges(self, net, data):
        """Random charge streams hit both accounts identically."""
        rooted = net.rooted()
        incremental = OnlineCostAccount(net)
        reference = ReferenceOnlineCostAccount(net)
        n_ops = data.draw(st.integers(min_value=0, max_value=25))
        for _ in range(n_ops):
            kind = data.draw(st.sampled_from(["path", "steiner"]))
            amount = data.draw(st.integers(min_value=0, max_value=6))
            management = data.draw(st.booleans())
            if kind == "path":
                src = data.draw(st.integers(0, net.n_nodes - 1))
                dst = data.draw(st.integers(0, net.n_nodes - 1))
                charge_path(incremental, rooted, src, dst, amount, management)
                charge_path(reference, rooted, src, dst, amount, management)
            else:
                k = data.draw(st.integers(1, min(4, net.n_nodes)))
                terminals = data.draw(
                    st.lists(
                        st.integers(0, net.n_nodes - 1),
                        min_size=k,
                        max_size=k,
                    )
                )
                incremental.charge_steiner(rooted, terminals, amount, management)
                reference.charge_steiner(rooted, terminals, amount, management)
            # the congestion read in the middle of the stream is the
            # streaming pattern: lazily-repaired max vs full rescan
            assert incremental.congestion == reference.congestion
        assert_accounts_equal(incremental, reference)

    @given(inst=instances())
    @settings(**SETTINGS)
    def test_edge_counter_strategy_parity(self, inst):
        """The adaptive strategy (replication, invalidation, migration)
        produces identical accounts on both engines."""
        net, pattern = inst
        seq = sequence_from_pattern(net, pattern, seed=net.n_nodes)
        incremental = EdgeCounterManager(net, pattern.n_objects, object_size=2)
        reference = EdgeCounterManager(
            net,
            pattern.n_objects,
            object_size=2,
            account=ReferenceOnlineCostAccount(net),
        )
        incremental.run(seq)
        serve_events(reference, seq)
        # decisions depend only on the event stream, so the holder sets and
        # the cost accounts must both agree exactly
        for obj in range(pattern.n_objects):
            assert incremental.holders(obj) == reference.holders(obj)
        assert_accounts_equal(incremental.account, reference.account)


class TestStaticReplayParity:
    @given(inst=instances(), chunk=st.integers(min_value=1, max_value=64))
    @settings(**SETTINGS)
    def test_event_chunk_and_static_model_agree(self, inst, chunk):
        """Event replay == chunked batch replay == static compute_loads."""
        net, pattern = inst
        seq = sequence_from_pattern(net, pattern, seed=net.n_nodes + 1)
        placement = extended_nibble(net, pattern).placement

        event = StaticPlacementManager(net, placement).run(seq)
        batch = StaticPlacementManager(net, placement).run(seq, chunk_size=chunk)
        reference = serve_events(
            StaticPlacementManager(
                net, placement, account=ReferenceOnlineCostAccount(net)
            ),
            seq,
        )

        assert np.array_equal(event.edge_loads, batch.edge_loads)
        assert event.congestion == batch.congestion
        assert event.service_units == batch.service_units
        assert event.management_units == batch.management_units
        assert_accounts_equal(event, reference)

        # serving the shuffled pattern from a fixed placement reproduces the
        # static cost model bit-for-bit (nearest-copy assignment)
        static = compute_loads(net, pattern, placement)
        assert np.array_equal(event.edge_loads, static.edge_loads)
        assert np.array_equal(event.bus_loads, static.bus_loads)
        assert event.congestion == static.congestion


class TestSnapshotRollback:
    @given(net=networks(), data=st.data())
    @settings(**SETTINGS)
    def test_rollback_restores_state_exactly(self, net, data):
        """Any mix of deltas under a snapshot rolls back bit-for-bit."""
        state = LoadState(net)
        rng = np.random.default_rng(net.n_nodes)
        # pre-charge some baseline traffic
        for _ in range(5):
            u, v = rng.integers(0, net.n_nodes, size=2)
            state.apply_pairs([u], [v], [float(rng.integers(1, 5))])
        before_loads = state.edge_loads.copy()
        before_bus = state.bus_loads.copy()
        before_congestion = state.congestion

        snap = state.snapshot()
        n_ops = data.draw(st.integers(min_value=0, max_value=12))
        for _ in range(n_ops):
            kind = data.draw(st.sampled_from(["path", "steiner", "vector", "edges"]))
            amount = float(data.draw(st.integers(min_value=-4, max_value=6)))
            if kind == "path":
                u = data.draw(st.integers(0, net.n_nodes - 1))
                v = data.draw(st.integers(0, net.n_nodes - 1))
                state.apply_pairs([u], [v], [amount])
            elif kind == "steiner":
                k = data.draw(st.integers(2, min(4, max(2, net.n_nodes))))
                terms = [
                    data.draw(st.integers(0, net.n_nodes - 1)) for _ in range(k)
                ]
                state.apply_steiner(terms, amount)
            elif kind == "vector":
                vec = rng.integers(0, 4, size=net.n_edges).astype(np.float64)
                state.apply_edge_loads(vec)
            else:
                ids = rng.integers(0, max(1, net.n_edges), size=3)
                if net.n_edges:
                    state.apply_edges(ids, amount)
            # the incrementally maintained bus loads stay consistent with a
            # from-scratch CSR recomputation at every step
            assert state.verify_bus_loads()
        state.rollback(snap)

        assert np.array_equal(state.edge_loads, before_loads)
        assert np.array_equal(state.bus_loads, before_bus)
        assert state.congestion == before_congestion

    @given(net=networks())
    @settings(**SETTINGS)
    def test_nested_snapshots_and_commit(self, net):
        state = LoadState(net)
        procs = list(net.processors)
        state.apply_pairs([procs[0]], [procs[-1]], [3.0])
        base = state.edge_loads.copy()

        outer = state.snapshot()
        state.apply_pairs([procs[0]], [procs[-1]], [2.0])
        mid = state.edge_loads.copy()
        inner = state.snapshot()
        state.apply_pairs([procs[-1]], [procs[0]], [5.0])
        state.rollback(inner)
        assert np.array_equal(state.edge_loads, mid)
        state.rollback(outer)
        assert np.array_equal(state.edge_loads, base)

        committed = state.snapshot()
        state.apply_pairs([procs[0]], [procs[-1]], [1.0])
        state.commit(committed)
        assert state.total_load == base.sum() + net.rooted().distance(
            procs[0], procs[-1]
        )

    @given(inst=instances())
    @settings(**SETTINGS)
    def test_trial_congestions_match_tentative_apply(self, inst):
        """Read-only trial scoring == apply + read + rollback."""
        net, pattern = inst
        state = LoadState(net)
        rng = np.random.default_rng(pattern.n_objects)
        base = rng.integers(0, 4, size=net.n_edges).astype(np.float64)
        state.apply_edge_loads(base)
        cols = rng.integers(0, 5, size=(net.n_edges, 4)).astype(np.float64)
        scores = state.trial_congestions(cols)
        for k in range(cols.shape[1]):
            snap = state.snapshot()
            state.apply_edge_loads(cols[:, k].copy())
            assert scores[k] == state.congestion
            state.rollback(snap)
