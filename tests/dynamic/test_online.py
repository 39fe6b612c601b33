"""Tests for the online strategies and their cost accounting."""

import tracemalloc

import numpy as np
import pytest

from repro.core.congestion import compute_loads
from repro.core.extended_nibble import extended_nibble
from repro.core.placement import Placement
from repro.dynamic.online import (
    EdgeCounterManager,
    OnlineCostAccount,
    StaticPlacementManager,
)
from repro.dynamic.sequence import RequestEvent, RequestSequence, sequence_from_pattern
from repro.errors import PlacementError, WorkloadError
from repro.network.builders import balanced_tree, single_bus, star_of_buses
from repro.sim.scenario import _build_strategies
from repro.workload.generators import uniform_pattern, zipf_pattern


def hysteresis(net, n_objects, **args):
    """The strategy of a ``hysteresis`` scenario spec, built as the
    scenario registry builds it."""
    spec = {"kind": "hysteresis", "args": args}
    [(_label, factory)] = _build_strategies(net, RequestSequence([], n_objects), [spec])
    return factory()


class TestCostAccount:
    def test_path_and_steiner_charging(self):
        net = star_of_buses(2, 2)
        rooted = net.rooted()
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[-1]
        account.charge_pairs([p], [q], [2.0])
        assert account.total_load == 2.0 * rooted.distance(p, q)
        steiner = rooted.steiner_edge_ids([p, q])
        assert account.state.apply_steiner([p, q], 1) == len(steiner)
        assert account.total_load == 2.0 * rooted.distance(p, q) + len(steiner)
        account.charge_pairs([q], [p], [1], management=True)
        assert account.management_units == rooted.distance(p, q)
        assert account.congestion > 0

    def test_zero_amount_ignored(self):
        net = single_bus(3)
        rooted = net.rooted()
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[1]
        assert account.state.apply_steiner([p, q], 0) > 0
        assert account.state.apply_steiner([p, p], 5) == 0
        account.charge_pairs([p], [q], [0])
        account.charge_pairs([p], [p], [5])
        assert account.total_load == 0.0
        assert account.service_units == 0

    def test_fractional_amounts_rejected_at_api_boundary(self):
        # the integer-valued-loads invariant (ARCHITECTURE.md invariant 2)
        # is enforced by the cost account, not just by convention
        net = single_bus(3)
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[1]
        with pytest.raises(WorkloadError, match="integer-valued"):
            account.charge_pairs([p], [q], [0.25])
        assert account.total_load == 0.0

    def test_integer_valued_floats_accepted_and_booked_as_ints(self):
        net = single_bus(3)
        rooted = net.rooted()
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[1]
        account.charge_pairs([p], [q], [3.0])
        account.charge_pairs([p], [q], np.array([2.0]))
        assert isinstance(account.service_units, int)
        assert account.service_units == 5 * rooted.distance(p, q)


class TestStaticPlacementManager:
    def test_matches_static_congestion_model(self):
        """Serving a shuffled pattern from a fixed placement reproduces the
        static cost model's loads exactly (nearest-copy assignment)."""
        net = balanced_tree(2, 2, 2)
        pattern = uniform_pattern(net, 8, requests_per_processor=8, seed=0)
        seq = sequence_from_pattern(net, pattern, seed=1)
        result = extended_nibble(net, pattern)
        manager = StaticPlacementManager(net, result.placement)
        account = manager.run(seq)
        static = compute_loads(net, pattern, result.placement)
        assert np.allclose(account.edge_loads, static.edge_loads)
        assert account.congestion == pytest.approx(static.congestion)

    def test_rejects_bus_holders(self):
        net = single_bus(3)
        with pytest.raises(PlacementError):
            StaticPlacementManager(net, Placement.single_holder([net.buses[0]]))

    def test_holders_are_fixed(self):
        net = single_bus(3)
        placement = Placement.single_holder([net.processors[0], net.processors[1]])
        manager = StaticPlacementManager(net, placement)
        seq = RequestSequence(
            [RequestEvent(net.processors[2], 0, "read")] * 5, n_objects=2
        )
        manager.run(seq)
        assert manager.holders(0) == {net.processors[0]}

    def test_nearest_tables_take_the_memory_of_the_tables(self):
        """The offline-static shape (1024 leaves, 128 Zipf objects, the
        hindsight placement): building the placement's two tables peaks at
        the tables themselves, not at a processors x holders block or an
        unblocked nodes x sets indicator."""
        net = balanced_tree(4, 4, 16)
        pattern = zipf_pattern(
            net, 128, requests_per_processor=48, write_fraction=0.1, seed=7
        )
        manager = StaticPlacementManager(net, extended_nibble(net, pattern).placement)
        tracemalloc.start()
        try:
            tables = manager.tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = sum(a.nbytes for a in tables)
        assert tables.row_of.shape == (pattern.n_objects,)
        assert tables.nearest.shape[0] <= pattern.n_objects
        assert peak < 2 * table_bytes + 2**20, (peak, table_bytes)
        rooted = net.rooted()
        for obj in (0, 1, 77):
            holders = manager._placement.holders(obj)
            row = tables.nearest[tables.row_of[obj]]
            assert all(
                row[p] == rooted.nearest_in_set(p, holders) for p in net.processors[::37]
            )


def _serve(manager, proc, kind, times=1):
    """Serve ``times`` one-event spans ``(proc, object 0, kind)``."""
    seq = RequestSequence([RequestEvent(proc, 0, kind)], manager.n_objects)
    for _ in range(times):
        manager.serve_chunk(seq, 0, 1)


class TestEdgeCounterManager:
    def test_first_touch_places_object_locally(self):
        net = single_bus(3)
        manager = EdgeCounterManager(net, 1, object_size=3)
        p = net.processors[0]
        _serve(manager, p, "read")
        assert manager.holders(0) == {p}
        # a local read costs nothing
        assert manager.account.total_load == 0.0

    def test_repeated_remote_reads_trigger_replication(self):
        net = single_bus(3)
        p_owner, p_reader, _ = net.processors
        manager = EdgeCounterManager(net, 1, object_size=3)
        _serve(manager, p_owner, "write")
        _serve(manager, p_reader, "read", times=3)
        assert p_reader in manager.holders(0)
        # afterwards, reads from the replica are free
        before = manager.account.total_load
        _serve(manager, p_reader, "read")
        assert manager.account.total_load == before

    def test_writes_invalidate_unused_replicas(self):
        net = single_bus(3)
        p_owner, p_reader, _ = net.processors
        manager = EdgeCounterManager(net, 1, object_size=2, invalidation_patience=2)
        _serve(manager, p_owner, "write")
        _serve(manager, p_reader, "read", times=2)
        assert p_reader in manager.holders(0)
        _serve(manager, p_owner, "write", times=3)
        assert p_reader not in manager.holders(0)
        assert len(manager.holders(0)) >= 1

    def test_persistent_remote_writer_attracts_migration(self):
        net = single_bus(3)
        p_owner, p_writer, _ = net.processors
        manager = EdgeCounterManager(net, 1, object_size=2)
        _serve(manager, p_owner, "read")
        _serve(manager, p_writer, "write", times=4)
        assert manager.holders(0) == {p_writer}

    def test_invalid_parameters(self):
        net = single_bus(3)
        with pytest.raises(WorkloadError):
            EdgeCounterManager(net, 1, object_size=0)
        with pytest.raises(WorkloadError):
            EdgeCounterManager(net, 1, invalidation_patience=0)
        with pytest.raises(PlacementError):
            EdgeCounterManager(
                net, 2, initial_placement=Placement.single_holder([net.processors[0]])
            )

    @pytest.mark.parametrize("bad", [2.5, True, "3", 0])
    @pytest.mark.parametrize(
        "strategy, parameter, attribute, expected",
        [
            (EdgeCounterManager, "object_size", "object_size", 3),
            (EdgeCounterManager, "invalidation_patience", "invalidation_patience", 3),
            # 3 times the default copy cost of 4
            (hysteresis, "migration_factor", "migrate_threshold", 12),
            (EdgeCounterManager, "replicate_threshold", "replicate_threshold", 3),
            (EdgeCounterManager, "migrate_threshold", "migrate_threshold", 3),
        ],
    )
    def test_count_parameters_are_never_truncated(
        self, strategy, parameter, attribute, expected, bad
    ):
        net = single_bus(3)
        with pytest.raises(WorkloadError, match=parameter):
            strategy(net, 1, **{parameter: bad})
        for good in (3, np.int64(3), 3.0):
            manager = strategy(net, 1, **{parameter: good})
            value = getattr(manager, attribute)
            assert value == expected and type(value) is int

    def test_thresholds_follow_the_validated_parameters(self):
        net = single_bus(3)
        default = EdgeCounterManager(net, 1, object_size=5.0)
        assert (default.replicate_threshold, default.migrate_threshold) == (5, 5)
        damped = hysteresis(net, 1, object_size=2.0, migration_factor=3)
        assert (damped.replicate_threshold, damped.migrate_threshold) == (2, 6)
        rent = EdgeCounterManager(net, 1, replicate_threshold=np.int32(2))
        assert (rent.replicate_threshold, rent.migrate_threshold) == (2, 2)

    def test_initial_placement_respected(self):
        net = single_bus(3)
        placement = Placement.single_holder([net.processors[1]])
        manager = EdgeCounterManager(net, 1, initial_placement=placement)
        assert manager.holders(0) == {net.processors[1]}

    def test_sequence_with_too_many_objects_rejected(self):
        net = single_bus(3)
        manager = EdgeCounterManager(net, 1)
        seq = RequestSequence([RequestEvent(net.processors[0], 1, "read")], 2)
        with pytest.raises(WorkloadError):
            manager.run(seq)


class TestIntegerValidationHoist:
    """The invariant-2 checks run once per batch, not per event, and
    integer arrays skip the modulo scan -- without loosening anything."""

    def test_numpy_integer_amounts_accepted(self):
        net = single_bus(3)
        rooted = net.rooted()
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[1]
        account.charge_pairs([p], [q], [np.int64(2)])
        account.charge_pairs([p], [q], np.array([3], dtype=np.int64))
        assert isinstance(account.service_units, int)
        assert account.service_units == 5 * rooted.distance(p, q)

    def test_integer_dtype_batches_skip_the_modulo_scan(self):
        from repro.dynamic.online import _integer_weights

        out = _integer_weights(np.array([1, 2, 3], dtype=np.int64))
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_fractional_batch_weights_still_raise(self):
        from repro.dynamic.online import _integer_weights

        with pytest.raises(WorkloadError, match="integer-valued"):
            _integer_weights(np.array([1.0, 2.5]))
        net = single_bus(3)
        account = OnlineCostAccount(net)
        p, q = net.processors[0], net.processors[1]
        with pytest.raises(WorkloadError, match="integer-valued"):
            account.charge_pairs([p], [q], np.array([0.5]))
        assert account.total_load == 0.0
