"""Property-based parity tests for the vectorized congestion engine.

The vectorized kernels in :mod:`repro.core.pathmatrix` and the rewritten
hot paths of :mod:`repro.core.congestion` must agree *exactly* (same float
values, not just approximately) with the retained scalar reference
implementations (``reference_compute_loads`` /
``reference_object_edge_loads`` of :mod:`tests.scalar_oracle`) on
randomized networks, placements and split request assignments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.baselines import full_replication_placement, random_placement
from repro.errors import ReproError
from repro.network.builders import balanced_tree
from repro.core.congestion import batch_congestions, compute_loads, object_edge_loads
from repro.core.extended_nibble import extended_nibble
from repro.core.placement import Placement, RequestAssignment, Share
from tests.conftest import instances, networks
from tests.scalar_oracle import reference_compute_loads, reference_object_edge_loads

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_redundant_placement(network, pattern, seed):
    """A placement giving every object a random non-empty leaf subset."""
    rng = np.random.default_rng(seed)
    procs = list(network.processors)
    holders = []
    for _ in range(pattern.n_objects):
        k = int(rng.integers(1, len(procs) + 1))
        holders.append(list(rng.choice(procs, size=k, replace=False)))
    return Placement(holders)


def split_assignment(network, pattern, placement, seed):
    """An assignment that splits each pair's requests across random holders."""
    rng = np.random.default_rng(seed)
    shares = {}
    for obj in range(pattern.n_objects):
        holders = sorted(placement.holders(obj))
        for proc in pattern.requesters(obj):
            reads = pattern.reads_of(proc, obj)
            writes = pattern.writes_of(proc, obj)
            chosen = rng.choice(holders, size=min(2, len(holders)), replace=False)
            entries = []
            if len(chosen) == 1 or reads + writes < 2:
                entries.append(Share(int(chosen[0]), reads, writes))
            else:
                r0 = int(rng.integers(0, reads + 1))
                w0 = int(rng.integers(0, writes + 1))
                entries.append(Share(int(chosen[0]), r0, w0))
                entries.append(Share(int(chosen[1]), reads - r0, writes - w0))
            shares[(proc, obj)] = [s for s in entries if s.total > 0] or entries[:1]
    return RequestAssignment(shares, pattern.n_objects)


class TestStructuralParity:
    @given(net=networks())
    @settings(**SETTINGS)
    def test_lca_distance_and_steiner_match_rooted(self, net):
        rooted = net.rooted()
        pm = rooted.path_matrix()
        rng = np.random.default_rng(net.n_nodes)
        u = rng.integers(0, net.n_nodes, size=32)
        v = rng.integers(0, net.n_nodes, size=32)
        expected_lca = [rooted.lca(int(a), int(b)) for a, b in zip(u, v)]
        assert pm.lca(u, v).tolist() == expected_lca
        expected_dist = [rooted.distance(int(a), int(b)) for a, b in zip(u, v)]
        assert pm.distances(u, v).tolist() == expected_dist
        terminals = list(rng.choice(net.n_nodes, size=min(4, net.n_nodes), replace=False))
        assert (
            np.flatnonzero(pm.steiner_edge_loads([terminals], [1]) > 0).tolist()
            == sorted(rooted.steiner_edge_ids(terminals))
        )

    @given(net=networks())
    @settings(**SETTINGS)
    def test_nearest_in_set_matches_rooted(self, net):
        rooted = net.rooted()
        pm = rooted.path_matrix()
        rng = np.random.default_rng(net.n_nodes + 1)
        candidates = list(
            rng.choice(net.n_nodes, size=min(3, net.n_nodes), replace=False)
        )
        nodes = np.arange(net.n_nodes)
        got = pm.nearest_in_set(nodes, candidates)
        expected = [rooted.nearest_in_set(int(v), candidates) for v in nodes]
        assert got.tolist() == expected


class TestCongestionParity:
    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_single_holder_placements(self, inst, seed):
        net, pat = inst
        placement = random_placement(net, pat, seed=seed)
        vec = compute_loads(net, pat, placement)
        ref = reference_compute_loads(net, pat, placement)
        assert np.array_equal(vec.edge_loads, ref.edge_loads)
        assert np.array_equal(vec.bus_loads, ref.bus_loads)
        assert vec.congestion == ref.congestion

    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_redundant_placements(self, inst, seed):
        net, pat = inst
        placement = random_redundant_placement(net, pat, seed)
        vec = compute_loads(net, pat, placement)
        ref = reference_compute_loads(net, pat, placement)
        assert np.array_equal(vec.edge_loads, ref.edge_loads)
        assert np.array_equal(vec.bus_loads, ref.bus_loads)

    @given(inst=instances())
    @settings(**SETTINGS)
    def test_full_replication(self, inst):
        net, pat = inst
        placement = full_replication_placement(net, pat)
        vec = compute_loads(net, pat, placement)
        ref = reference_compute_loads(net, pat, placement)
        assert np.array_equal(vec.edge_loads, ref.edge_loads)
        assert np.array_equal(vec.bus_loads, ref.bus_loads)

    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_split_assignments(self, inst, seed):
        net, pat = inst
        placement = random_redundant_placement(net, pat, seed)
        assignment = split_assignment(net, pat, placement, seed + 1)
        vec = compute_loads(net, pat, placement, assignment=assignment)
        ref = reference_compute_loads(net, pat, placement, assignment=assignment)
        assert np.array_equal(vec.edge_loads, ref.edge_loads)
        assert np.array_equal(vec.bus_loads, ref.bus_loads)

    @given(inst=instances())
    @settings(**SETTINGS)
    def test_extended_nibble_assignment(self, inst):
        net, pat = inst
        result = extended_nibble(net, pat)
        vec = compute_loads(net, pat, result.placement, assignment=result.assignment)
        ref = reference_compute_loads(
            net, pat, result.placement, assignment=result.assignment
        )
        assert np.array_equal(vec.edge_loads, ref.edge_loads)
        assert np.array_equal(vec.bus_loads, ref.bus_loads)

    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_per_object_loads_sum_to_total(self, inst, seed):
        net, pat = inst
        placement = random_redundant_placement(net, pat, seed)
        per_object = [
            object_edge_loads(net, pat, placement, obj)
            for obj in range(pat.n_objects)
        ]
        reference = [
            reference_object_edge_loads(net, pat, placement, obj)
            for obj in range(pat.n_objects)
        ]
        for vec, ref in zip(per_object, reference):
            assert np.array_equal(vec, ref)
        total = compute_loads(net, pat, placement)
        assert np.allclose(np.sum(per_object, axis=0), total.edge_loads)


class TestBatchParity:
    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_batch_matches_sequential(self, inst, seed):
        net, pat = inst
        placements = [
            random_placement(net, pat, seed=seed),
            random_redundant_placement(net, pat, seed + 1),
            full_replication_placement(net, pat),
        ]
        batch = batch_congestions(net, pat, placements)
        sequential = [
            reference_compute_loads(net, pat, p, validate=False).congestion
            for p in placements
        ]
        assert batch.tolist() == sequential

    @given(inst=instances())
    @settings(**SETTINGS)
    def test_batch_with_explicit_assignments(self, inst):
        net, pat = inst
        result = extended_nibble(net, pat)
        batch = batch_congestions(
            net,
            pat,
            [result.placement, result.placement],
            assignments=[result.assignment, None],
        )
        with_assignment = reference_compute_loads(
            net, pat, result.placement, assignment=result.assignment
        ).congestion
        nearest = reference_compute_loads(net, pat, result.placement).congestion
        assert batch[0] == with_assignment
        assert batch[1] == nearest

    def test_empty_batch(self, small_bus):
        from repro.workload.generators import uniform_pattern

        pat = uniform_pattern(small_bus, 2, seed=0)
        assert batch_congestions(small_bus, pat, []).shape == (0,)


class TestLaneKernels:
    """The fleet kernels agree with their per-lane scalar counterparts."""

    def test_blocked_distances_match_on_demand_lca(self):
        net = balanced_tree(2, 3, 2)
        pm = net.rooted().path_matrix()
        ids = np.arange(net.n_nodes)
        expected = pm._depth[ids[:, None]] + pm._depth[ids[None, :]] - (
            2 * pm._depth[pm.lca(ids[:, None], ids[None, :])]
        )
        # the full cross product goes through the blocked path unchanged
        full = pm.distances(ids[:, None], ids[None, :])
        assert np.array_equal(full, expected)
        u = np.array([0, 3, 5])
        v = np.array([7, 7, 0])
        assert np.array_equal(pm.distances(u, v), expected[u, v])

    def test_blocked_distances_span_multiple_blocks(self):
        net = balanced_tree(2, 3, 2)
        pm = net.rooted().path_matrix()
        old_block = pm._DIST_BLOCK
        try:
            type(pm)._DIST_BLOCK = 7  # force several partial blocks
            rng = np.random.default_rng(11)
            u = rng.integers(0, net.n_nodes, size=53)
            v = rng.integers(0, net.n_nodes, size=53)
            blocked = pm.distances(u, v)
        finally:
            type(pm)._DIST_BLOCK = old_block
        assert np.array_equal(blocked, pm.distances(u, v))

    def test_pair_edge_loads_lanes_matches_per_lane_columns(self):
        rng = np.random.default_rng(5)
        net = balanced_tree(2, 3, 2)
        pm = net.rooted().path_matrix()
        procs = np.asarray(net.processors)
        u = rng.choice(procs, size=40)
        targets = rng.choice(procs, size=(40, 6))
        w = rng.integers(1, 5, size=40).astype(np.float64)
        stacked = pm.pair_edge_loads_lanes(u, targets, w)
        for lane in range(targets.shape[1]):
            expected = pm.pair_edge_loads(u, targets[:, lane], w)
            assert np.array_equal(stacked[:, lane], expected)

    def test_pair_deltas_lanes_shape_guard(self):
        net = balanced_tree(2, 2, 2)
        pm = net.rooted().path_matrix()
        with pytest.raises(ReproError):
            pm.pair_deltas_lanes(np.array([0, 1]), np.array([0, 1]), np.ones(2))
