"""Differential fuzz harness: incremental repair equals from-scratch rebuild.

Extends invariant 1 of ARCHITECTURE.md to the mutation layer (invariant 5:
"repair equals rebuild, bit-for-bit").  Seeded random interleavings of
topology mutations and request replay are driven through the incremental
repair paths of ``RootedTree`` / ``PathMatrix`` / ``LoadState``; after
every mutation the repaired substrate must equal a from-scratch rebuild:

* the repaired rooted view matches a fresh ``RootedTree`` traversal
  (parents, parent edges, depths, subtree sizes, children, and a valid
  preorder);
* the repaired ``PathMatrix`` matches a fresh construction **bit-for-bit**
  (CSR root-path incidence, binary-lifting table, endpoint arrays);
* the repaired ``LoadState`` matches a fresh state charged with the
  surviving edge loads (fused loads, denominators, congestion, incident
  CSR) and its nearest-copy resolution agrees with the fresh path matrix;
* the array-pass tree queries (subtree sums, Steiner edges, the nibble
  selections) equal their per-node loop references on the repaired view;
* snapshot/rollback round-trips still work on the repaired state, while
  rolling back across a mutation raises a clear ``ReproError``;
* the network ``apply_mutation`` derives from its parent's columns equals
  the node-by-node constructor rebuild it replaced (kept verbatim as
  ``reference_apply_mutation``) exactly, through public accessors, and
  every earlier network of the chain still reads as it did (a mutation
  shares the columns it leaves unchanged and must never write them).

The seed matrix is extendable via the ``REPRO_CHURN_SEEDS`` environment
variable (comma-separated integers), which CI uses to pin a fixed matrix.
"""

import os

import numpy as np
import pytest

from repro.core.loadstate import LoadState
from repro.core.pathmatrix import PathMatrix
from repro.errors import MutationError, ReproError
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import (
    AttachLeaf,
    DetachLeaf,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
    apply_mutation,
)
from repro.network.node import BusSpec, ProcessorSpec
from repro.network.rooted import RootedTree
from repro.network.tree import Edge, HierarchicalBusNetwork
from repro.workload.churn import random_valid_mutation
from tests.properties.test_tree_queries import assert_tree_queries_match_reference

DEFAULT_SEEDS = (0, 1, 2, 3)


def _seed_matrix():
    raw = os.environ.get("REPRO_CHURN_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return DEFAULT_SEEDS


# --------------------------------------------------------------------------- #
# the node-by-node rebuild apply_mutation replaced (verbatim)
# --------------------------------------------------------------------------- #
def _node_specs(network):
    """Reconstruct the per-node spec list of an existing network."""
    specs = []
    for v in range(network.n_nodes):
        if network.is_bus(v):
            specs.append(BusSpec(network.name(v), network.bus_bandwidth(v)))
        else:
            specs.append(ProcessorSpec(network.name(v)))
    return specs


def _edge_lists(network):
    """Edges and parallel bandwidths of an existing network, in id order."""
    edges = [(e.u, e.v) for e in network.edges]
    bandwidths = [float(b) for b in network.edge_bandwidths]
    return edges, bandwidths


def reference_apply_mutation(network, mutation):
    """The network after the valid ``mutation``, rebuilt through the constructor."""
    if isinstance(mutation, SetEdgeBandwidth):
        eid = network.edge_id(mutation.u, mutation.v)
        edges, bandwidths = _edge_lists(network)
        bandwidths[eid] = float(mutation.bandwidth)
        return HierarchicalBusNetwork(_node_specs(network), edges, bandwidths)
    if isinstance(mutation, SetBusBandwidth):
        bus = int(mutation.bus)
        specs = _node_specs(network)
        specs[bus] = BusSpec(network.name(bus), float(mutation.bandwidth))
        edges, bandwidths = _edge_lists(network)
        return HierarchicalBusNetwork(specs, edges, bandwidths)
    if isinstance(mutation, AttachLeaf):
        bus = int(mutation.bus)
        specs = _node_specs(network)
        new_node = len(specs)
        specs.append(ProcessorSpec(mutation.name or f"p{new_node}"))
        edges, bandwidths = _edge_lists(network)
        edges.append((bus, new_node))
        bandwidths.append(float(mutation.bandwidth))
        return HierarchicalBusNetwork(specs, edges, bandwidths)
    if isinstance(mutation, DetachLeaf):
        proc = int(mutation.processor)
        (bus,) = network.neighbors(proc)
        removed_edge = network.edge_id(proc, bus)
        node_map = np.arange(network.n_nodes, dtype=np.int64)
        node_map[proc] = -1
        node_map[proc + 1 :] -= 1
        specs = _node_specs(network)
        del specs[proc]
        old_edges, old_bandwidths = _edge_lists(network)
        edges = []
        bandwidths = []
        for eid, (u, v) in enumerate(old_edges):
            if eid == removed_edge:
                continue
            edges.append((int(node_map[u]), int(node_map[v])))
            bandwidths.append(old_bandwidths[eid])
        return HierarchicalBusNetwork(specs, edges, bandwidths)
    if isinstance(mutation, SplitBus):
        bus = int(mutation.bus)
        moved = mutation.moved
        specs = _node_specs(network)
        new_node = len(specs)
        specs.append(BusSpec(mutation.name or f"b{new_node}", float(mutation.bus_bandwidth)))
        old_edges, bandwidths = _edge_lists(network)
        moved_edge_ids = tuple(network.edge_id(bus, m) for m in moved)
        edges = list(old_edges)
        for m, eid in zip(moved, moved_edge_ids):
            edges[eid] = (m, new_node)
        edges.append((bus, new_node))
        bandwidths.append(float(mutation.trunk_bandwidth))
        return HierarchicalBusNetwork(specs, edges, bandwidths)
    raise AssertionError(f"no reference for {type(mutation).__name__}")


def read_network(net):
    """Everything a caller reads of ``net``, through public accessors only.

    Bandwidths compare as bytes (``__eq__`` would use ``allclose``).
    """
    nodes = net.nodes()
    return {
        "kinds": [net.kind(v) for v in nodes],
        "names": [net.name(v) for v in nodes],
        "bus_bandwidths": (net.bus_bandwidths.dtype.str, net.bus_bandwidths.tobytes()),
        "edge_bandwidths": (
            net.edge_bandwidths.dtype.str,
            net.edge_bandwidths.tobytes(),
        ),
        "edges": net.edges,
        "edge_types": {type(e) for e in net.edges},
        "neighbors": [net.neighbors(v) for v in nodes],
        "incident_edge_ids": [net.incident_edge_ids(v) for v in nodes],
        "edge_ids": [net.edge_id(e.u, e.v) for e in net.edges],
        "processors": net.processors,
        "buses": net.buses,
    }


def fresh_substrate(net):
    """From-scratch rooted view and path matrix, bypassing repair caches."""
    rooted = RootedTree(net, net.canonical_root())
    return rooted, PathMatrix(rooted)


def charge_random_paths(state, ground, rooted, procs, rng, n):
    """Charge n random request paths into state and the ground-truth vector."""
    for _ in range(n):
        u, v = (int(x) for x in rng.choice(procs, size=2))
        state.apply_pairs([u], [v], [1])
        for eid in rooted.path_edge_ids(u, v):
            ground[eid] += 1


def assert_rooted_equals_fresh(repaired, fresh):
    assert np.array_equal(repaired._parent, fresh._parent)
    assert np.array_equal(repaired._parent_edge, fresh._parent_edge)
    assert np.array_equal(repaired._depth, fresh._depth)
    assert np.array_equal(repaired._subtree_size, fresh._subtree_size)
    assert repaired._height == fresh._height
    assert repaired.root == fresh.root
    repaired._ensure_children()
    assert repaired._children == fresh._children
    # the repaired order must still be a preorder (parents first)
    position = {int(v): i for i, v in enumerate(repaired._order)}
    for v in range(fresh.network.n_nodes):
        parent = fresh.parent(v)
        if parent >= 0:
            assert position[parent] < position[v]


def assert_pathmatrix_equals_fresh(repaired, fresh):
    assert np.array_equal(repaired._up, fresh._up)
    assert np.array_equal(repaired._rp_indptr, fresh._rp_indptr)
    assert np.array_equal(repaired._rp_edges, fresh._rp_edges)
    assert np.array_equal(repaired._rp_nodes, fresh._rp_nodes)
    assert np.array_equal(repaired._edge_u, fresh._edge_u)
    assert np.array_equal(repaired._edge_v, fresh._edge_v)
    assert np.array_equal(repaired._bus_mask, fresh._bus_mask)


def assert_loadstate_equals_rebuild(state, net, fresh_rooted, ground):
    rebuilt = LoadState(net, rooted=fresh_rooted)
    rebuilt.apply_edge_loads(ground)
    assert np.array_equal(state._loads, rebuilt._loads)
    assert np.array_equal(state._denom, rebuilt._denom)
    assert state.congestion == rebuilt.congestion
    assert np.array_equal(state._inc_edges, rebuilt._inc_edges)
    assert np.array_equal(state._inc_indptr, rebuilt._inc_indptr)
    assert state.verify_bus_loads()


class TestChurnDifferential:
    """Seeded mutation/request interleavings, checked against rebuilds."""

    @pytest.mark.parametrize("seed", _seed_matrix())
    def test_repair_equals_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        net = random_tree(
            int(rng.integers(2, 7)), int(rng.integers(4, 11)), seed=seed
        )
        state = LoadState(net)
        ground = np.zeros(net.n_edges)
        fresh_rooted, fresh_pm = fresh_substrate(net)
        procs = list(net.processors)
        charge_random_paths(state, ground, fresh_rooted, procs, rng, 24)

        readings = [(net, read_network(net))]
        for _ in range(10):
            mutation = random_valid_mutation(net, rng)
            outcome = apply_mutation(net, mutation)
            reading = read_network(outcome.network)
            assert reading == read_network(reference_apply_mutation(net, mutation))
            assert reading["edge_types"] <= {Edge}
            state.repair(outcome)
            net = outcome.network
            ground = outcome.mapped_edge_loads(ground)
            procs = list(net.processors)

            fresh_rooted, fresh_pm = fresh_substrate(net)
            assert_rooted_equals_fresh(state.rooted, fresh_rooted)
            assert_pathmatrix_equals_fresh(state.pm, fresh_pm)
            assert_loadstate_equals_rebuild(state, net, fresh_rooted, ground)

            # nearest-copy tables resolve identically on the repaired matrix
            candidates = sorted(
                int(c) for c in rng.choice(procs, size=min(3, len(procs)), replace=False)
            )
            nodes = np.asarray(procs, dtype=np.int64)
            assert np.array_equal(
                state.pm.nearest_in_set(nodes, candidates),
                fresh_pm.nearest_in_set(nodes, candidates),
            )

            # the array-pass tree queries equal their per-node loops on the
            # repaired view, whose order is only topological (invariant 1);
            # it is the network's cached view, so the nibble selections
            # read it as well
            assert state.rooted is net.rooted()
            assert_tree_queries_match_reference(net, state.rooted, rng)

            # keep replaying requests on the repaired substrate
            charge_random_paths(state, ground, fresh_rooted, procs, rng, 10)

            # no network of the chain was written by a later mutation
            for old, old_reading in readings:
                assert read_network(old) == old_reading
            readings.append((net, reading))

        # the final interleaved state still equals a rebuild
        assert_loadstate_equals_rebuild(state, net, fresh_substrate(net)[0], ground)

    def test_split_repair_with_root_inside_moved_subtree(self):
        """Regression: a view rooted inside the moved subtree must rebuild.

        The split is validated against the canonical rooting; for a
        substrate rooted inside a moved subtree the structure *above* the
        split bus changes, so the CSR surgery does not apply.  RootedTree
        falls back to a fresh traversal -- PathMatrix must mirror that
        fallback instead of corrupting its root-path incidence.
        """
        net = balanced_tree(2, 3, 2)
        canonical = net.rooted()
        moved_bus = next(b for b in net.buses if canonical.parent(b) == 0)
        view = net.rooted(moved_bus)  # rooted inside the subtree being moved
        state = LoadState(net, rooted=view)
        procs = list(net.processors)
        ground = np.zeros(net.n_edges)
        rng = np.random.default_rng(0)
        charge_random_paths(state, ground, view, procs, rng, 16)

        outcome = apply_mutation(net, SplitBus(0, (moved_bus,)))
        state.repair(outcome)
        new_net = outcome.network
        new_root = int(outcome.node_map[moved_bus])
        fresh_rooted = RootedTree(new_net, new_root)
        fresh_pm = PathMatrix(fresh_rooted)
        assert_pathmatrix_equals_fresh(state.pm, fresh_pm)
        ground = outcome.mapped_edge_loads(ground)
        assert_loadstate_equals_rebuild(state, new_net, fresh_rooted, ground)
        # the repaired substrate keeps serving charges correctly
        charge_random_paths(
            state, ground, fresh_rooted, list(new_net.processors), rng, 8
        )
        assert_loadstate_equals_rebuild(state, new_net, fresh_rooted, ground)

    @pytest.mark.parametrize("seed", _seed_matrix()[:2])
    def test_snapshot_rollback_roundtrip_between_mutations(self, seed):
        rng = np.random.default_rng(seed)
        net = random_tree(3, 8, seed=seed)
        state = LoadState(net)
        procs = list(net.processors)
        ground = np.zeros(net.n_edges)
        rooted = RootedTree(net, net.canonical_root())
        charge_random_paths(state, ground, rooted, procs, rng, 12)

        for _ in range(5):
            mutation = random_valid_mutation(net, rng)
            outcome = apply_mutation(net, mutation)
            state.repair(outcome)
            net = outcome.network
            ground = outcome.mapped_edge_loads(ground)
            procs = list(net.processors)
            rooted = RootedTree(net, net.canonical_root())

            # a round-trip on the repaired state restores it exactly
            before_loads = state._loads.copy()
            before_congestion = state.congestion
            snap = state.snapshot()
            charge_random_paths(state, ground.copy(), rooted, procs, rng, 8)
            state.rollback(snap)
            assert np.array_equal(state._loads, before_loads)
            assert state.congestion == before_congestion

            charge_random_paths(state, ground, rooted, procs, rng, 4)


class TestRollbackAcrossMutationGuard:
    """Satellite: snapshots never cross a topology mutation, loads never corrupt."""

    def _open_snapshot_state(self):
        net = random_tree(3, 8, seed=0)
        state = LoadState(net)
        procs = list(net.processors)
        state.apply_pairs([procs[0]], [procs[1]], [1])
        snap = state.snapshot()
        state.apply_pairs([procs[1]], [procs[2]], [1])  # tentative delta
        outcome = apply_mutation(net, AttachLeaf(int(net.buses[0])))
        return state, snap, outcome

    def test_repair_with_open_snapshot_raises(self):
        # repairing would silently commit the journalled tentative delta
        state, _snap, outcome = self._open_snapshot_state()
        with pytest.raises(ReproError, match="snapshots are open"):
            state.repair(outcome)

    def test_refused_repair_leaves_snapshot_usable(self):
        state, snap, outcome = self._open_snapshot_state()
        with pytest.raises(MutationError):
            state.repair(outcome)
        # the state is untouched: the tentative delta can still be undone
        state.rollback(snap)
        assert state.verify_bus_loads()
        assert state.network is outcome.old_network

    def test_rollback_of_pre_repair_snapshot_raises(self):
        state, snap, outcome = self._open_snapshot_state()
        state.commit(snap)  # close the snapshot, keeping the delta
        state.repair(outcome)
        with pytest.raises(ReproError, match="topology mutation"):
            state.rollback(snap)

    def test_commit_of_pre_repair_snapshot_raises(self):
        state, snap, outcome = self._open_snapshot_state()
        state.commit(snap)
        state.repair(outcome)
        with pytest.raises(MutationError):
            state.commit(snap)

    def test_loads_not_corrupted_by_refused_rollback(self):
        state, snap, outcome = self._open_snapshot_state()
        state.commit(snap)
        state.repair(outcome)
        before = state._loads.copy()
        with pytest.raises(ReproError):
            state.rollback(snap)
        assert np.array_equal(state._loads, before)
        assert state.verify_bus_loads()

    def test_detach_also_guards(self):
        net = random_tree(2, 6, seed=1)
        state = LoadState(net)
        snap = state.snapshot()
        detachable = [
            p for p in net.processors
            if net.degree(next(iter(net.neighbors(p)))) > 2
        ]
        if not detachable:
            pytest.skip("no detachable leaf on this instance")
        outcome = apply_mutation(net, DetachLeaf(detachable[0]))
        with pytest.raises(MutationError):
            state.repair(outcome)
        state.rollback(snap)
        state.repair(outcome)  # with the snapshot closed, repair proceeds
        assert state.network is outcome.network

    def test_fresh_snapshot_after_repair_works(self):
        state, snap, outcome = self._open_snapshot_state()
        state.commit(snap)
        state.repair(outcome)
        procs = list(state.network.processors)
        before = state._loads.copy()
        fresh = state.snapshot()
        state.apply_pairs([procs[0]], [procs[-1]], [1])
        state.rollback(fresh)
        assert np.array_equal(state._loads, before)
