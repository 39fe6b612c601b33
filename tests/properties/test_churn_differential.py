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
  rolling back across a mutation raises a clear ``ReproError``.

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
from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus, apply_mutation
from repro.network.rooted import RootedTree
from repro.workload.churn import random_valid_mutation
from tests.properties.test_tree_queries import assert_tree_queries_match_reference

DEFAULT_SEEDS = (0, 1, 2, 3)


def _seed_matrix():
    raw = os.environ.get("REPRO_CHURN_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return DEFAULT_SEEDS


def fresh_substrate(net):
    """From-scratch rooted view and path matrix, bypassing repair caches."""
    rooted = RootedTree(net, net.canonical_root())
    return rooted, PathMatrix(rooted)


def charge_random_paths(state, ground, rooted, procs, rng, n):
    """Charge n random request paths into state and the ground-truth vector."""
    for _ in range(n):
        u, v = (int(x) for x in rng.choice(procs, size=2))
        state.apply_path(u, v)
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

        for _ in range(10):
            mutation = random_valid_mutation(net, rng)
            outcome = apply_mutation(net, mutation)
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
        state.apply_path(procs[0], procs[1])
        snap = state.snapshot()
        state.apply_path(procs[1], procs[2])  # tentative delta
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
        state.apply_path(procs[0], procs[-1])
        state.rollback(fresh)
        assert np.array_equal(state._loads, before)
