"""Exactness oracle for the array-pass tree queries (invariant 1).

``RootedTree.subtree_sums`` / ``steiner_edge_ids`` and the nibble
selections ``gravity_candidates`` / ``nibble_holders_for_object`` are array
passes over the rooted parent and depth arrays.  This module keeps the
per-node loops they replaced **verbatim** (as ``reference_*`` functions)
and asserts exact agreement -- values, dtype and order -- on random
networks rooted anywhere.  ``RootedTree.nearest_tables`` is checked
against the scalar ``nearest_in_set`` at every node, buses included, with
equidistant candidates among the sets.  ``test_churn_differential.py``
runs the same check on views repaired by every mutation kind, whose node
order is only topological.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.nibble import gravity_candidates, nibble_holders_for_object
from repro.errors import AlgorithmError, InvalidNodeError
from repro.workload.access import AccessPattern
from tests.conftest import networks

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# per-node loop references (verbatim)
# --------------------------------------------------------------------------- #
def reference_subtree_sums(rooted, values):
    """``RootedTree.subtree_sums`` as a sequential bottom-up sweep."""
    values = np.asarray(values)
    if values.shape[0] != rooted.network.n_nodes:
        raise ValueError("values must have one entry per node")
    sums = values.astype(np.float64 if values.dtype.kind == "f" else np.int64).copy()
    for u in rooted._order[::-1]:
        p = rooted._parent[u]
        if p >= 0:
            sums[p] += sums[u]
    return sums


def reference_steiner_edge_ids(rooted, terminals):
    """``RootedTree.steiner_edge_ids`` as a loop over all nodes."""
    term = sorted(set(int(t) for t in terminals))
    for t in term:
        if not 0 <= t < rooted.network.n_nodes:
            raise InvalidNodeError(f"invalid terminal {t}")
    if len(term) <= 1:
        return []
    marks = np.zeros(rooted.network.n_nodes, dtype=np.int64)
    marks[term] = 1
    counts = reference_subtree_sums(rooted, marks)
    total = len(term)
    edges = []
    for v in range(rooted.network.n_nodes):
        p = rooted._parent[v]
        if p < 0:
            continue
        below = counts[v]
        if 0 < below < total:
            edges.append(int(rooted._parent_edge[v]))
    return edges


def reference_gravity_candidates(network, weights):
    """``gravity_candidates`` as a loop over nodes and their children."""
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape[0] != network.n_nodes:
        raise AlgorithmError("weights must have one entry per node")
    if np.any(weights < 0):
        raise AlgorithmError("weights must be non-negative")
    total = int(weights.sum())
    rooted = network.rooted(0)
    subtree = reference_subtree_sums(rooted, weights)
    candidates = []
    half = total / 2.0
    for v in network.nodes():
        # components when removing v: one per child subtree, plus the rest
        worst = 0
        for c in rooted.children(v):
            worst = max(worst, int(subtree[c]))
        rest = total - int(subtree[v])
        worst = max(worst, rest)
        if worst <= half:
            candidates.append(v)
    return candidates


def reference_nibble_holders_for_object(network, pattern, obj):
    """``nibble_holders_for_object`` as a loop over all nodes."""
    weights = pattern.object_weights(obj)
    center = min(reference_gravity_candidates(network, weights))
    total_writes = pattern.write_contention(obj)
    rooted = network.rooted(center)
    subtree_weights = reference_subtree_sums(rooted, weights)
    holders = {center}
    for v in network.nodes():
        if v == center:
            continue
        if int(subtree_weights[v]) > total_writes:
            holders.add(v)
    return frozenset(holders), center


# --------------------------------------------------------------------------- #
# the shared oracle
# --------------------------------------------------------------------------- #
def assert_tree_queries_match_reference(network, rooted, rng):
    """Every array pass equals its reference on ``rooted`` and ``network``.

    ``rooted`` may be any view of ``network`` (fresh or repaired); the
    nibble selections read the views cached on ``network``.
    """
    n = network.n_nodes
    for values in (
        rng.integers(0, 50, size=n),
        rng.integers(0, 50, size=n).astype(np.int32),
        rng.random(n),
        rng.random((n, 2)),
    ):
        got = rooted.subtree_sums(values)
        want = reference_subtree_sums(rooted, values)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    for k in (0, 1, 2, 3, n):
        terminals = rng.choice(n, size=min(k, n), replace=False)
        got = rooted.steiner_edge_ids(terminals)
        assert got == reference_steiner_edge_ids(rooted, terminals)
        assert all(type(e) is int for e in got)

    # nearest tables: every node, buses included, against the scalar rule;
    # the children of one node are equidistant from it and from everything
    # outside their subtrees, so they exercise the smallest-id tie rule (the
    # sets draw nothing from rng: callers go on drawing mutations from it)
    kids = [rooted.children(v) for v in range(n)]
    siblings = max(kids, key=len) or (rooted.root,)
    sets = [(0,), (0, n - 1), range(0, n, 3), range(n), siblings,
            rooted.children(rooted.root) or (rooted.root,)]
    tables = rooted.nearest_tables(sets)
    assert tables.shape == (len(sets), n) and tables.dtype == np.int64
    for cands, row in zip(sets, tables):
        assert row.tolist() == [rooted.nearest_in_set(v, cands) for v in range(n)]

    weights = rng.integers(0, 6, size=n) * (rng.random(n) < 0.5)
    for w in (weights, np.zeros(n, dtype=np.int64)):
        assert gravity_candidates(network, w) == reference_gravity_candidates(
            network, w
        )

    n_objects = 3
    reads = np.zeros((n, n_objects), dtype=np.int64)
    writes = np.zeros((n, n_objects), dtype=np.int64)
    procs = np.asarray(network.processors)
    shape = (procs.size, n_objects - 1)  # the last object stays requestless
    reads[procs, :-1] = rng.integers(0, 5, size=shape)
    writes[procs, :-1] = rng.integers(0, 3, size=shape) * (rng.random(shape) < 0.4)
    pattern = AccessPattern(reads, writes)
    for obj in range(n_objects):
        got = nibble_holders_for_object(network, pattern, obj)
        want = reference_nibble_holders_for_object(network, pattern, obj)
        assert got == want
        assert list(got[0]) == list(want[0])  # same set iteration order


class TestTreeQueriesMatchReference:
    @given(net=networks(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_array_passes_equal_loops(self, net, seed):
        rng = np.random.default_rng(seed)
        rooted = net.rooted(int(rng.integers(net.n_nodes)))
        assert_tree_queries_match_reference(net, rooted, rng)

    @pytest.mark.parametrize("bad", [-1, 10_000])
    def test_invalid_terminal_raises_like_reference(self, medium_tree, bad):
        rooted = medium_tree.rooted()
        terminals = [medium_tree.processors[0], bad]
        with pytest.raises(InvalidNodeError) as want:
            reference_steiner_edge_ids(rooted, terminals)
        with pytest.raises(InvalidNodeError) as got:
            rooted.steiner_edge_ids(terminals)
        assert str(got.value) == str(want.value)
