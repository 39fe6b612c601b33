"""Sparse path-incidence structure for vectorized congestion evaluation.

The cost model charges every request pair ``(u, v)`` one load unit on each
edge of the tree path between ``u`` and ``v``.  Evaluating this with Python
loops over objects × requesters × path edges is the dominant cost of every
experiment; :class:`PathMatrix` replaces those loops with a precomputed
sparse incidence structure and a handful of scatter/gather kernels.

The structure exploits a classical identity on trees rooted at ``r``.  Let
``R(v)`` be the set of edges on the path ``r -> v`` ("root path").  Then

* the path ``u -> v`` is the symmetric difference ``R(u) Δ R(v)``, so a
  pair load ``w`` on path ``u -> v`` equals a *node delta* of ``+w`` at
  ``u``, ``+w`` at ``v`` and ``-2w`` at ``lca(u, v)`` pushed down the root
  paths: ``edge_load[e] = Σ_v  delta[v] · [e ∈ R(v)]``;
* the same operator evaluated on a 0/1 membership vector of a terminal set
  ``S`` yields, per edge, the number of terminals strictly below that edge
  -- which identifies the Steiner tree of ``S`` (``0 < below < |S|``).

The incidence ``[e ∈ R(v)]`` is stored once per rooted network as CSR-style
arrays (``indptr`` / ``edge id`` / ``node id`` triples, total size
``Σ_v depth(v)``), and all evaluations run through the backend-dispatched
kernels of :mod:`repro.core.kernels` -- compiled scatter loops when a
compiled backend is active, ``np.add.at`` scatters under the numpy
reference, bit-for-bit identical either way (ARCHITECTURE.md invariant 9).
Batched right-hand sides (one column per candidate placement or per
object) turn into a single scatter over 2-D arrays, which is what makes
whole-suite experiments on networks 10-100× larger than the seed sizes
feasible.

LCAs are computed for whole index arrays at once by binary lifting over a
``(log2(height), n)`` ancestor table.  The id-valued tables (lifting rows,
CSR edge/node ids, edge endpoints) are stored as int32
(:data:`repro.core.kernels.INDEX_DTYPE`) so 10^5-10^6-leaf networks fit in
memory; :func:`repro.core.kernels.ensure_index_capacity` raises
:class:`~repro.errors.CapacityError` -- it never wraps -- when a network
would overflow that range.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.errors import InvalidNodeError

__all__ = ["PathMatrix"]

_INDEX = kernels.INDEX_DTYPE


class PathMatrix:
    """Vectorized path/Steiner/distance kernels for one rooted tree.

    It builds and folds every load column of the cost model, for whole
    placements and for candidate blocks alike: request pairs
    (:meth:`pair_edge_loads`), one column per lane or candidate leaf
    (:meth:`pair_edge_loads_lanes`), write broadcasts
    (:meth:`steiner_edge_loads`, over the Steiner edge CSR of
    :meth:`steiner_edge_csr`), and the fold of edge loads into bus
    loads (:meth:`bus_loads_from_edge_loads`).
    :class:`~repro.core.loadstate.LoadState` charges and scores the
    columns.

    Instances are cheap relative to a single scalar congestion evaluation
    (``O(n · height)`` ints) and are cached per rooted view via
    :meth:`repro.network.rooted.RootedTree.path_matrix`.
    """

    __slots__ = (
        "rooted",
        "n_nodes",
        "n_edges",
        "_parent",
        "_parent_edge",
        "_depth",
        "_up",
        "_rp_indptr",
        "_rp_edges",
        "_rp_nodes",
        "_edge_u",
        "_edge_v",
        "_bus_mask",
    )

    # Block size (in pair entries) of the on-demand distance evaluation:
    # bounds the LCA scratch arrays of arbitrarily large distance queries
    # (the weighted-median baseline's) to a few MiB instead of
    # materialising an O(n^2) all-pairs matrix.
    _DIST_BLOCK = 1 << 20

    # Indicator entries (nodes x sets) per block of steiner_edge_csr: bounds
    # its indicator and below-count blocks to a few hundred KiB each.
    _STEINER_BLOCK = 1 << 15

    def __init__(self, rooted) -> None:
        network = rooted.network
        n = network.n_nodes
        self.rooted = rooted
        self.n_nodes = n
        self.n_edges = network.n_edges

        parent = np.array([rooted.parent(v) for v in range(n)], dtype=np.int64)
        parent_edge = np.array(
            [rooted.parent_edge_id(v) for v in range(n)], dtype=np.int64
        )
        depth = np.array([rooted.depth(v) for v in range(n)], dtype=np.int64)
        self._parent = parent
        self._parent_edge = parent_edge
        self._depth = depth

        total = int(depth.sum())
        kernels.ensure_index_capacity(n, network.n_edges, total)

        # Binary-lifting ancestor table: _up[k, v] = 2^k-th ancestor of v
        # (the root is its own ancestor, so lifts saturate instead of
        # underflowing to -1).
        levels = self._lift_levels(int(depth.max()))
        up = np.empty((levels, n), dtype=_INDEX)
        up[0] = np.where(parent >= 0, parent, np.arange(n))
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        self._up = up

        # CSR root-path incidence: for every node v (in depth order is not
        # required), the edge ids on the path root -> v.  rp_nodes repeats v
        # once per such edge so a gather delta[rp_nodes] aligns with rp_edges.
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(depth)
        rp_edges = np.empty(total, dtype=_INDEX)
        rp_nodes = np.empty(total, dtype=_INDEX)
        for v in rooted.preorder:
            p = parent[v]
            if p < 0:
                continue
            start, end = indptr[v], indptr[v + 1]
            pstart, pend = indptr[p], indptr[p + 1]
            rp_edges[start : end - 1] = rp_edges[pstart:pend]
            rp_edges[end - 1] = parent_edge[v]
            rp_nodes[start:end] = v
        self._rp_indptr = indptr
        self._rp_edges = rp_edges
        self._rp_nodes = rp_nodes

        edges = network.edges
        self._edge_u = np.array([e.u for e in edges], dtype=_INDEX)
        self._edge_v = np.array([e.v for e in edges], dtype=_INDEX)
        bus_mask = np.zeros(n, dtype=bool)
        if network.buses:
            bus_mask[list(network.buses)] = True
        self._bus_mask = bus_mask

    # ------------------------------------------------------------------ #
    # incremental repair after topology mutations
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift_levels(max_depth: int) -> int:
        """Row count of the binary-lifting table (single source of truth)."""
        return max(1, int(np.ceil(np.log2(max(2, max_depth + 1)))) + 1)

    def repaired(self, outcome, rooted) -> "PathMatrix":
        """Path matrix for ``rooted`` (a repaired view), derived from this one.

        The repaired instance is bit-for-bit identical to
        ``PathMatrix(rooted)`` -- same CSR root-path incidence, lifting
        table and endpoint arrays -- but the CSR is patched with vectorized
        array surgery (append for attach, one masked copy for detach, one
        shifted copy with the trunk edge spliced in for split) instead of
        the O(n · height) per-node construction loop.  The result is
        installed as ``rooted``'s cached path matrix.
        """
        from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus

        if rooted._path_matrix is not None:
            return rooted._path_matrix
        network = rooted.network
        new = object.__new__(PathMatrix)
        new.rooted = rooted
        new.n_nodes = network.n_nodes
        new.n_edges = network.n_edges
        new._parent = rooted._parent
        new._parent_edge = rooted._parent_edge
        new._depth = rooted._depth

        mutation = outcome.mutation
        if outcome.structural:
            # growth mutations can push a network across the int32 range:
            # guard before the surgery below writes any index table
            kernels.ensure_index_capacity(
                new.n_nodes, new.n_edges, int(np.asarray(new._depth).sum())
            )
        if not outcome.structural:
            new._up = self._up
            new._rp_indptr = self._rp_indptr
            new._rp_edges = self._rp_edges
            new._rp_nodes = self._rp_nodes
            new._edge_u = self._edge_u
            new._edge_v = self._edge_v
            new._bus_mask = self._bus_mask
        elif isinstance(mutation, AttachLeaf):
            self._repair_attach(new, outcome)
        elif isinstance(mutation, DetachLeaf):
            self._repair_detach(new, outcome)
        elif isinstance(mutation, SplitBus):
            if int(self._parent[outcome.touched_bus]) in outcome.moved_nodes:
                # Mirror RootedTree._repaired_split's fallback: for a view
                # rooted inside a moved subtree the split changes the
                # structure above the bus and the CSR surgery below does
                # not apply -- build fresh.
                return rooted.path_matrix()
            self._repair_split(new, outcome)
        else:  # future mutation kinds: fall back to a fresh construction
            return rooted.path_matrix()
        rooted._path_matrix = new
        return new

    def _repair_up_full(self, new: "PathMatrix", levels: int) -> None:
        """Vectorized lifting-table rebuild (log passes, no Python loops)."""
        n = new.n_nodes
        up = np.empty((levels, n), dtype=_INDEX)
        up[0] = np.where(new._parent >= 0, new._parent, np.arange(n))
        for k in range(1, levels):
            up[k] = up[k - 1][up[k - 1]]
        new._up = up

    def _repair_attach(self, new: "PathMatrix", outcome) -> None:
        bus = int(outcome.touched_bus)
        w = int(outcome.new_node)
        f = int(outcome.new_edge)
        depth = new._depth
        dw = int(depth[w])

        levels = self._lift_levels(int(depth.max()))
        if levels == self._up.shape[0]:
            col = np.empty(levels, dtype=_INDEX)
            col[0] = bus
            for k in range(1, levels):
                col[k] = self._up[k - 1][col[k - 1]]
            new._up = np.concatenate([self._up, col[:, None]], axis=1)
        else:
            self._repair_up_full(new, levels)

        bus_path = self._rp_edges[self._rp_indptr[bus] : self._rp_indptr[bus + 1]]
        new._rp_edges = np.concatenate(
            [self._rp_edges, bus_path, np.asarray([f], dtype=_INDEX)]
        )
        new._rp_nodes = np.concatenate(
            [self._rp_nodes, np.full(dw, w, dtype=_INDEX)]
        )
        new._rp_indptr = np.append(self._rp_indptr, self._rp_indptr[-1] + dw)
        new._edge_u = np.append(self._edge_u, _INDEX(bus))
        new._edge_v = np.append(self._edge_v, _INDEX(w))
        new._bus_mask = np.append(self._bus_mask, False)

    def _repair_detach(self, new: "PathMatrix", outcome) -> None:
        p = int(outcome.removed_node)
        nm = outcome.node_map
        em = outcome.edge_map
        keep = nm >= 0
        depth = new._depth

        levels = self._lift_levels(int(depth.max()))
        # the masked gather comes out F-ordered; the lca kernel needs C order
        new._up = nm[self._up[:levels][:, keep]].astype(_INDEX, order="C")

        mask = np.ones(self._rp_edges.shape[0], dtype=bool)
        mask[self._rp_indptr[p] : self._rp_indptr[p + 1]] = False
        new._rp_edges = em[self._rp_edges[mask]].astype(_INDEX)
        new._rp_nodes = nm[self._rp_nodes[mask]].astype(_INDEX)
        indptr = np.zeros(new.n_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(depth)
        new._rp_indptr = indptr

        ekeep = em >= 0
        new._edge_u = nm[self._edge_u[ekeep]].astype(_INDEX)
        new._edge_v = nm[self._edge_v[ekeep]].astype(_INDEX)
        new._bus_mask = self._bus_mask[keep]

    def _repair_split(self, new: "PathMatrix", outcome) -> None:
        b = int(outcome.touched_bus)
        w = int(outcome.new_node)
        f = int(outcome.new_edge)
        depth = new._depth
        n_old = self.n_nodes
        # nodes whose depth changed = the moved subtrees
        aff_mask = np.zeros(n_old, dtype=bool)
        aff_mask[depth[:n_old] != self._depth] = True

        levels = self._lift_levels(int(depth.max()))
        if levels == self._up.shape[0]:
            idx = np.concatenate(
                [np.flatnonzero(aff_mask), np.asarray([w], dtype=np.int64)]
            )
            up = np.concatenate(
                [self._up, np.empty((levels, 1), dtype=_INDEX)], axis=1
            )
            up[0, idx] = new._parent[idx]
            for k in range(1, levels):
                up[k, idx] = up[k - 1][up[k - 1, idx]]
            new._up = up
        else:
            self._repair_up_full(new, levels)

        indptr = np.zeros(new.n_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(depth)
        head_len = int(indptr[w])  # w has the largest id: its block is the tail
        rp_nodes = np.repeat(np.arange(new.n_nodes, dtype=_INDEX), depth)
        head_nodes = rp_nodes[:head_len]
        j = np.arange(head_len, dtype=np.int64) - indptr[head_nodes]
        db = int(self._depth[b])
        is_aff = aff_mask[head_nodes]
        trunk_pos = is_aff & (j == db)
        shift = (is_aff & (j > db)).astype(np.int64)
        src = self._rp_indptr[head_nodes] + j - shift
        head = np.empty(head_len, dtype=_INDEX)
        head[~trunk_pos] = self._rp_edges[src[~trunk_pos]]
        head[trunk_pos] = f
        b_path = self._rp_edges[self._rp_indptr[b] : self._rp_indptr[b + 1]]
        tail = np.concatenate([b_path, np.asarray([f], dtype=_INDEX)])
        new._rp_indptr = indptr
        new._rp_edges = np.concatenate([head, tail])
        new._rp_nodes = rp_nodes

        eu = self._edge_u.copy()
        ev = self._edge_v.copy()
        mids = np.asarray(outcome.moved_edge_ids, dtype=np.int64)
        ms = eu[mids] + ev[mids] - _INDEX(b)  # the moved endpoint of each edge
        eu[mids] = ms
        ev[mids] = w
        new._edge_u = np.append(eu, _INDEX(b))
        new._edge_v = np.append(ev, _INDEX(w))
        new._bus_mask = np.append(self._bus_mask, True)

    # ------------------------------------------------------------------ #
    # vectorized structural queries
    # ------------------------------------------------------------------ #
    @property
    def depths(self) -> np.ndarray:
        """Per-node depth array (root has depth 0)."""
        return self._depth

    def memory_bytes(self) -> int:
        """Total bytes held by the substrate arrays (the memory audit hook)."""
        arrays = (
            self._parent,
            self._parent_edge,
            self._depth,
            self._up,
            self._rp_indptr,
            self._rp_edges,
            self._rp_nodes,
            self._edge_u,
            self._edge_v,
            self._bus_mask,
        )
        return int(sum(a.nbytes for a in arrays))

    def lca(self, u, v) -> np.ndarray:
        """Lowest common ancestors of broadcastable index arrays ``u, v``."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        u, v = np.broadcast_arrays(u, v)
        shape = u.shape
        # flatten() always copies: the kernel may clobber its index inputs
        anc = kernels.lca(self._up, self._depth, u.flatten(), v.flatten())
        return anc.reshape(shape)

    def distances(self, u, v) -> np.ndarray:
        """Path lengths (edge counts) for broadcastable index arrays.

        Evaluated on demand in fixed-size blocks (``_DIST_BLOCK`` pair
        entries), so arbitrarily large queries -- the weighted-median cost
        of ``median_leaf_placement`` takes a ``(requesters × processors)``
        block -- never materialise more than a few MiB of LCA scratch space
        on top of the result itself.  Entries are identical to the
        unblocked evaluation (same LCA arithmetic), so blocking never
        changes results.  Nearest copies need no distances:
        :meth:`nearest_in_set` reads them off a nearest table.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        u, v = np.broadcast_arrays(u, v)
        shape = u.shape
        uf = u.reshape(-1)
        vf = v.reshape(-1)
        m = uf.size
        depth = self._depth
        out = np.empty(m, dtype=np.int64)
        block = self._DIST_BLOCK
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            ub = uf[lo:hi]
            vb = vf[lo:hi]
            anc = kernels.lca(self._up, depth, ub.flatten(), vb.flatten())
            out[lo:hi] = depth[ub] + depth[vb] - 2 * depth[anc]
        return out.reshape(shape)

    def nearest_in_set(
        self, nodes: np.ndarray, candidates: Sequence[int]
    ) -> np.ndarray:
        """For every node, the closest candidate (ties: smallest id).

        ``candidates`` must be non-empty; the result aligns with ``nodes``.
        One row of :meth:`RootedTree.nearest_tables
        <repro.network.rooted.RootedTree.nearest_tables>`, gathered at
        ``nodes``; an id outside the network raises
        :class:`~repro.errors.InvalidNodeError` naming it.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        kernels._check_node_ids(self.n_nodes, nodes)
        return self.rooted.nearest_tables([candidates])[0][nodes]

    # ------------------------------------------------------------------ #
    # load kernels
    # ------------------------------------------------------------------ #
    def edge_loads_from_deltas(self, delta: np.ndarray) -> np.ndarray:
        """Apply the incidence operator: ``out[e] = Σ_v delta[v]·[e ∈ R(v)]``.

        ``delta`` has shape ``(n_nodes,)`` or ``(n_nodes, batch)``; the result
        has shape ``(n_edges,)`` / ``(n_edges, batch)`` accordingly.  For a
        node-delta encoding of path traffic this yields per-edge loads; for a
        0/1 terminal indicator it yields per-edge below-the-edge terminal
        counts (the Steiner-tree membership test).
        """
        delta = np.ascontiguousarray(delta, dtype=np.float64)
        out_shape = (self.n_edges,) + delta.shape[1:]
        out = np.zeros(out_shape, dtype=np.float64)
        if self._rp_edges.size:
            kernels.scatter_paths(
                out, self._rp_edges, self._rp_nodes, self._rp_indptr, delta
            )
        return out

    def pair_edge_loads(
        self, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Per-edge loads of weighted request pairs ``u[i] -> v[i]``.

        The pairs become one node-delta vector (``+w`` at both endpoints,
        ``-2w`` at their LCA) that the incidence operator pushes down the
        root paths.
        """
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        delta = np.zeros(self.n_nodes, dtype=np.float64)
        if u.size:
            kernels.pair_scatter(delta, u, v, self.lca(u, v), w)
        return self.edge_loads_from_deltas(delta)

    def pair_edge_loads_lanes(
        self, u: np.ndarray, targets: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Per-lane edge-load columns ``(n_edges, n_lanes)``: a candidate block.

        Every lane serves the same weighted request sources ``u`` (with
        weights ``w``), but lane ``k`` routes pair ``i`` to its own target
        ``targets[i, k]``.  Column ``k`` is exactly ``pair_edge_loads(u,
        targets[:, k], w)`` (integer-exact, so bit-for-bit), evaluated with
        one batched LCA pass and one 2-D scatter instead of K calls.  The
        greedy and exact searches pass one lane per candidate leaf
        (``targets`` the leaves broadcast over the requesters).
        """
        u = np.ascontiguousarray(u, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] != u.size:
            raise InvalidNodeError("targets must have shape (len(u), n_lanes)")
        delta = np.zeros((self.n_nodes, targets.shape[1]), dtype=np.float64)
        if u.size:
            anc = self.lca(u[:, None], targets)
            kernels.pair_scatter_lanes(delta, u, targets, anc, w)
        return self.edge_loads_from_deltas(delta)

    def steiner_edge_csr(
        self, terminal_sets: Sequence[Iterable[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Edge ids of the Steiner tree of every terminal set, as one CSR.

        Returns ``(indptr, ids)``: the edges of set ``i`` are
        ``ids[indptr[i]:indptr[i + 1]]``, ascending -- the edges with
        ``0 < below < |S_i|`` of the set's terminals under them, read off
        the incidence operator applied to 0/1 indicator columns.  A set of
        fewer than two terminals has no edges.  The sets of two or more
        terminals are evaluated ``_STEINER_BLOCK // n_nodes`` at a time, so
        the scratch stays a few hundred KiB whatever the number of sets.
        A terminal outside the network raises
        :class:`~repro.errors.InvalidNodeError` before any block.
        """
        sets = [np.fromiter({int(t) for t in s}, dtype=np.int64) for s in terminal_sets]
        kernels._check_node_ids(
            self.n_nodes, np.concatenate([np.empty(0, np.int64), *sets]), what="terminal"
        )
        sizes = np.fromiter((s.size for s in sets), dtype=np.int64, count=len(sets))
        counts = np.zeros(len(sets), dtype=np.int64)
        parts = [np.empty(0, dtype=np.int64)]
        multi = np.flatnonzero(sizes > 1)
        block = max(1, self._STEINER_BLOCK // self.n_nodes)
        for lo in range(0, multi.size, block):
            cols = multi[lo : lo + block]
            indicator = np.zeros((self.n_nodes, cols.size), dtype=np.float64)
            indicator[
                np.concatenate([sets[i] for i in cols]),
                np.repeat(np.arange(cols.size), sizes[cols]),
            ] = 1.0
            below = self.edge_loads_from_deltas(indicator)
            inside = (below > 0) & (below < sizes[cols])
            # transposed, the nonzero entries come out set by set
            col, edges = np.nonzero(inside.T)
            counts[cols] = np.bincount(col, minlength=cols.size)
            parts.append(edges)
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, np.concatenate(parts)

    def steiner_edge_loads(
        self,
        terminal_sets: Sequence[Iterable[int]],
        weights: Sequence[float],
    ) -> np.ndarray:
        """Summed per-edge loads of weighted Steiner trees.

        For every terminal set ``S_i`` with weight ``w_i`` this adds ``w_i``
        to each edge of the minimal subtree spanning ``S_i`` (sets with fewer
        than two terminals contribute nothing): one ``bincount`` over
        :meth:`steiner_edge_csr`.
        """
        indptr, ids = self.steiner_edge_csr(terminal_sets)
        return np.bincount(
            ids,
            weights=np.repeat(np.asarray(weights, dtype=np.float64), np.diff(indptr)),
            minlength=self.n_edges,
        )

    def bus_loads_from_edge_loads(self, edge_loads: np.ndarray) -> np.ndarray:
        """Fold edge loads into bus loads (half the incident-edge sum).

        Accepts ``(n_edges,)`` or ``(n_edges, batch)``; entries for
        processor nodes are zero, matching the scalar model.
        """
        edge_loads = np.ascontiguousarray(edge_loads, dtype=np.float64)
        out = np.zeros((self.n_nodes,) + edge_loads.shape[1:], dtype=np.float64)
        kernels.bus_fold(out, self._edge_u, self._edge_v, self._bus_mask, edge_loads)
        out *= 0.5
        return out
