"""Rooted views of hierarchical bus networks.

The algorithms in the paper repeatedly root the tree at some node (the
center of gravity for the nibble strategy, an arbitrary node for the mapping
algorithm) and then reason about parents, children, levels and subtrees.
:class:`RootedTree` provides these derived quantities for a fixed root,
computed once in ``O(n)`` and shared via the cache in
:meth:`repro.network.tree.HierarchicalBusNetwork.rooted`.

Level convention (Section 3.3 of the paper): the root is on level
``height(T)`` and the children of a level ``i+1`` node are on level ``i``;
equivalently ``level(v) = height(T) - depth(v)``.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidNodeError, MutationError

__all__ = ["RootedTree"]


class RootedTree:
    """Parent/children/depth/level structure of a network for a fixed root.

    Parameters
    ----------
    network:
        The underlying :class:`~repro.network.tree.HierarchicalBusNetwork`.
    root:
        The node to use as root.
    """

    __slots__ = (
        "network",
        "root",
        "_parent",
        "_parent_edge",
        "_depth",
        "_order",
        "_children",
        "_height",
        "_subtree_size",
        "_path_matrix",
        "_levels",
    )

    def __init__(self, network, root: int) -> None:
        n = network.n_nodes
        if not 0 <= root < n:
            raise InvalidNodeError(f"invalid root {root!r}")
        self.network = network
        self.root = int(root)

        parent = np.full(n, -1, dtype=np.int64)
        parent_edge = np.full(n, -1, dtype=np.int64)
        depth = np.full(n, -1, dtype=np.int64)
        order: List[int] = []
        children: List[List[int]] = [[] for _ in range(n)]

        depth[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for v in network.neighbors(u):
                if v != parent[u]:
                    parent[v] = u
                    parent_edge[v] = network.edge_id(u, v)
                    depth[v] = depth[u] + 1
                    children[u].append(v)
                    stack.append(v)
        if len(order) != n:
            raise InvalidNodeError(
                "rooted traversal did not reach all nodes; network is not a tree"
            )

        self._parent = parent
        self._parent_edge = parent_edge
        self._depth = depth
        self._order = np.asarray(order, dtype=np.int64)
        self._children = [tuple(sorted(c)) for c in children]
        self._height = int(depth.max())
        self._path_matrix = None
        self._levels = None
        self._subtree_size = self.subtree_sums(np.ones(n, dtype=np.int64))

    def path_matrix(self):
        """Cached :class:`~repro.core.pathmatrix.PathMatrix` for this root."""
        if self._path_matrix is None:
            from repro.core.pathmatrix import PathMatrix

            self._path_matrix = PathMatrix(self)
        return self._path_matrix

    # ------------------------------------------------------------------ #
    # incremental repair after topology mutations
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_parts(
        cls,
        network,
        root: int,
        parent: np.ndarray,
        parent_edge: np.ndarray,
        depth: np.ndarray,
        order: np.ndarray,
        children: Optional[List[Tuple[int, ...]]],
        height: int,
        subtree_size: np.ndarray,
    ) -> "RootedTree":
        """Assemble a view from repaired arrays, bypassing the O(n) traversal.

        ``children`` may be ``None``; it is then rebuilt lazily from the
        parent array on first access (see :meth:`_ensure_children`).
        """
        view = object.__new__(cls)
        view.network = network
        view.root = int(root)
        view._parent = parent
        view._parent_edge = parent_edge
        view._depth = depth
        view._order = order
        view._children = children
        view._height = int(height)
        view._subtree_size = subtree_size
        view._path_matrix = None
        view._levels = None
        return view

    def _ensure_children(self) -> None:
        """Build the per-node children tuples lazily (repair skips them)."""
        if self._children is None:
            n = self.network.n_nodes
            kids: List[List[int]] = [[] for _ in range(n)]
            parent = self._parent
            for v in range(n):
                p = int(parent[v])
                if p >= 0:
                    kids[p].append(v)  # ascending v keeps each tuple sorted
            self._children = [tuple(c) for c in kids]

    def repaired(self, outcome) -> "RootedTree":
        """Rooted view of ``outcome.network``, repaired from this view.

        The repaired view is observationally identical to a freshly-built
        ``RootedTree(outcome.network, node_map[root])`` -- parents, depths,
        levels, subtree sizes, paths and Steiner trees all agree -- but is
        derived in O(touched region) array surgery instead of an O(n)
        Python traversal.  The result is installed in the new network's
        rooted-view cache, so repeated repairs (e.g. one per substrate
        object) share one view.
        """
        from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus

        if outcome.old_network is not self.network:
            raise MutationError(
                "mutation outcome does not apply to this view's network"
            )
        new_net = outcome.network
        new_root = int(outcome.node_map[self.root])
        if new_root < 0:
            raise MutationError(f"the root {self.root} was removed by the mutation")
        cached = new_net._rooted_cache.get(new_root)
        if cached is not None:
            return cached

        mutation = outcome.mutation
        if not outcome.structural:
            view = self._from_parts(
                new_net,
                new_root,
                self._parent,
                self._parent_edge,
                self._depth,
                self._order,
                self._children,
                self._height,
                self._subtree_size,
            )
        elif isinstance(mutation, AttachLeaf):
            view = self._repaired_attach(new_net, outcome)
        elif isinstance(mutation, DetachLeaf):
            view = self._repaired_detach(new_net, outcome)
        elif isinstance(mutation, SplitBus):
            view = self._repaired_split(new_net, new_root, outcome)
        else:  # future mutation kinds: fall back to a fresh traversal
            view = RootedTree(new_net, new_root)
        new_net._rooted_cache[new_root] = view
        return view

    def _repaired_attach(self, new_net, outcome) -> "RootedTree":
        bus = int(outcome.touched_bus)
        w = int(outcome.new_node)
        parent = np.append(self._parent, bus)
        parent_edge = np.append(self._parent_edge, int(outcome.new_edge))
        depth = np.append(self._depth, self._depth[bus] + 1)
        order = np.append(self._order, w)
        children = None
        if self._children is not None:
            children = list(self._children)
            children[bus] = children[bus] + (w,)  # w is the largest id
            children.append(())
        sizes = self._subtree_size.copy()
        x = bus
        while x >= 0:
            sizes[x] += 1
            x = int(self._parent[x])
        sizes = np.append(sizes, 1)
        height = max(self._height, int(depth[w]))
        return self._from_parts(
            new_net, self.root, parent, parent_edge, depth, order, children,
            height, sizes,
        )

    def _repaired_detach(self, new_net, outcome) -> "RootedTree":
        p = int(outcome.removed_node)
        if p == self.root:
            raise MutationError("cannot repair a view whose root was detached")
        nm = outcome.node_map
        em = outcome.edge_map
        keep = np.ones(self._parent.shape[0], dtype=bool)
        keep[p] = False
        par = self._parent[keep]
        parent = np.where(par >= 0, nm[par], -1)
        pe = self._parent_edge[keep]
        parent_edge = np.where(pe >= 0, em[pe], -1)
        depth = self._depth[keep]
        order = nm[self._order[self._order != p]]
        sizes = self._subtree_size.copy()
        x = int(self._parent[p])
        while x >= 0:
            sizes[x] -= 1
            x = int(self._parent[x])
        sizes = sizes[keep]
        return self._from_parts(
            new_net, int(nm[self.root]), parent, parent_edge, depth, order,
            None, int(depth.max()), sizes,
        )

    def _repaired_split(self, new_net, new_root: int, outcome) -> "RootedTree":
        b = int(outcome.touched_bus)
        w = int(outcome.new_node)
        moved = tuple(int(m) for m in outcome.moved_nodes)
        if int(self._parent[b]) in moved:
            # The split was validated against the canonical rooting; for a
            # view rooted elsewhere the moved set may contain this view's
            # parent of b, which changes the structure above b.  Rare and
            # root-specific: rebuild this view from scratch.
            return RootedTree(new_net, new_root)
        self._ensure_children()
        affected: List[int] = []
        stack = list(moved)
        while stack:
            u = stack.pop()
            affected.append(u)
            stack.extend(self._children[u])
        aff = np.asarray(affected, dtype=np.int64)

        parent = np.append(self._parent, b)
        parent[list(moved)] = w
        parent_edge = np.append(self._parent_edge, int(outcome.new_edge))
        depth = np.append(self._depth, self._depth[b] + 1)
        depth[aff] += 1
        pos = int(np.nonzero(self._order == b)[0][0])
        order = np.insert(self._order, pos + 1, w)
        moved_set = set(moved)
        children = list(self._children)
        children[b] = tuple([c for c in children[b] if c not in moved_set] + [w])
        children.append(moved)
        sizes = self._subtree_size.copy()
        w_size = 1 + int(sum(self._subtree_size[m] for m in moved))
        x = b
        while x >= 0:
            sizes[x] += 1
            x = int(self._parent[x])
        sizes = np.append(sizes, w_size)
        return self._from_parts(
            new_net, new_root, parent, parent_edge, depth, order, children,
            int(depth.max()), sizes,
        )

    # ------------------------------------------------------------------ #
    # structural accessors
    # ------------------------------------------------------------------ #
    @property
    def height(self) -> int:
        """Height of the tree for this root (max depth)."""
        return self._height

    def parent(self, node: int) -> int:
        """Parent of ``node`` (``-1`` for the root)."""
        return int(self._parent[node])

    def parent_edge_id(self, node: int) -> int:
        """Id of the edge connecting ``node`` to its parent (``-1`` for root)."""
        return int(self._parent_edge[node])

    def children(self, node: int) -> Tuple[int, ...]:
        """Children of ``node`` in ascending id order."""
        self._ensure_children()
        return self._children[node]

    def depth(self, node: int) -> int:
        """Depth of ``node`` (root has depth 0)."""
        return int(self._depth[node])

    def level(self, node: int) -> int:
        """Paper level of ``node``: ``height(T) - depth(node)``."""
        return self._height - int(self._depth[node])

    def subtree_size(self, node: int) -> int:
        """Number of nodes in the maximal subtree ``T(node)``."""
        return int(self._subtree_size[node])

    @property
    def preorder(self) -> Sequence[int]:
        """Nodes in a topological order (every parent before its children).

        On a freshly-built view this is a DFS preorder; on a view produced
        by :meth:`repaired` it is only guaranteed to be *topological* --
        subtrees need not occupy contiguous slices.  All in-repo consumers
        (subtree aggregation, CSR construction) rely only on the
        parents-first property.
        """
        return tuple(int(v) for v in self._order)

    @property
    def postorder(self) -> Sequence[int]:
        """Nodes in a topological order reversed (children before parents).

        Same caveat as :attr:`preorder`: contiguous-subtree DFS structure
        is only guaranteed on freshly-built views.
        """
        return tuple(int(v) for v in self._order[::-1])

    def nodes_by_level(self) -> Dict[int, List[int]]:
        """Group node ids by paper level, ``{level: [nodes...]}``."""
        groups: Dict[int, List[int]] = {}
        for v in range(self.network.n_nodes):
            groups.setdefault(self.level(v), []).append(v)
        for lst in groups.values():
            lst.sort()
        return groups

    def is_ancestor(self, anc: int, node: int) -> bool:
        """``True`` iff ``anc`` lies on the path from ``node`` to the root.

        A node is considered an ancestor of itself.
        """
        # Walk up from node; depth difference bounds the walk length.
        while self._depth[node] > self._depth[anc]:
            node = int(self._parent[node])
        return node == anc

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        du, dv = int(self._depth[u]), int(self._depth[v])
        while du > dv:
            u = int(self._parent[u])
            du -= 1
        while dv > du:
            v = int(self._parent[v])
            dv -= 1
        while u != v:
            u = int(self._parent[u])
            v = int(self._parent[v])
        return u

    def path_nodes(self, u: int, v: int) -> List[int]:
        """The unique path from ``u`` to ``v`` as a node sequence."""
        a = self.lca(u, v)
        up: List[int] = []
        x = u
        while x != a:
            up.append(x)
            x = int(self._parent[x])
        down: List[int] = []
        x = v
        while x != a:
            down.append(x)
            x = int(self._parent[x])
        return up + [a] + down[::-1]

    def path_edge_ids(self, u: int, v: int) -> List[int]:
        """Edge ids of the unique path from ``u`` to ``v`` (may be empty)."""
        a = self.lca(u, v)
        edges: List[int] = []
        x = u
        while x != a:
            edges.append(int(self._parent_edge[x]))
            x = int(self._parent[x])
        tail: List[int] = []
        x = v
        while x != a:
            tail.append(int(self._parent_edge[x]))
            x = int(self._parent[x])
        return edges + tail[::-1]

    def distance(self, u: int, v: int) -> int:
        """Number of edges on the path from ``u`` to ``v``."""
        a = self.lca(u, v)
        return int(self._depth[u] + self._depth[v] - 2 * self._depth[a])

    # ------------------------------------------------------------------ #
    # subtree aggregation and Steiner trees: array passes over the parent
    # and depth arrays, valid on repaired (only topological) orders too
    # ------------------------------------------------------------------ #
    def _depth_levels(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``(nodes, parents)`` per depth, deepest first, root excluded.

        Within a level the nodes keep their reversed topological order, so
        every parent receives its children in the sequence of a sequential
        bottom-up sweep.
        """
        if self._levels is None:
            rev = self._order[::-1]
            depth = self._depth[rev]
            levels = [rev[depth == d] for d in range(self._height, 0, -1)]
            self._levels = [(nodes, self._parent[nodes]) for nodes in levels]
        return self._levels

    def subtree_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum the per-node ``values`` over every maximal subtree ``T(v)``.

        Returns an array ``s`` with ``s[v] = sum(values[u] for u in T(v))``
        where ``T(v)`` is the maximal subtree containing ``v`` but not its
        parent (the paper's definition in Section 3.1).  One ``np.add.at``
        per depth level, deepest first; the per-parent addition order is
        that of a bottom-up sweep, so float sums are bit-identical to it.
        """
        values = np.asarray(values)
        if values.shape[0] != self.network.n_nodes:
            raise ValueError("values must have one entry per node")
        sums = values.astype(np.float64 if values.dtype.kind == "f" else np.int64)
        for nodes, parents in self._depth_levels():
            np.add.at(sums, parents, sums[nodes])
        return sums

    def child_maxima(self, values: np.ndarray) -> np.ndarray:
        """Per node, the largest ``values[c]`` over its children ``c``.

        Leaves get 0, so ``values`` is meant to be non-negative (subtree
        weights, for the center-of-gravity test).
        """
        values = np.asarray(values)
        out = np.zeros_like(values)
        child = np.flatnonzero(self._parent >= 0)
        np.maximum.at(out, self._parent[child], values[child])
        return out

    def steiner_edge_ids(self, terminals: Iterable[int]) -> List[int]:
        """Edges of the minimal subtree connecting ``terminals``.

        Used for the write-broadcast cost: a write to object ``x`` loads every
        edge of the Steiner tree connecting the holder set ``P_x``.
        Returns an empty list when fewer than two terminals are given;
        otherwise the parent edges of the nodes with ``0 < below < |S|``
        terminals in their subtree, by ascending node id.  The counts come
        from walking the terminals up their ancestor chains, at most
        ``height + 1`` vectorised steps.
        """
        n = self.network.n_nodes
        term = np.asarray(sorted(set(int(t) for t in terminals)), dtype=np.int64)
        bad = term[(term < 0) | (term >= n)]
        if bad.size:
            raise InvalidNodeError(f"invalid terminal {int(bad[0])}")
        if term.size <= 1:
            return []
        below = np.zeros(n, dtype=np.int64)
        x = term
        while x.size:
            np.add.at(below, x, 1)
            x = self._parent[x]
            x = x[x >= 0]
        inside = np.flatnonzero((below > 0) & (below < term.size))
        return self._parent_edge[inside].tolist()

    def steiner_node_ids(self, terminals: Iterable[int]) -> List[int]:
        """Nodes of the minimal subtree connecting ``terminals``.

        For a single terminal this is the terminal itself; for an empty set
        the result is empty.
        """
        term = sorted(set(int(t) for t in terminals))
        if not term:
            return []
        if len(term) == 1:
            return term
        nodes = set(term)
        for eid in self.steiner_edge_ids(term):
            e = self.network.edge_endpoints(eid)
            nodes.add(e.u)
            nodes.add(e.v)
        return sorted(nodes)

    def nearest_tables(self, candidate_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Nearest candidate of every node, one table row per candidate set.

        Returns an ``(len(candidate_sets), n_nodes)`` int64 table: row
        ``s``, column ``v`` is the member of ``candidate_sets[s]`` closest
        to ``v``, ties to the smallest id -- :meth:`nearest_in_set` for
        every node at once.  Each row costs two sweeps over this view's
        topological order (:func:`repro.core.kernels.nearest_tables`) and
        the table is all the memory a call takes.  An empty set or a
        candidate outside the network raises
        :class:`~repro.errors.InvalidNodeError` before any sweep runs.
        """
        from repro.core import kernels

        sets = [list(s) for s in candidate_sets]
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(s) for s in sets])
        members = np.fromiter(chain.from_iterable(sets), np.int64, int(indptr[-1]))
        return kernels.nearest_tables(
            self._parent, self._order, self._depth, indptr, members
        )

    def nearest_in_set(self, node: int, candidates: Iterable[int]) -> int:
        """Return the candidate closest to ``node`` (ties: smallest id).

        Used to pick the reference copy ``c(P, x)`` as the copy of ``x``
        stored on the node closest to ``P`` (Section 3.2).  The scalar
        reference of :meth:`nearest_tables`.
        """
        cands = sorted(set(int(c) for c in candidates))
        if not cands:
            raise InvalidNodeError("candidate set must not be empty")
        best = cands[0]
        best_dist = self.distance(node, best)
        for c in cands[1:]:
            d = self.distance(node, c)
            if d < best_dist:
                best, best_dist = c, d
        return best
