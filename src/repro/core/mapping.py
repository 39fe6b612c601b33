"""Step 3: the mapping algorithm -- moving copies from buses to processors.

After the deletion step, some copies may still sit on inner nodes (buses),
which is forbidden in the hierarchical bus network model.  The mapping
algorithm (Section 3.3, Figures 5 and 6) relocates them to leaves while
keeping the extra *forwarding* load bounded:

* every directed edge carries an **acceptable load** ``L_acc``, initialised
  to twice its **basic load** ``L_b`` (the number of requests whose serving
  path uses the edge in that direction in the modified nibble placement);
* moving a copy ``c`` along a directed edge increases that edge's **mapping
  load** ``L_map`` by ``s(c) + κ_{x(c)}`` (the requests that will be
  forwarded plus the extension of the write-broadcast Steiner tree);
* the **upwards phase** pushes copies towards the root as long as the
  mapping load stays below the acceptable load, then clamps the acceptable
  load of the traversed edge pair (the "adjustment");
* the **downwards phase** pushes every copy still on an inner node towards
  the leaves through *free* child edges
  (``L_map + s(c) + κ ≤ L_acc + τ_max``); Lemma 4.1 shows a free edge always
  exists, and Lemmas 4.4--4.6 turn the accounting into the factor-7
  congestion guarantee of Theorem 4.3.

Implementation notes
--------------------
* The paper roots ``T`` at an arbitrary node.  We allow any root; when the
  root is a bus it is simply processed first in the downwards phase (the
  invariant argument of Lemma 4.1 holds there as well because the root has
  no incoming edge left after the upwards phase).
* Only *affected* objects -- those that still have a copy on a bus after the
  deletion step -- take part in the mapping; the analysis (Section 4)
  explicitly leaves the placement of all other objects unchanged.
* All copies of affected objects participate, including copies already on
  leaves, exactly as in the pseudocode of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.deletion import CopyRecord, ObjectCopies, portion_columns
from repro.errors import AlgorithmError
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork

__all__ = ["MappingResult", "map_copies_to_leaves", "directed_basic_loads"]


@dataclass
class MappingResult:
    """Diagnostics of one run of the mapping algorithm.

    Attributes
    ----------
    root:
        Root node used for the phases.
    affected_objects:
        Objects whose copies participated in the mapping.
    tau_max:
        The constant ``τ_max = max_c (s(c) + κ_{x(c)})`` over participating
        copies (0 when nothing had to be mapped).
    moves_up, moves_down:
        Number of copy movements in the two phases.
    up_mapping_load, down_mapping_load:
        Final mapping loads per directed edge, indexed by the child node of
        the edge (``up`` is child→parent, ``down`` is parent→child).
    up_acceptable_load, down_acceptable_load:
        Final acceptable loads per directed edge (same indexing).
    """

    root: int
    affected_objects: Tuple[int, ...]
    tau_max: int
    moves_up: int
    moves_down: int
    up_mapping_load: np.ndarray
    down_mapping_load: np.ndarray
    up_acceptable_load: np.ndarray
    down_acceptable_load: np.ndarray


def directed_basic_loads(
    network: HierarchicalBusNetwork,
    rooted: RootedTree,
    copies: Sequence[CopyRecord],
) -> Tuple[np.ndarray, np.ndarray]:
    """Basic loads ``L_b`` per directed edge for the given copies.

    A request issued by leaf ``p`` and served by a copy on node ``u`` is
    *basic* for every directed edge on the path from ``u`` to ``p``.  The
    result arrays are indexed by the child endpoint of each (parent, child)
    tree edge: ``up[child]`` is the child→parent direction and
    ``down[child]`` the parent→child direction.

    The path climbs from ``u`` to ``a = lca(u, p)`` and descends to ``p``,
    so the edge above ``v`` carries the request upwards iff ``u`` lies
    below ``v`` and ``a`` does not: ``up`` is the subtree sum of the counts
    at ``u`` minus those at ``a``, and ``down`` likewise with ``p`` --
    one batched LCA and two subtree sums, exact in int64.
    """
    n = network.n_nodes
    procs, nodes, reads, writes = portion_columns(copies)
    if not procs.size:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    counts = reads + writes
    at_lca = _node_counts(rooted.path_matrix().lca(nodes, procs), counts, n)
    up = rooted.subtree_sums(_node_counts(nodes, counts, n) - at_lca)
    down = rooted.subtree_sums(_node_counts(procs, counts, n) - at_lca)
    return up, down


def _node_counts(nodes: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Per-node sums of integer ``counts`` (exact: integer sums below 2**53)."""
    return np.bincount(nodes, weights=counts, minlength=n).astype(np.int64)


def map_copies_to_leaves(
    network: HierarchicalBusNetwork,
    copies_per_object: Sequence[ObjectCopies],
    root: Optional[int] = None,
    affected_objects: Optional[Sequence[int]] = None,
) -> MappingResult:
    """Run the mapping algorithm, mutating ``CopyRecord.node`` in place.

    Parameters
    ----------
    network:
        The hierarchical bus network.
    copies_per_object:
        Output of :func:`repro.core.deletion.apply_deletion` (mutated).
    root:
        Root for the phases; defaults to the network's canonical root.
    affected_objects:
        Objects to map.  Defaults to all objects that still hold a copy on
        a bus.

    Returns
    -------
    MappingResult
        Diagnostics; the final copy locations are recorded in the mutated
        :class:`~repro.core.deletion.CopyRecord` objects.

    Raises
    ------
    AlgorithmError
        If the downwards phase cannot find a free child edge -- impossible
        by Lemma 4.1 for well-formed inputs.

    Notes
    -----
    Within one level of either phase the nodes touch disjoint state (a
    node's stash, its own edge loads and, going down, its own children),
    so only nodes that hold copies are visited; the adjustment of the
    acceptable loads, which every non-root node receives after its upward
    moves, is applied to all of them at once when the upwards phase ends.
    """
    if root is None:
        root = network.canonical_root()
    rooted = network.rooted(root)
    n = network.n_nodes
    is_bus = np.zeros(n, dtype=bool)
    is_bus[list(network.buses)] = True

    if affected_objects is None:
        affected_objects = [
            oc.obj for oc in copies_per_object if oc.has_bus_copy(network)
        ]
    affected = tuple(int(x) for x in affected_objects)
    affected_set = set(affected)

    kappa_of: Dict[int, int] = {oc.obj: oc.kappa for oc in copies_per_object}
    participating: List[CopyRecord] = []
    for oc in copies_per_object:
        if oc.obj in affected_set:
            participating.extend(oc.copies)

    empty = np.zeros(n, dtype=np.float64)
    if not participating or network.n_edges == 0:
        return MappingResult(
            root=root,
            affected_objects=affected,
            tau_max=0,
            moves_up=0,
            moves_down=0,
            up_mapping_load=empty.copy(),
            down_mapping_load=empty.copy(),
            up_acceptable_load=empty.copy(),
            down_acceptable_load=empty.copy(),
        )

    tau_max = max(c.s + kappa_of[c.obj] for c in participating)

    up_basic, down_basic = directed_basic_loads(network, rooted, participating)
    up_acc = 2.0 * up_basic.astype(np.float64)
    down_acc = 2.0 * down_basic.astype(np.float64)
    up_map = np.zeros(n, dtype=np.float64)

    # Copies are handled through their rank in a deterministic order; a
    # stash holds the ranks of the copies currently at a node, and the
    # nodes holding copies are bucketed by paper level.
    ranked = sorted(participating, key=lambda c: (c.obj, c.home, -c.s))
    cost = [c.s + kappa_of[c.obj] for c in ranked]
    height = rooted.height
    level = (height - rooted.path_matrix().depths).tolist()
    stash: Dict[int, List[int]] = {}
    pending: List[set] = [set() for _ in range(height + 1)]
    for rank, copy in enumerate(ranked):
        stash.setdefault(copy.node, []).append(rank)
        pending[level[copy.node]].add(copy.node)

    # ------------------------------------------------------------------ #
    # upwards phase (Figure 5)
    # ------------------------------------------------------------------ #
    moves_up = 0
    for lvl in range(0, height):
        for v in sorted(pending[lvl]):
            parent = rooted.parent(v)
            ranks = stash[v]
            ranks.sort()
            moved = 0
            while moved < len(ranks) and up_map[v] + tau_max <= up_acc[v]:
                rank = ranks[moved]
                ranked[rank].node = parent
                stash.setdefault(parent, []).append(rank)
                pending[lvl + 1].add(parent)
                up_map[v] += cost[rank]
                moved += 1
            moves_up += moved
            del ranks[:moved]
    nonroot = np.arange(n) != root
    delta = up_acc[nonroot] - up_map[nonroot]
    up_acc[nonroot] -= delta
    down_acc[nonroot] -= delta

    # ------------------------------------------------------------------ #
    # downwards phase (Figure 6)
    # ------------------------------------------------------------------ #
    moves_down = 0
    room = (down_acc + tau_max).tolist()  # L_acc + τ_max per edge
    down_map = [0.0] * n
    for lvl in range(height, 0, -1):
        for v in sorted(pending[lvl]):
            ranks = stash.get(v)
            if not ranks or not is_bus[v]:
                continue
            ranks.sort()
            children = rooted.children(v)
            for rank in ranks:
                c = cost[rank]
                best_child = None
                best_slack = None
                for child in children:
                    slack = room[child] - down_map[child] - c
                    if slack >= 0 and (best_slack is None or slack > best_slack):
                        best_child, best_slack = child, slack
                if best_child is None:
                    raise AlgorithmError(
                        f"no free child edge at node {v} for a copy of object "
                        f"{ranked[rank].obj}; Lemma 4.1 excludes this for valid inputs"
                    )
                ranked[rank].node = best_child
                stash.setdefault(best_child, []).append(rank)
                pending[lvl - 1].add(best_child)
                down_map[best_child] += c
                moves_down += 1
            stash[v] = []

    # Sanity: every participating copy must now sit on a processor.
    for copy in participating:
        if is_bus[copy.node]:
            raise AlgorithmError(
                f"copy of object {copy.obj} remained on bus {copy.node} after mapping"
            )

    return MappingResult(
        root=root,
        affected_objects=affected,
        tau_max=int(tau_max),
        moves_up=moves_up,
        moves_down=moves_down,
        up_mapping_load=up_map,
        down_mapping_load=np.asarray(down_map, dtype=np.float64),
        up_acceptable_load=up_acc,
        down_acceptable_load=down_acc,
    )
