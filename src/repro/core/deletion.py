"""Step 2: the deletion algorithm -- removing rarely used copies.

After the nibble step every object ``x`` has a connected subtree ``T(x)`` of
copy holders.  The deletion algorithm (Section 3.2, Figure 4) removes copies
that serve fewer than ``κ_x`` requests, reassigning their requests to the
copy on the parent node inside ``T(x)`` (or, for the root of ``T(x)``, to
the nearest surviving copy).  Copies serving more than ``2·κ_x`` requests are
split into several co-located copies so that, in the end, *every copy serves
between ``κ_x`` and ``2·κ_x`` requests* (Observation 3.2).  This bounds the
number of copies per object and bounds the extra load of the later mapping
step.

The module tracks request ownership exactly: every copy records the list of
``(processor, reads, writes)`` portions it serves, which is what the mapping
step and the final placement need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.loadstate import LoadState
from repro.core.placement import Placement, RequestAssignment, Share
from repro.errors import AlgorithmError
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "CopyRecord",
    "ObjectCopies",
    "RefinementResult",
    "delete_rarely_used_copies",
    "apply_deletion",
    "copies_to_placement",
    "refine_copies",
]


@dataclass
class CopyRecord:
    """One physical copy of an object and the requests it serves.

    Attributes
    ----------
    obj:
        Object index.
    node:
        Node currently holding the copy (mutated by the mapping step).
    served:
        List of ``(processor, reads, writes)`` portions served by this copy.
    home:
        Node the copy was created on (before any mapping movement).
    """

    obj: int
    node: int
    served: List[Tuple[int, int, int]] = field(default_factory=list)
    home: int = -1

    def __post_init__(self) -> None:
        if self.home < 0:
            self.home = self.node

    @property
    def s(self) -> int:
        """Number of requests served by this copy (``s(c)`` in the paper)."""
        return sum(r + w for (_p, r, w) in self.served)

    def add(self, proc: int, reads: int, writes: int) -> None:
        """Add a served portion (merging with an existing one for the processor)."""
        if reads == 0 and writes == 0:
            return
        for i, (p, r, w) in enumerate(self.served):
            if p == proc:
                self.served[i] = (p, r + reads, w + writes)
                return
        self.served.append((proc, reads, writes))

    def take_all(self) -> List[Tuple[int, int, int]]:
        """Remove and return all served portions."""
        out = self.served
        self.served = []
        return out


@dataclass
class ObjectCopies:
    """All copies of one object after the deletion step."""

    obj: int
    kappa: int
    copies: List[CopyRecord]

    @property
    def holder_nodes(self) -> frozenset:
        """Set of nodes currently holding at least one copy."""
        return frozenset(c.node for c in self.copies)

    @property
    def total_served(self) -> int:
        """Total number of requests served by all copies."""
        return sum(c.s for c in self.copies)

    def has_bus_copy(self, network: HierarchicalBusNetwork) -> bool:
        """True iff at least one copy currently sits on a bus."""
        return any(network.is_bus(c.node) for c in self.copies)


def _induced_subtree_structure(
    rooted: RootedTree, holders: frozenset
) -> Tuple[int, Dict[int, int], Dict[int, int]]:
    """Root the connected holder set and compute parents and depths within it.

    The subtree ``T(x)`` is rooted at its smallest-id node (an arbitrary but
    deterministic choice, as permitted by the paper).  Returns
    ``(root, parent_in_subtree, depth_in_subtree)``.
    """
    root = min(holders)
    parent: Dict[int, int] = {root: -1}
    depth: Dict[int, int] = {root: 0}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in rooted.network.neighbors(u):
            if v in holders and v not in seen:
                seen.add(v)
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    if seen != set(holders):
        raise AlgorithmError(
            "holder set is not connected; the nibble placement guarantees "
            "connectivity, so this indicates a malformed input"
        )
    return root, parent, depth


def _split_copy(copy: CopyRecord, kappa: int) -> List[CopyRecord]:
    """Split a copy serving more than ``2·κ`` requests into several copies.

    Every resulting copy serves between ``κ`` and ``2·κ`` requests
    (Observation 3.2).  Portions of a single processor may be divided across
    copies; reads are handed out before writes within a portion.
    """
    s = copy.s
    if kappa <= 0 or s <= 2 * kappa:
        return [copy]
    # number of copies: smallest m with s <= 2*kappa*m; then s >= kappa*m holds
    m = -(-s // (2 * kappa))
    base, extra = divmod(s, m)
    quotas = [base + 1] * extra + [base] * (m - extra)

    pieces: List[Tuple[int, int, int]] = []  # (proc, reads, writes) stream
    for proc, reads, writes in copy.served:
        pieces.append((proc, reads, writes))

    result: List[CopyRecord] = []
    idx = 0
    cur_proc, cur_reads, cur_writes = (None, 0, 0)
    for quota in quotas:
        new_copy = CopyRecord(obj=copy.obj, node=copy.node, home=copy.home)
        need = quota
        while need > 0:
            if cur_reads == 0 and cur_writes == 0:
                cur_proc, cur_reads, cur_writes = pieces[idx]
                idx += 1
            take_reads = min(cur_reads, need)
            cur_reads -= take_reads
            need -= take_reads
            take_writes = min(cur_writes, need)
            cur_writes -= take_writes
            need -= take_writes
            new_copy.add(cur_proc, take_reads, take_writes)
        result.append(new_copy)
    if cur_reads or cur_writes or idx != len(pieces):  # pragma: no cover
        raise AlgorithmError("copy splitting lost requests")
    return result


def delete_rarely_used_copies(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    obj: int,
    holders: frozenset,
    rooted: Optional[RootedTree] = None,
) -> ObjectCopies:
    """Run the deletion algorithm (Figure 4) for a single object.

    Parameters
    ----------
    network, pattern, obj:
        The instance and the object index.
    holders:
        The nibble holder set ``T(x)`` for the object (must be connected).
    rooted:
        Optional rooted view of the network (for nearest-copy queries).

    Returns
    -------
    ObjectCopies
        Surviving copies, each serving between ``κ_x`` and ``2·κ_x``
        requests (when ``κ_x > 0``), with their exact served request
        portions.
    """
    if rooted is None:
        rooted = network.rooted()
    kappa = pattern.write_contention(obj)

    # Initial reference copies: the holder nearest to each requester,
    # resolved for all requesters at once via the path-incidence structure.
    holder_list = sorted(holders)
    copy_at: Dict[int, CopyRecord] = {
        node: CopyRecord(obj=obj, node=node) for node in holder_list
    }
    requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
    if requesters.size:
        nearest = rooted.path_matrix().nearest_in_set(requesters, holder_list)
        reads = pattern.reads[requesters, obj]
        writes = pattern.writes[requesters, obj]
        for proc, holder, r, w in zip(requesters, nearest, reads, writes):
            copy_at[int(holder)].add(int(proc), int(r), int(w))

    if len(holder_list) == 1:
        only = copy_at[holder_list[0]]
        return ObjectCopies(obj=obj, kappa=kappa, copies=_split_copy(only, kappa))

    subtree_root, parent_in, depth_in = _induced_subtree_structure(rooted, holders)
    height = max(depth_in.values()) if depth_in else 0
    # level(v) = height - depth(v); process levels 0 .. height (leaves first).
    by_level: Dict[int, List[int]] = {}
    for node in holder_list:
        by_level.setdefault(height - depth_in[node], []).append(node)

    alive: Dict[int, CopyRecord] = dict(copy_at)
    for level in range(0, height + 1):
        for node in sorted(by_level.get(level, [])):
            copy = alive.get(node)
            if copy is None:
                continue
            if copy.s >= kappa and not (kappa == 0 and copy.s == 0 and len(alive) > 1):
                continue
            # The copy serves too few requests: delete it and move its
            # requests to the parent copy (or the nearest surviving copy for
            # the root of T(x)).  The ``kappa == 0`` clause additionally
            # prunes completely unused copies of read-only objects, which the
            # paper keeps but which carry no load either way.
            if node != subtree_root:
                target_node = parent_in[node]
                target = alive.get(target_node)
                if target is None:
                    # The parent was already deleted in an earlier round
                    # (possible only for kappa == 0 pruning); fall back to
                    # the nearest surviving copy.
                    target = alive[rooted.nearest_in_set(node, list(alive))]
            else:
                others = [n for n in alive if n != node]
                if not others:
                    continue  # the last copy is never deleted
                target = alive[rooted.nearest_in_set(node, others)]
            for proc, reads, writes in copy.take_all():
                target.add(proc, reads, writes)
            del alive[node]

    survivors: List[CopyRecord] = []
    for node in sorted(alive):
        survivors.extend(_split_copy(alive[node], kappa))
    return ObjectCopies(obj=obj, kappa=kappa, copies=survivors)


def apply_deletion(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    nibble_placement: Placement,
) -> List[ObjectCopies]:
    """Run the deletion algorithm for every object of a nibble placement."""
    rooted = network.rooted()
    result: List[ObjectCopies] = []
    for obj in range(pattern.n_objects):
        result.append(
            delete_rarely_used_copies(
                network, pattern, obj, nibble_placement.holders(obj), rooted=rooted
            )
        )
    return result


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of the congestion local search over copy records.

    Attributes
    ----------
    copies:
        Refined per-object copy records (the inputs are not mutated).
    moves_accepted:
        Number of copy-removal moves whose tentative evaluation improved
        the congestion and was committed.
    congestion_before / congestion_after:
        Congestion of the copies' exact assignment before and after.
    """

    copies: Tuple[ObjectCopies, ...]
    moves_accepted: int
    congestion_before: float
    congestion_after: float


def _clone_copies(copies_per_object: Sequence[ObjectCopies]) -> List[ObjectCopies]:
    return [
        ObjectCopies(
            obj=oc.obj,
            kappa=oc.kappa,
            copies=[
                CopyRecord(obj=c.obj, node=c.node, served=list(c.served), home=c.home)
                for c in oc.copies
            ],
        )
        for oc in copies_per_object
    ]


def _charge_copies(state: LoadState, oc: ObjectCopies) -> None:
    """Charge one object's serving traffic and write broadcast into a state."""
    procs: List[int] = []
    nodes: List[int] = []
    weights: List[int] = []
    for copy in oc.copies:
        for proc, reads, writes in copy.served:
            procs.append(proc)
            nodes.append(copy.node)
            weights.append(reads + writes)
    state.apply_pairs(procs, nodes, weights)
    holders = set(c.node for c in oc.copies)
    if oc.kappa > 0 and len(holders) > 1:
        state.apply_steiner(holders, float(oc.kappa))


def refine_copies(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    copies_per_object: Sequence[ObjectCopies],
    max_rounds: int = 3,
    tolerance: float = 1e-9,
    rooted: Optional[RootedTree] = None,
) -> RefinementResult:
    """Congestion local search over copy records (tentative-move evaluation).

    A move removes every copy of one object at one holder node and hands
    the served portions to the nearest remaining holder of that object
    (shrinking the write-broadcast Steiner tree accordingly).  Each move is
    evaluated *tentatively* on the incremental
    :class:`~repro.core.loadstate.LoadState`: apply the delta under a
    snapshot, read the lazily-repaired congestion, and commit or roll back
    -- no full :func:`~repro.core.congestion.compute_loads` pass per
    candidate.  Moves are accepted only when they strictly improve the
    congestion, so the result never costs more than the input.

    This is an optional post-pass: it deliberately trades the
    ``[κ_x, 2κ_x]`` service window of Observation 3.2 for lower measured
    congestion, so it runs *after* the paper pipeline, never inside it.
    """
    if rooted is None:
        rooted = network.rooted()
    copies = _clone_copies(copies_per_object)

    state = LoadState(network, rooted)
    for oc in copies:
        _charge_copies(state, oc)
    congestion_before = state.congestion

    moves = 0
    for _ in range(max(0, max_rounds)):
        improved = False
        for oc in copies:
            nodes = sorted(set(c.node for c in oc.copies))
            for node in nodes:
                remaining = [n for n in sorted(set(c.node for c in oc.copies)) if n != node]
                if not remaining:
                    continue
                at_node = [c for c in oc.copies if c.node == node]
                portions = [p for c in at_node for p in c.served]
                procs = np.asarray([p for (p, _r, _w) in portions], dtype=np.int64)
                weights = np.asarray(
                    [r + w for (_p, r, w) in portions], dtype=np.float64
                )
                targets = (
                    state.nearest_in_set(procs, remaining)
                    if procs.size
                    else np.empty(0, dtype=np.int64)
                )

                before = state.congestion
                snap = state.snapshot()
                # tentative move: reroute the served portions ...
                state.apply_pairs(procs, np.full(procs.shape, node), -weights)
                state.apply_pairs(procs, targets, weights)
                # ... and shrink the write broadcast
                old_holders = set(remaining) | {node}
                if oc.kappa > 0 and len(old_holders) > 1:
                    state.apply_steiner(old_holders, -float(oc.kappa))
                    if len(remaining) > 1:
                        state.apply_steiner(remaining, float(oc.kappa))
                if state.congestion < before - tolerance:
                    state.commit(snap)
                    moves += 1
                    improved = True
                    # commit the move on the records: merge portions into
                    # the target-node copies
                    by_node = {
                        c.node: c for c in oc.copies if c.node != node
                    }
                    for (proc, reads, writes), target in zip(portions, targets):
                        by_node[int(target)].add(proc, reads, writes)
                    oc.copies = [c for c in oc.copies if c.node != node]
                else:
                    state.rollback(snap)
        if not improved:
            break

    return RefinementResult(
        copies=tuple(copies),
        moves_accepted=moves,
        congestion_before=congestion_before,
        congestion_after=state.congestion,
    )


def copies_to_placement(
    copies_per_object: Sequence[ObjectCopies],
    pattern: AccessPattern,
    fallback_holders: Optional[Union[Sequence[int], Mapping[int, int]]] = None,
) -> Tuple[Placement, RequestAssignment]:
    """Convert per-object copy records into a placement and an assignment.

    Parameters
    ----------
    copies_per_object:
        One :class:`ObjectCopies` per object (from :func:`apply_deletion` or
        after the mapping step).
    pattern:
        The access pattern (used for the object count and request totals).
    fallback_holders:
        Holder to use for an object that ended up with no copies at all
        (only possible for objects without requests); one node per object,
        or a mapping holding at least the objects without copies.
    """
    holders: List[List[int]] = []
    shares: Dict[Tuple[int, int], List[Share]] = {}
    for obj in range(pattern.n_objects):
        oc = copies_per_object[obj]
        nodes = sorted(oc.holder_nodes)
        if not nodes:
            if fallback_holders is None:
                raise AlgorithmError(
                    f"object {obj} has no copies and no fallback holder was given"
                )
            nodes = [int(fallback_holders[obj])]
        holders.append(nodes)
        for copy in oc.copies:
            for proc, reads, writes in copy.served:
                shares.setdefault((proc, obj), []).append(
                    Share(copy.node, reads, writes)
                )
    # Merge shares with identical holders (a processor may have several
    # portions on the same node after splitting).
    merged: Dict[Tuple[int, int], List[Share]] = {}
    for key, entries in shares.items():
        by_holder: Dict[int, List[int]] = {}
        for s in entries:
            agg = by_holder.setdefault(s.holder, [0, 0])
            agg[0] += s.reads
            agg[1] += s.writes
        merged[key] = [Share(h, r, w) for h, (r, w) in sorted(by_holder.items())]
    placement = Placement(holders)
    assignment = RequestAssignment(merged, pattern.n_objects)
    return placement, assignment
