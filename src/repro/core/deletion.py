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

The module tracks request ownership exactly: every copy records the
``(processor, reads, writes)`` portions it serves as three columns, which is
what the mapping step and the final placement need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.loadstate import LoadState
from repro.core.placement import Placement, RequestAssignment
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
    "portion_columns",
    "refine_copies",
]


class CopyRecord:
    """One physical copy of an object and the requests it serves.

    Attributes
    ----------
    obj:
        Object index.
    node:
        Node currently holding the copy (mutated by the mapping step).
    home:
        Node the copy was created on (before any mapping movement).
    procs, reads, writes:
        The served portions as parallel int64 columns, one row per
        processor, in the order they were added.
    s:
        Number of requests served by this copy (``s(c)`` in the paper),
        kept in step with the columns.
    """

    __slots__ = ("obj", "node", "home", "procs", "reads", "writes", "s", "_rows")

    def __init__(
        self,
        obj: int,
        node: int,
        served: Iterable[Tuple[int, int, int]] = (),
        home: int = -1,
    ) -> None:
        portions = list(served)
        self._set(
            obj,
            node,
            node if home < 0 else home,
            np.array([p for p, _r, _w in portions], dtype=np.int64),
            np.array([r for _p, r, _w in portions], dtype=np.int64),
            np.array([w for _p, _r, w in portions], dtype=np.int64),
            sum(r + w for _p, r, w in portions),
        )

    def _set(self, obj, node, home, procs, reads, writes, s) -> None:
        self.obj = obj
        self.node = node
        self.home = home
        self.procs = procs
        self.reads = reads
        self.writes = writes
        self.s = s
        self._rows: Optional[Dict[int, int]] = None

    @classmethod
    def _from_columns(cls, obj, node, procs, reads, writes, s) -> "CopyRecord":
        """A copy created on ``node`` serving the given columns (``s`` is their total)."""
        copy = cls.__new__(cls)
        copy._set(obj, node, node, procs, reads, writes, s)
        return copy

    @property
    def served(self) -> List[Tuple[int, int, int]]:
        """The served ``(processor, reads, writes)`` portions, in order."""
        return list(zip(self.procs.tolist(), self.reads.tolist(), self.writes.tolist()))

    def add(self, proc: int, reads: int, writes: int) -> None:
        """Add a served portion (merging with an existing one for the processor)."""
        if reads == 0 and writes == 0:
            return
        if self._rows is None:  # first row of each processor
            self._rows = {}
            for i, p in enumerate(self.procs.tolist()):
                self._rows.setdefault(p, i)
        row = self._rows.get(proc)
        if row is None:
            self._rows[proc] = self.procs.size
            self.procs = np.append(self.procs, proc)
            self.reads = np.append(self.reads, reads)
            self.writes = np.append(self.writes, writes)
        else:
            self.reads[row] += reads
            self.writes[row] += writes
        self.s += reads + writes

    def take_all(self) -> List[Tuple[int, int, int]]:
        """Remove and return all served portions."""
        out = self.served
        empty = np.empty(0, dtype=np.int64)
        self._set(self.obj, self.node, self.home, empty, empty.copy(), empty.copy(), 0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CopyRecord(obj={self.obj}, node={self.node}, home={self.home}, "
            f"s={self.s}, portions={self.procs.size})"
        )


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


def _split_quotas(s: int, kappa: int) -> List[int]:
    """Request counts of the copies a copy serving ``s`` requests splits into.

    A copy serving more than ``2·κ`` requests becomes ``m`` co-located
    copies, ``m`` the smallest count with ``s <= 2·κ·m``, whose quotas
    differ by at most one; then every copy serves between ``κ`` and ``2·κ``
    requests (Observation 3.2).  Any other copy stays whole.
    """
    if kappa <= 0 or s <= 2 * kappa:
        return [s]
    m = -(-s // (2 * kappa))
    base, extra = divmod(s, m)
    return [base + 1] * extra + [base] * (m - extra)


def _split_stream(
    procs: np.ndarray,
    reads: np.ndarray,
    writes: np.ndarray,
    quotas: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut a stream of served portions into consecutive copies of given sizes.

    The stream lists every portion's reads before its writes; copy ``k``
    takes the next ``quotas[k]`` requests, so a portion may be divided
    between neighbouring copies.  Returns the cut portions' columns and the
    row offsets of each copy (``bounds[k]:bounds[k + 1]``).
    """
    total = int(reads.sum() + writes.sum())
    port_start = np.cumsum(reads + writes) - (reads + writes)
    quotas = np.asarray(quotas, dtype=np.int64)
    if int(quotas.sum()) != total:  # pragma: no cover - quotas partition every copy
        raise AlgorithmError("copy splitting lost requests")
    copy_start = np.cumsum(quotas) - quotas
    cuts = np.sort(np.concatenate((port_start, copy_start)))
    cuts = cuts[np.append(cuts[1:] != cuts[:-1], True) & (cuts < total)]
    length = np.diff(np.append(cuts, total))
    portion = np.searchsorted(port_start, cuts, side="right") - 1
    owner = np.searchsorted(copy_start, cuts, side="right") - 1
    cut_reads = np.clip(port_start[portion] + reads[portion] - cuts, 0, length)
    bounds = np.searchsorted(owner, np.arange(len(quotas) + 1))
    return procs[portion], cut_reads, length - cut_reads, bounds


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
    return _delete(rooted, pattern, [obj], [holders])[0]


def apply_deletion(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    nibble_placement: Placement,
) -> List[ObjectCopies]:
    """Run the deletion algorithm for every object of a nibble placement."""
    objects = range(pattern.n_objects)
    holder_sets = [nibble_placement.holders(obj) for obj in objects]
    return _delete(network.rooted(), pattern, objects, holder_sets)


def _delete(
    rooted: RootedTree,
    pattern: AccessPattern,
    objects: Sequence[int],
    holder_sets: Sequence[frozenset],
) -> List[ObjectCopies]:
    """The deletion algorithm for several objects over one set of columns.

    Each requester is served by exactly one copy until the split: the
    initial reference copy is the holder nearest to it, and a deleted copy
    hands *all* its portions to one target.  So the per-object loop only
    tracks each copy's request count and the holders whose initial
    portions it has absorbed, in absorption order.  Applying that order to
    the requester rows is one sort per object; cutting the survivors into
    copies of ``κ_x``..``2·κ_x`` requests is one pass over all objects.
    """
    # requester rows of every object, by object and then processor
    selected = np.asarray(list(objects), dtype=np.int64)
    totals = pattern.totals[:, selected]
    position, procs = np.nonzero(totals.T)
    objs = selected[position]
    reads = pattern.reads[procs, objs]
    writes = pattern.writes[procs, objs]
    bounds = np.searchsorted(position, np.arange(selected.size + 1))
    kappas = pattern.write_contentions()[selected].tolist()

    order = np.empty(procs.size, dtype=np.int64)
    plan: List[Tuple[int, int, List[int]]] = []  # (k, node, quotas) per survivor
    for k, (obj, holders, kappa) in enumerate(zip(selected.tolist(), holder_sets, kappas)):
        lo, hi = bounds[k], bounds[k + 1]
        holder_list = sorted(holders)
        if not holder_list:
            raise AlgorithmError(f"object {obj} has an empty holder set")
        slot = np.zeros(hi - lo, dtype=np.int64)
        if hi > lo and len(holder_list) > 1:
            nearest = rooted.nearest_tables([holder_list])[0][procs[lo:hi]]
            slot = np.searchsorted(holder_list, nearest)
        initial = np.bincount(slot, weights=totals[procs[lo:hi], k], minlength=len(holder_list))
        served = dict(zip(holder_list, initial.astype(np.int64).tolist()))
        absorbed = {node: [i] for i, node in enumerate(holder_list)}
        if len(holder_list) > 1:
            _delete_rarely_used(rooted, holders, kappa, served, absorbed)

        # survivors by node id, each serving its absorbed portions in order
        survivors = sorted(served)
        rank = np.empty(len(holder_list), dtype=np.int64)
        rank[[i for node in survivors for i in absorbed[node]]] = np.arange(len(holder_list))
        order[lo:hi] = lo + np.argsort(rank[slot], kind="stable")
        plan.extend((k, node, _split_quotas(served[node], kappa)) for node in survivors)

    cut_procs, cut_reads, cut_writes, cut_bounds = _split_stream(
        procs[order], reads[order], writes[order], [q for _o, _n, qs in plan for q in qs]
    )
    result = [
        ObjectCopies(obj=obj, kappa=kappa, copies=[])
        for obj, kappa in zip(selected.tolist(), kappas)
    ]
    i = 0
    for k, node, quotas in plan:
        oc = result[k]
        for quota in quotas:
            lo, hi = cut_bounds[i], cut_bounds[i + 1]
            oc.copies.append(
                CopyRecord._from_columns(
                    oc.obj, node, cut_procs[lo:hi], cut_reads[lo:hi], cut_writes[lo:hi], quota
                )
            )
            i += 1
    return result


def _delete_rarely_used(
    rooted: RootedTree,
    holders: frozenset,
    kappa: int,
    served: Dict[int, int],
    absorbed: Dict[int, List[int]],
) -> None:
    """Figure 4's loop over ``T(x)``, leaves first, on request counts.

    ``served`` maps each alive copy's node to its request count and
    ``absorbed`` to the initial holders whose portions it serves; a deleted
    copy's entries are moved to its target.
    """
    subtree_root, parent_in, depth_in = _induced_subtree_structure(rooted, holders)
    height = max(depth_in.values()) if depth_in else 0
    # level(v) = height - depth(v); process levels 0 .. height (leaves first).
    by_level: Dict[int, List[int]] = {}
    for node in sorted(holders):
        by_level.setdefault(height - depth_in[node], []).append(node)

    for level in range(0, height + 1):
        for node in sorted(by_level.get(level, [])):
            s = served[node]
            if s >= kappa and not (kappa == 0 and s == 0 and len(served) > 1):
                continue
            # The copy serves too few requests: delete it and move its
            # requests to the parent copy (one level up, so not yet
            # processed) or, for the root of T(x), to the nearest surviving
            # copy.  The ``kappa == 0`` clause additionally prunes
            # completely unused copies of read-only objects, which the
            # paper keeps but which carry no load either way.
            if node != subtree_root:
                target = parent_in[node]
            else:
                others = [n for n in served if n != node]
                if not others:
                    continue  # the last copy is never deleted
                target = rooted.nearest_in_set(node, others)
            served[target] += served.pop(node)
            absorbed[target].extend(absorbed.pop(node))


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
                CopyRecord(obj=c.obj, node=c.node, served=c.served, home=c.home)
                for c in oc.copies
            ],
        )
        for oc in copies_per_object
    ]


def portion_columns(
    copies: Sequence[CopyRecord],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(procs, nodes, reads, writes)`` of the copies' portions, copy by copy.

    ``nodes`` repeats each copy's current node once per portion.
    """
    if not copies:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    return (
        np.concatenate([c.procs for c in copies]),
        np.repeat(
            np.asarray([c.node for c in copies], dtype=np.int64),
            [c.procs.size for c in copies],
        ),
        np.concatenate([c.reads for c in copies]),
        np.concatenate([c.writes for c in copies]),
    )


def _charge_copies(state: LoadState, oc: ObjectCopies) -> None:
    """Charge one object's serving traffic and write broadcast into a state."""
    procs, nodes, reads, writes = portion_columns(oc.copies)
    state.apply_pairs(procs, nodes, reads + writes)
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
                    state.pm.nearest_in_set(procs, remaining)
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
    copies: List[CopyRecord] = []
    objs: List[int] = []
    for obj in range(pattern.n_objects):
        oc = copies_per_object[obj]
        nodes = sorted(oc.holder_nodes)
        if not nodes:
            try:
                fallback = None if fallback_holders is None else fallback_holders[obj]
            except (KeyError, IndexError):
                fallback = None
            if fallback is None:
                raise AlgorithmError(
                    f"object {obj} has no copies and no fallback holder was given"
                )
            nodes = [int(fallback)]
        holders.append(nodes)
        copies.extend(oc.copies)
        objs.extend([obj] * len(oc.copies))
    procs, nodes_col, reads, writes = portion_columns(copies)
    obj_col = np.repeat(np.asarray(objs, dtype=np.int64), [c.procs.size for c in copies])
    placement = Placement(holders)
    assignment = RequestAssignment.from_rows(
        pattern.n_objects, procs, obj_col, nodes_col, reads, writes
    )
    return placement, assignment
