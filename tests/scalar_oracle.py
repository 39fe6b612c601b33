"""Scalar oracle of the strategy layer: every request served on its own.

The dynamic model (Section 1.3 of the paper) serves requests one at a
time; production serves every span, one event or many, through
``serve_chunk``.  This module keeps the scalar code the batched paths
replaced, as the reference the differential suites and the online and
adaptive-fleet benchmark gates compare against (ARCHITECTURE.md
invariant 1): the scalar :func:`serve` with the ``AdaptiveState``
transitions it makes, the request/churn interleaver it served under
before the timeline loop, the pre-refactor cost account, the static cost model
before the path-incidence operator, and the greedy baseline's and the
exact search's hand-rolled candidate blocks and scoring before both went
through ``PathMatrix.pair_edge_loads_lanes`` and
``LoadState.trial_congestions``, and the request replay's round scheduler
before it kept its capacities and sorted only the queues that changed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.baselines import _check
from repro.core.congestion import LoadProfile
from repro.core.placement import Placement, RequestAssignment
from repro.dynamic.adaptive_state import AdaptiveState
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent
from repro.errors import SimulationError
from repro.network.mutation import AttachLeaf, apply_mutation
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern


class ReferenceOnlineCostAccount:
    """The pre-refactor cost account: charges walk edge ids in Python loops
    (the path twice, as it always did) and ``bus_loads`` / ``congestion``
    rescan everything on every read.  It has no ``state``, so the engine
    refuses it and only :func:`serve` drives it."""

    __slots__ = ("network", "edge_loads", "service_units", "management_units")

    def __init__(self, network: HierarchicalBusNetwork) -> None:
        self.network = network
        self.edge_loads = np.zeros(network.n_edges, dtype=np.float64)
        self.service_units = 0.0
        self.management_units = 0.0

    def _book(self, cost: float, management: bool) -> None:
        if management:
            self.management_units += cost
        else:
            self.service_units += cost

    def charge_path(self, rooted: RootedTree, src: int, dst: int, amount: float = 1.0,
                    management: bool = False) -> None:
        if amount <= 0 or src == dst:
            return
        for eid in rooted.path_edge_ids(src, dst):
            self.edge_loads[eid] += amount
        self._book(amount * len(rooted.path_edge_ids(src, dst)), management)

    def charge_steiner(self, rooted: RootedTree, terminals, amount: float = 1.0,
                       management: bool = False) -> None:
        terminals = list(terminals)
        if amount <= 0 or len(terminals) < 2:
            return
        edges = rooted.steiner_edge_ids(terminals)
        for eid in edges:
            self.edge_loads[eid] += amount
        self._book(amount * len(edges), management)

    def charge_pairs(self, u, v, w, management: bool = False) -> None:
        rooted = self.network.rooted()
        for src, dst, amount in zip(u, v, w):
            self.charge_path(rooted, int(src), int(dst), float(amount), management)

    @property
    def bus_loads(self) -> np.ndarray:
        loads = np.zeros(self.network.n_nodes, dtype=np.float64)
        for bus in self.network.buses:
            incident = list(self.network.incident_edge_ids(bus))
            loads[bus] = self.edge_loads[incident].sum() / 2.0
        return loads

    @property
    def congestion(self) -> float:
        value = 0.0
        if self.edge_loads.size:
            value = float((self.edge_loads / np.asarray(self.network.edge_bandwidths)).max())
        bus_bw = np.asarray(self.network.bus_bandwidths)
        bus_loads = self.bus_loads
        for bus in self.network.buses:
            value = max(value, bus_loads[bus] / bus_bw[bus])
        return value

    @property
    def total_load(self) -> float:
        return float(self.edge_loads.sum())


def charge_path(account, rooted: RootedTree, src: int, dst: int, amount: int = 1,
                management: bool = False) -> None:
    """Charge ``amount`` requests on every edge of the path ``src -> dst``:
    the reference account walks the path, any other account books it as
    one pair of ``charge_pairs`` (exact for integer amounts)."""
    if isinstance(account, ReferenceOnlineCostAccount):
        account.charge_path(rooted, src, dst, amount, management)
    elif amount > 0 and src != dst:
        account.charge_pairs([src], [dst], [amount], management=management)


def charge_steiner(account, rooted: RootedTree, terminals, amount: int = 1,
                   management: bool = False) -> None:
    """Charge ``amount`` requests on every edge of the Steiner tree of
    ``terminals``: the reference account walks the tree's edge ids, any
    other account charges it through ``LoadState.apply_steiner``."""
    if isinstance(account, ReferenceOnlineCostAccount):
        account.charge_steiner(rooted, terminals, amount, management)
    elif amount > 0 and len(terminals) > 1:
        account._book(amount * account.state.apply_steiner(terminals, amount), management)


def serve(strategy, event: RequestEvent) -> None:
    """Serve one request through ``strategy``, charging its account."""
    if isinstance(strategy, EdgeCounterManager):
        _serve_adaptive(strategy, event)
    elif isinstance(strategy, StaticPlacementManager):
        _serve_static(strategy, event)
    else:
        raise TypeError(f"no scalar serve for {type(strategy).__name__}")


def serve_events(strategy, events):
    """Serve ``events`` one by one; returns the strategy's account."""
    for event in events:
        serve(strategy, event)
    return strategy.account


def reference_replay_with_churn(strategy, sequence, trace, sample_every=None):
    """``replay_with_churn`` as it was before the kernel refactor: mutations
    applied before the event at their time, every event served on its own
    by :func:`serve` (or dropped once its processor detached), the
    congestion sampled every ``sample_every`` events and at the end."""
    base_n = strategy.network.n_nodes
    timed = trace.events if trace else ()
    n_refs = base_n + (trace.attach_count() if trace else 0)
    current_of_ref = np.full(n_refs, -1, dtype=np.int64)
    current_of_ref[:base_n] = np.arange(base_n, dtype=np.int64)
    next_attach_ref = base_n

    outcomes = []
    served = 0
    dropped = 0
    samples = []
    sample_times = []
    ti = 0

    def apply_pending(now):
        nonlocal ti, next_attach_ref
        while ti < len(timed) and timed[ti].time <= now:
            mutation = timed[ti].mutation
            outcome = apply_mutation(strategy.network, mutation)
            strategy.apply_mutation(outcome)
            outcomes.append(outcome)
            alive = current_of_ref >= 0
            current_of_ref[alive] = outcome.node_map[current_of_ref[alive]]
            if isinstance(mutation, AttachLeaf):
                current_of_ref[next_attach_ref] = int(outcome.new_node)
                next_attach_ref += 1
            ti += 1

    for i, event in enumerate(sequence):
        apply_pending(i)
        proc = int(current_of_ref[event.processor])
        if proc < 0:
            dropped += 1
        else:
            if proc == event.processor:
                serve(strategy, event)
            else:
                serve(strategy, RequestEvent(proc, event.obj, event.kind))
            served += 1
        if sample_every is not None and (
            (i + 1) % sample_every == 0 or i + 1 == len(sequence)
        ):
            samples.append(strategy.account.congestion)
            sample_times.append(i + 1)

    apply_pending(max(len(sequence), trace.max_time if trace else -1))
    return {
        "account": strategy.account,
        "outcomes": outcomes,
        "served": served,
        "dropped": dropped,
        "trajectory": np.asarray(samples, dtype=np.float64) if sample_every else None,
        "sample_times": np.asarray(sample_times, dtype=np.int64) if sample_every else None,
    }


def _serve_static(manager: StaticPlacementManager, event: RequestEvent) -> None:
    # the nearest-copy table serve_chunk gathers from: a
    # rooted.nearest_in_set call per event would triple the incremental
    # arm of the online speedup gate
    tables = manager.tables()
    target = int(tables.nearest[tables.row_of[event.obj], event.processor])
    charge_path(manager.account, manager.rooted, event.processor, target)
    if event.is_write:
        charge_steiner(manager.account, manager.rooted, manager.holders(event.obj))


def _serve_adaptive(manager: EdgeCounterManager, event: RequestEvent) -> None:
    adaptive = manager._adaptive
    account, rooted = manager.account, manager.rooted
    obj, proc = event.obj, event.processor
    if not adaptive.n_holders[obj]:
        # first touch: the object materialises on the first requester
        materialise(adaptive, obj, proc)
    holders = adaptive.holders_list(obj)
    nearest = holders[0] if len(holders) == 1 else rooted.nearest_in_set(proc, holders)
    mask = adaptive.holder_mask[obj]

    if event.is_read:
        charge_path(account, rooted, proc, nearest)
        if not mask[proc]:
            credit = int(adaptive.read_credit[obj, proc]) + 1
            if credit >= manager.replicate_threshold:
                # replicate: ship the object from the nearest copy
                charge_path(account, rooted, nearest, proc,
                            amount=manager.object_size, management=True)
                add_holder(adaptive, obj, proc)
            else:
                adaptive.read_credit[obj, proc] = credit
        else:
            adaptive.unread_writes[obj, proc] = 0
        return

    # write request: update the reference copy and broadcast to replicas
    charge_path(account, rooted, proc, nearest)
    charge_steiner(account, rooted, holders)
    # age replicas; drop the ones nobody read for a while (no traffic)
    writer_holder = proc if mask[proc] else nearest
    unread = adaptive.unread_writes[obj]
    stale: List[int] = []
    for holder in holders:
        if holder == writer_holder:
            unread[holder] = 0
            continue
        unread[holder] += 1
        if unread[holder] >= manager.invalidation_patience and len(holders) > 1:
            stale.append(holder)
    for holder in stale:
        if adaptive.n_holders[obj] > 1:
            drop_holder(adaptive, obj, holder)
    # migration: a lonely copy follows a persistent remote writer
    if adaptive.n_holders[obj] == 1 and not adaptive.holder_mask[obj, proc]:
        credit = int(adaptive.read_credit[obj, proc]) + 1
        if credit >= manager.migrate_threshold:
            old = adaptive.holders_list(obj)[0]
            charge_path(account, rooted, old, proc,
                        amount=manager.object_size, management=True)
            set_sole_holder(adaptive, obj, proc)
        else:
            adaptive.read_credit[obj, proc] = credit


# AdaptiveState transitions, each mirroring one historical dict/set
# transition bit for bit
def materialise(state: AdaptiveState, obj: int, proc: int) -> None:
    """First touch: the object appears on its first requester."""
    state.holder_mask[obj, proc] = True
    state.n_holders[obj] = 1


def add_holder(state: AdaptiveState, obj: int, proc: int) -> None:
    """Replication: ``proc`` earns a replica; both counters reset."""
    state.holder_mask[obj, proc] = True
    state.n_holders[obj] += 1
    state.read_credit[obj, proc] = 0
    state.unread_writes[obj, proc] = 0


def drop_holder(state: AdaptiveState, obj: int, proc: int) -> None:
    """Invalidation: the replica goes with its unread-write counter; its
    read credit survives, as historically."""
    state.holder_mask[obj, proc] = False
    state.n_holders[obj] -= 1
    state.unread_writes[obj, proc] = 0


def set_sole_holder(state: AdaptiveState, obj: int, proc: int) -> None:
    """Migration: ``proc`` becomes the only holder; the unread-write row
    is wholesale reset."""
    row = state.holder_mask[obj]
    current = np.flatnonzero(row)
    state.unread_writes[obj, current] = 0
    row[current] = False
    row[proc] = True
    state.unread_writes[obj, proc] = 0
    state.read_credit[obj, proc] = 0
    state.n_holders[obj] = 1


def reference_object_edge_loads(
    network: HierarchicalBusNetwork, pattern: AccessPattern, placement: Placement,
    obj: int, assignment: Optional[RequestAssignment] = None,
    rooted: Optional[RootedTree] = None,
) -> np.ndarray:
    """Scalar per-object edge loads (the pre-vectorization
    ``object_edge_loads``)."""
    if rooted is None:
        rooted = network.rooted()
    if assignment is None:
        assignment = RequestAssignment.nearest_copy(network, pattern, placement)
    loads = np.zeros(network.n_edges, dtype=np.float64)
    holders = placement.holders(obj)
    # request -> reference copy traffic
    for proc in pattern.requesters(obj):
        for share in assignment.shares(proc, obj):
            if share.total == 0:
                continue
            for eid in rooted.path_edge_ids(proc, share.holder):
                loads[eid] += share.total
    # write broadcast over the Steiner tree of the holder set
    kappa = pattern.write_contention(obj)
    if kappa > 0 and len(holders) > 1:
        for eid in rooted.steiner_edge_ids(holders):
            loads[eid] += kappa
    return loads


def reference_compute_loads(
    network: HierarchicalBusNetwork, pattern: AccessPattern, placement: Placement,
    assignment: Optional[RequestAssignment] = None, validate: bool = True,
) -> LoadProfile:
    """Scalar whole-placement evaluation (the pre-vectorization
    ``compute_loads``)."""
    if validate:
        placement.validate_for(network, pattern)
        pattern.validate_for(network)
    if assignment is None:
        assignment = RequestAssignment.nearest_copy(network, pattern, placement)
    elif validate:
        assignment.validate_for(network, pattern, placement)
    rooted = network.rooted()
    edge_loads = np.zeros(network.n_edges, dtype=np.float64)
    for obj in range(pattern.n_objects):
        edge_loads += reference_object_edge_loads(
            network, pattern, placement, obj, assignment=assignment, rooted=rooted
        )
    # a bus carries half the load of its incident edges
    bus_loads = np.zeros(network.n_nodes, dtype=np.float64)
    for bus in network.buses:
        bus_loads[bus] = edge_loads[list(network.incident_edge_ids(bus))].sum() / 2.0
    return LoadProfile(network=network, edge_loads=edge_loads, bus_loads=bus_loads)


def reference_greedy_congestion_placement(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    object_order: Optional[Sequence[int]] = None,
) -> Placement:
    """``greedy_congestion_placement`` before the load state scored its
    candidates: its own leaf-column scatter, fold and max."""
    procs = _check(network, pattern)
    pm = network.rooted().path_matrix()
    if object_order is None:
        totals = pattern.total_requests_all()
        object_order = sorted(
            range(pattern.n_objects), key=lambda x: (-int(totals[x]), x)
        )

    procs_arr = np.asarray(procs, dtype=np.int64)
    n_leaves = procs_arr.size
    edge_bw = np.asarray(network.edge_bandwidths)
    bus_bw = np.asarray(network.bus_bandwidths)
    all_totals = pattern.totals

    edge_loads = np.zeros(network.n_edges, dtype=np.float64)
    chosen = [procs[0]] * pattern.n_objects

    # For every object, evaluate all candidate leaves in one batched column
    # computation: the per-leaf load vectors of a single copy (path loads
    # only; no Steiner tree for a single copy) become columns of one matrix.
    for obj in object_order:
        requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
        if requesters.size == 0:
            chosen[obj] = procs[0]
            continue
        counts = all_totals[requesters, obj].astype(np.float64)
        lcas = pm.lca(requesters[:, None], procs_arr[None, :])
        delta = np.zeros((network.n_nodes, n_leaves), dtype=np.float64)
        delta[requesters, :] += counts[:, None]
        np.add.at(delta, (procs_arr, np.arange(n_leaves)), counts.sum())
        cols = np.broadcast_to(np.arange(n_leaves), lcas.shape)
        np.add.at(delta, (lcas, cols), np.broadcast_to(-2.0 * counts[:, None], lcas.shape))
        leaf_loads = pm.edge_loads_from_deltas(delta)

        trials = edge_loads[:, None] + leaf_loads
        scores = (trials / edge_bw[:, None]).max(axis=0) if trials.size else np.zeros(n_leaves)
        bus_loads = pm.bus_loads_from_edge_loads(trials)
        scores = np.maximum(scores, (bus_loads / bus_bw[:, None]).max(axis=0))
        # argmin returns the first minimum, i.e. the smallest leaf id on ties
        best = int(np.argmin(scores))
        chosen[obj] = int(procs_arr[best])
        edge_loads += leaf_loads[:, best]
    return Placement.single_holder(chosen)


def reference_per_object_leaf_loads(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    procs: Sequence[int],
) -> List[np.ndarray]:
    """The exact search's ``_per_object_leaf_loads`` with its own 2-D
    pair-delta scatter: one ``(n_edges, n_leaves)`` block per object."""
    pm = network.rooted().path_matrix()
    procs_arr = np.asarray(procs, dtype=np.int64)
    n_leaves = procs_arr.size
    totals = pattern.totals
    out: List[np.ndarray] = []
    for obj in range(pattern.n_objects):
        requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
        if requesters.size == 0:
            out.append(np.zeros((network.n_edges, n_leaves), dtype=np.float64))
            continue
        counts = totals[requesters, obj].astype(np.float64)
        lcas = pm.lca(requesters[:, None], procs_arr[None, :])
        delta = np.zeros((network.n_nodes, n_leaves), dtype=np.float64)
        delta[requesters, :] += counts[:, None]
        np.add.at(delta, (procs_arr, np.arange(n_leaves)), counts.sum())
        cols = np.broadcast_to(np.arange(n_leaves), lcas.shape)
        np.add.at(delta, (lcas, cols), np.broadcast_to(-2.0 * counts[:, None], lcas.shape))
        out.append(pm.edge_loads_from_deltas(delta))
    return out


def reference_schedule_rounds(network: HierarchicalBusNetwork, traversals, max_rounds: int):
    """``request_sim._schedule_rounds`` as it was: every round rebuilds the
    capacity dicts, removes taken entries one by one and re-sorts every
    edge queue."""
    edge_bw = np.asarray(network.edge_bandwidths)
    bus_bw = np.asarray(network.bus_bandwidths)

    # ready queue per edge, FIFO by message order
    pending_by_edge = {e: [] for e in range(network.n_edges)}
    blocked_children = {}
    remaining = 0
    for idx, tr in enumerate(traversals):
        remaining += 1
        if tr.predecessor is None:
            pending_by_edge[tr.edge_id].append(idx)
        else:
            blocked_children.setdefault(tr.predecessor, []).append(idx)
    for queue in pending_by_edge.values():
        queue.sort(key=lambda i: traversals[i].order)

    rounds = 0
    while remaining > 0:
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError("request replay exceeded the round limit")
        edge_capacity = {
            e: int(edge_bw[e]) if edge_bw[e] >= 1 else 1 for e in range(network.n_edges)
        }
        bus_capacity = {
            b: max(1, int(2 * bus_bw[b])) for b in network.buses
        }
        newly_done = []
        for eid in range(network.n_edges):
            queue = pending_by_edge[eid]
            if not queue:
                continue
            taken = []
            for idx in queue:
                if edge_capacity[eid] <= 0:
                    break
                tr = traversals[idx]
                if any(bus_capacity[b] <= 0 for b in tr.bus_endpoints):
                    continue
                edge_capacity[eid] -= 1
                for b in tr.bus_endpoints:
                    bus_capacity[b] -= 1
                tr.done = True
                taken.append(idx)
                newly_done.append(idx)
            for idx in taken:
                queue.remove(idx)
        if not newly_done:
            # No progress is impossible with positive capacities unless there
            # is nothing pending, which contradicts remaining > 0.
            raise SimulationError("request replay deadlocked")  # pragma: no cover
        remaining -= len(newly_done)
        yield np.fromiter(
            (traversals[i].edge_id for i in newly_done),
            dtype=np.int64,
            count=len(newly_done),
        )
        for idx in newly_done:
            for child in blocked_children.get(idx, ()):  # release successors
                pending_by_edge[traversals[child].edge_id].append(child)
        for idx in newly_done:
            if idx in blocked_children:
                del blocked_children[idx]
        # keep FIFO order stable
        for queue in pending_by_edge.values():
            queue.sort(key=lambda i: traversals[i].order)
