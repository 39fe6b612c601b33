"""Scalar oracle of the strategy layer: every request served on its own.

The dynamic model (Section 1.3 of the paper) serves requests one at a
time; production serves every span, one event or many, through
``serve_chunk``.  This module keeps the scalar code the batched paths
replaced, as the reference the differential suites and the online and
adaptive-fleet benchmark gates compare against (ARCHITECTURE.md
invariant 1): the scalar :func:`serve` with the ``AdaptiveState``
transitions it makes, the pre-refactor cost account, the static chunk
aggregation before ``kernels.aggregate_pairs`` and the static cost model
before the path-incidence operator.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.congestion import LoadProfile
from repro.core.placement import Placement, RequestAssignment
from repro.dynamic.adaptive_state import AdaptiveState
from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestEvent, RequestSequence
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


def _serve_static(manager: StaticPlacementManager, event: RequestEvent) -> None:
    # the per-object nearest-copy table serve_chunk gathers from: a
    # rooted.nearest_in_set call per event would triple the incremental
    # arm of the online speedup gate
    target = int(manager._nearest_table(event.obj)[event.processor])
    charge_path(manager.account, manager.rooted, event.processor, target)
    if event.is_write:
        manager.account.charge_steiner(
            manager.rooted, sorted(manager._placement.holders(event.obj))
        )


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
            if credit >= manager._replicate_threshold:
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
    account.charge_steiner(rooted, holders)
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
        if credit >= manager._migrate_threshold:
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


def reference_aggregate_chunk(sequence: RequestSequence, start: int, stop: int):
    """The static chunk aggregation through ``np.unique(..., axis=1)`` over
    the stacked pair rows, in ``StaticPlacementManager._aggregate_chunk``'s
    output shape."""
    procs, objs, writes = sequence.as_arrays()
    procs, objs, writes = procs[start:stop], objs[start:stop], writes[start:stop]
    if procs.size == 0:
        return None
    pairs, counts = np.unique(np.stack([procs, objs]), axis=1, return_counts=True)
    order = np.argsort(pairs[1], kind="stable")
    uniq_objs, starts = np.unique(pairs[1][order], return_index=True)
    bounds = np.append(starts[1:], order.size)
    by_object = [(int(obj), order[lo:hi]) for obj, lo, hi in zip(uniq_objs, starts, bounds)]
    written, write_counts = np.unique(objs[writes], return_counts=True)
    return pairs[0], counts, by_object, written, write_counts


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
