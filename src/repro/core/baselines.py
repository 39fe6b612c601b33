"""Baseline placement strategies.

The paper has no experimental section, but its introduction argues that
congestion-oriented placement beats simpler policies.  The benchmark
harness therefore compares the extended-nibble strategy against the natural
baselines a practitioner would try first:

* :func:`owner_placement` -- each object lives on the processor issuing the
  most requests to it ("first-touch/owner computes").
* :func:`median_leaf_placement` -- each object lives on the processor
  minimising that object's *total* communication load (the weighted median
  of its requesters projected onto the leaves); this is the classic
  total-load heuristic the related-work section contrasts with congestion.
* :func:`greedy_congestion_placement` -- objects are placed one by one
  (heaviest first) on the leaf that minimises the congestion accumulated so
  far.
* :func:`random_placement` -- each object on a uniformly random leaf.
* :func:`full_replication_placement` -- every processor holds every object.

All baselines are non-redundant except full replication, and all return a
plain :class:`~repro.core.placement.Placement` evaluated with the standard
nearest-copy assignment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.loadstate import LoadState
from repro.core.placement import Placement
from repro.errors import PlacementError
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "owner_placement",
    "median_leaf_placement",
    "greedy_congestion_placement",
    "random_placement",
    "full_replication_placement",
]


def _check(network: HierarchicalBusNetwork, pattern: AccessPattern) -> List[int]:
    pattern.validate_for(network)
    procs = list(network.processors)
    if not procs:
        raise PlacementError("the network has no processors to place copies on")
    return procs


def owner_placement(
    network: HierarchicalBusNetwork, pattern: AccessPattern
) -> Placement:
    """Place each object on the processor with the most accesses to it.

    Ties are broken towards the smallest processor id; objects nobody
    accesses go to the smallest processor.
    """
    procs = _check(network, pattern)
    procs_arr = np.asarray(procs, dtype=np.int64)
    # argmax returns the first maximum, i.e. the smallest processor id
    best_rows = np.argmax(pattern.totals[procs_arr, :], axis=0)
    return Placement.single_holder(procs_arr[best_rows].tolist())


def median_leaf_placement(
    network: HierarchicalBusNetwork, pattern: AccessPattern
) -> Placement:
    """Place each object on the leaf minimising its total communication load.

    For a single copy on leaf ``l`` the total load of object ``x`` is
    ``Σ_P h(P,x) · dist(P, l)`` (every request travels to ``l``; the write
    broadcast is free for a single copy).  The minimiser is the weighted
    median of the requesters restricted to the leaves.  This baseline
    represents total-load-oriented data management.
    """
    procs = _check(network, pattern)
    pm = network.rooted().path_matrix()
    procs_arr = np.asarray(procs, dtype=np.int64)
    totals = pattern.totals
    holders = []
    for obj in range(pattern.n_objects):
        requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
        if requesters.size == 0:
            holders.append(procs[0])
            continue
        dist = pm.distances(requesters[:, None], procs_arr[None, :])
        costs = totals[requesters, obj] @ dist
        # argmin returns the first minimum, i.e. the smallest leaf id
        holders.append(int(procs_arr[np.argmin(costs)]))
    return Placement.single_holder(holders)


def greedy_congestion_placement(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    object_order: Optional[Sequence[int]] = None,
) -> Placement:
    """Greedy congestion-aware placement.

    Objects are processed in decreasing total-request order (or the given
    order) and each is placed on the leaf that minimises the maximum
    relative edge/bus load accumulated so far.  Every candidate leaf of an
    object is one column of a candidate block (path loads only; a single
    copy has no Steiner tree), scored in one pass by
    :meth:`~repro.core.loadstate.LoadState.trial_congestions`; the winner
    is charged into the same load state.
    """
    procs = _check(network, pattern)
    state = LoadState(network)
    if object_order is None:
        totals = pattern.total_requests_all()
        object_order = sorted(
            range(pattern.n_objects), key=lambda x: (-int(totals[x]), x)
        )

    procs_arr = np.asarray(procs, dtype=np.int64)
    all_totals = pattern.totals
    chosen = [procs[0]] * pattern.n_objects
    for obj in object_order:
        requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
        if requesters.size == 0:
            chosen[obj] = procs[0]
            continue
        targets = np.broadcast_to(procs_arr, (requesters.size, procs_arr.size))
        leaf_loads = state.pm.pair_edge_loads_lanes(
            requesters, targets, all_totals[requesters, obj]
        )
        # argmin returns the first minimum, i.e. the smallest leaf id on ties
        best = int(np.argmin(state.trial_congestions(leaf_loads)))
        chosen[obj] = int(procs_arr[best])
        state.apply_edge_loads(leaf_loads[:, best])
    return Placement.single_holder(chosen)


def random_placement(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> Placement:
    """Each object on a uniformly random processor."""
    procs = _check(network, pattern)
    gen = rng if rng is not None else np.random.default_rng(seed)
    holders = [procs[int(gen.integers(0, len(procs)))] for _ in range(pattern.n_objects)]
    return Placement.single_holder(holders)


def full_replication_placement(
    network: HierarchicalBusNetwork, pattern: AccessPattern
) -> Placement:
    """Every processor holds a copy of every object.

    Reads become free, but every write is broadcast over the Steiner tree of
    *all* processors (the whole tree), so write-heavy objects make this
    baseline arbitrarily bad -- the regime
    :func:`repro.workload.adversarial.replication_trap` exercises.
    """
    _check(network, pattern)
    return Placement.full_replication(network, pattern.n_objects)
