"""Load and congestion computation.

The cost model of Section 1.1:

* a **read** request from processor ``P`` to object ``x`` adds one unit of
  load to every edge on the unique path from ``P`` to its reference copy
  ``c(P, x)``;
* a **write** request adds one unit to every edge on the path from ``P`` to
  ``c(P, x)`` *and* one unit to every edge of the Steiner tree connecting
  the holder set ``P_x`` (the update broadcast);
* the **load of a bus** is half the sum of the loads of its incident edges
  (every message crossing the bus enters and leaves it);
* the **relative load** of an edge or bus is its load divided by its
  bandwidth, and the **congestion** is the maximum relative load over all
  edges and buses.

:func:`compute_loads` evaluates this model exactly for any placement and
request assignment and returns a :class:`LoadProfile`; :func:`congestion` is
the scalar shortcut and :func:`batch_congestions` evaluates a whole batch of
candidate placements in one pass.

Incidence-matrix formulation
----------------------------
Since PR 1 the evaluation is vectorized through the sparse path-incidence
structure of :mod:`repro.core.pathmatrix`: with ``A[e, v] = 1`` iff edge
``e`` lies on the root path of node ``v``, the load of all request pairs
``(P, c(P, x), w)`` is ``A · δ`` where ``δ`` is the node-delta vector with
``+w`` at both endpoints and ``-2w`` at their LCA, and the write broadcast
of holder set ``P_x`` falls out of the same operator applied to the 0/1
membership vector of ``P_x`` (an edge is in the Steiner tree iff the
terminal count strictly below it is neither zero nor ``|P_x|``).  Batches of
placements are extra columns of ``δ``, so evaluating many candidates costs
one sparse scatter instead of nested Python loops.  The original scalar
implementations are kept in ``tests/scalar_oracle.py``; the property
tests assert exact agreement between the two code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import Placement, RequestAssignment
from repro.errors import PlacementError
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "LoadProfile",
    "compute_loads",
    "congestion",
    "batch_congestions",
    "object_edge_loads",
    "total_communication_load",
]


@dataclass(frozen=True)
class LoadProfile:
    """Edge and bus loads of a placement, plus derived congestion values."""

    network: HierarchicalBusNetwork
    edge_loads: np.ndarray
    bus_loads: np.ndarray

    # ------------------------------------------------------------------ #
    # relative loads
    # ------------------------------------------------------------------ #
    @property
    def edge_relative_loads(self) -> np.ndarray:
        """Per-edge load divided by edge bandwidth."""
        return self.edge_loads / np.asarray(self.network.edge_bandwidths)

    @property
    def bus_relative_loads(self) -> np.ndarray:
        """Per-node bus load divided by bus bandwidth (zero for processors)."""
        return self.bus_loads / np.asarray(self.network.bus_bandwidths)

    @property
    def congestion(self) -> float:
        """Maximum relative load over all edges and buses."""
        values = [0.0]
        if self.edge_loads.size:
            values.append(float(self.edge_relative_loads.max()))
        if self.bus_loads.size:
            values.append(float(self.bus_relative_loads.max()))
        return max(values)

    @property
    def max_edge_load(self) -> float:
        """Maximum absolute edge load."""
        return float(self.edge_loads.max()) if self.edge_loads.size else 0.0

    @property
    def total_load(self) -> float:
        """Total communication load (sum of all edge loads)."""
        return float(self.edge_loads.sum())

    def bottleneck_edge(self) -> Optional[int]:
        """Edge id with the maximum relative load (None for edgeless networks)."""
        if not self.edge_loads.size:
            return None
        return int(np.argmax(self.edge_relative_loads))

    def bottleneck_bus(self) -> Optional[int]:
        """Bus node id with the maximum relative load (None if there is no bus)."""
        if not self.network.buses:
            return None
        rel = self.bus_relative_loads
        buses = list(self.network.buses)
        values = [rel[b] for b in buses]
        return int(buses[int(np.argmax(values))])

    def edge_load(self, u: int, v: int) -> float:
        """Load of edge ``{u, v}``."""
        return float(self.edge_loads[self.network.edge_id(u, v)])

    def bus_load(self, bus: int) -> float:
        """Load of bus ``bus``."""
        return float(self.bus_loads[bus])


# --------------------------------------------------------------------------- #
# pair extraction helpers (assignment -> flat request-pair arrays)
# --------------------------------------------------------------------------- #
def _assignment_pair_arrays(
    assignment: RequestAssignment,
    objects: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten an assignment into ``(proc, holder, weight)`` arrays.

    Reads the assignment's share columns directly; shares without requests
    are dropped.  With ``objects`` given, only shares of those objects are
    included.
    """
    procs, objs, holders, reads, writes = assignment.share_rows()
    weights = reads + writes
    keep = weights != 0
    if objects is not None:
        keep &= np.isin(objs, np.asarray(list(objects), dtype=np.int64))
    return procs[keep], holders[keep], weights[keep].astype(np.float64)


def _nearest_pair_arrays(
    pattern: AccessPattern,
    placement: Placement,
    path_matrix,
    objects: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-copy ``(proc, holder, weight)`` arrays without building shares.

    Matches :meth:`RequestAssignment.nearest_copy` (ties towards the
    smallest holder id) but resolves every (requester, object) pair in one
    batched LCA/distance evaluation instead of per-share object
    construction; used by the vectorized evaluators where the assignment
    itself is not needed.
    """
    totals = pattern.totals
    if objects is None:
        proc_idx, col_idx = np.nonzero(totals)
        obj_idx = col_idx
        holder_sets: Sequence[frozenset] = placement.all_holders()
    else:
        # Work proportional to the selected objects only (callers loop over
        # single objects; whole-pattern work here would make them quadratic).
        obj_list = np.asarray(list(objects), dtype=np.int64)
        proc_idx, col_idx = np.nonzero(totals[:, obj_list])
        obj_idx = obj_list[col_idx]
        holder_sets = [placement.holders(int(x)) for x in obj_list]
    weights = totals[proc_idx, obj_idx].astype(np.float64)
    if proc_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)

    max_holders = max(len(hs) for hs in holder_sets)
    if max_holders == 1:
        holder_of = np.fromiter(
            (next(iter(hs)) for hs in holder_sets), dtype=np.int64, count=len(holder_sets)
        )
        return proc_idx, holder_of[col_idx], weights

    # Padded candidate matrix: row k holds object k's holders ascending,
    # padded with its smallest holder (duplicates come later in the row, so
    # argmin's first-minimum rule still breaks ties to the smallest id).
    candidates = np.empty((len(holder_sets), max_holders), dtype=np.int64)
    for k, hs in enumerate(holder_sets):
        row = sorted(hs)
        candidates[k, : len(row)] = row
        candidates[k, len(row) :] = row[0]
    cand = candidates[col_idx]
    dist = path_matrix.distances(proc_idx[:, None], cand)
    nearest = cand[np.arange(proc_idx.size), np.argmin(dist, axis=1)]
    return proc_idx, nearest, weights


def _steiner_sets_and_weights(
    pattern: AccessPattern,
    placement: Placement,
    objects: Optional[Sequence[int]] = None,
) -> Tuple[List[frozenset], List[int]]:
    """Holder sets and write contentions of objects with broadcast cost."""
    sets: List[frozenset] = []
    weights: List[int] = []
    if objects is None:
        kappas = pattern.write_contentions()
        pairs = ((obj, int(kappas[obj])) for obj in range(pattern.n_objects))
    else:
        pairs = ((obj, pattern.write_contention(obj)) for obj in objects)
    for obj, kappa in pairs:
        holders = placement.holders(obj)
        if kappa > 0 and len(holders) > 1:
            sets.append(holders)
            weights.append(kappa)
    return sets, weights


# --------------------------------------------------------------------------- #
# vectorized implementations
# --------------------------------------------------------------------------- #
def object_edge_loads(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    obj: int,
    assignment: Optional[RequestAssignment] = None,
    rooted: Optional[RootedTree] = None,
) -> np.ndarray:
    """Per-edge load induced by a single object ``obj``.

    The total load of a placement is the sum of these vectors over all
    objects; the per-object view is what Theorem 3.1 reasons about (the load
    on an edge "induced for serving requests to an object x").
    """
    if rooted is None:
        rooted = network.rooted()
    pm = rooted.path_matrix()
    if assignment is None:
        u, v, w = _nearest_pair_arrays(pattern, placement, pm, objects=[obj])
    else:
        u, v, w = _assignment_pair_arrays(assignment, objects=[obj])
    loads = pm.pair_edge_loads(u, v, w)
    sets, weights = _steiner_sets_and_weights(pattern, placement, objects=[obj])
    if sets:
        loads += pm.steiner_edge_loads(sets, weights)
    return loads


def compute_loads(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    assignment: Optional[RequestAssignment] = None,
    validate: bool = True,
) -> LoadProfile:
    """Evaluate the cost model for a placement.

    Parameters
    ----------
    network, pattern, placement:
        The instance and the placement to evaluate.
    assignment:
        Optional explicit request assignment.  Defaults to the nearest-copy
        assignment (the paper's convention).
    validate:
        If true (default), validate the placement and assignment first.
    """
    if validate:
        placement.validate_for(network, pattern)
        pattern.validate_for(network)
        if assignment is not None:
            assignment.validate_for(network, pattern, placement)

    rooted = network.rooted()
    pm = rooted.path_matrix()
    if assignment is None:
        u, v, w = _nearest_pair_arrays(pattern, placement, pm)
    else:
        u, v, w = _assignment_pair_arrays(assignment)
    edge_loads = pm.pair_edge_loads(u, v, w)
    sets, weights = _steiner_sets_and_weights(pattern, placement)
    if sets:
        edge_loads += pm.steiner_edge_loads(sets, weights)
    bus_loads = pm.bus_loads_from_edge_loads(edge_loads)
    return LoadProfile(network=network, edge_loads=edge_loads, bus_loads=bus_loads)


def batch_congestions(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placements: Sequence[Placement],
    assignments: Optional[Sequence[Optional[RequestAssignment]]] = None,
    validate: bool = False,
) -> np.ndarray:
    """Congestion of a whole batch of candidate placements at once.

    The per-placement node deltas and Steiner loads become columns of one
    matrix, so the expensive path-incidence scatter and the bus folding run
    once for the entire batch.  Search-style callers (exact solvers, greedy
    baselines, tuning sweeps) should prefer this over a loop of
    :func:`congestion` calls.

    Parameters
    ----------
    network, pattern:
        The instance.
    placements:
        Candidate placements to evaluate.
    assignments:
        Optional parallel sequence of explicit assignments (``None`` entries
        fall back to nearest-copy).
    validate:
        If true, validate every placement/assignment first (off by default:
        batch callers typically generate candidates programmatically).

    Returns
    -------
    numpy.ndarray
        ``congestions[k]`` is the congestion of ``placements[k]``.
    """
    n_placements = len(placements)
    if assignments is not None and len(assignments) != n_placements:
        raise PlacementError("assignments must be parallel to placements")
    if n_placements == 0:
        return np.zeros(0, dtype=np.float64)

    rooted = network.rooted()
    pm = rooted.path_matrix()
    deltas = np.zeros((network.n_nodes, n_placements), dtype=np.float64)
    steiner = np.zeros((network.n_edges, n_placements), dtype=np.float64)
    for k, placement in enumerate(placements):
        assignment = assignments[k] if assignments is not None else None
        if validate:
            placement.validate_for(network, pattern)
            if assignment is not None:
                assignment.validate_for(network, pattern, placement)
        if assignment is None:
            u, v, w = _nearest_pair_arrays(pattern, placement, pm)
        else:
            u, v, w = _assignment_pair_arrays(assignment)
        deltas[:, k] = pm.pair_deltas(u, v, w)
        sets, weights = _steiner_sets_and_weights(pattern, placement)
        if sets:
            steiner[:, k] = pm.steiner_edge_loads(sets, weights)

    edge_loads = pm.edge_loads_from_deltas(deltas) + steiner
    bus_loads = pm.bus_loads_from_edge_loads(edge_loads)
    edge_bw = np.asarray(network.edge_bandwidths)[:, None]
    bus_bw = np.asarray(network.bus_bandwidths)[:, None]
    worst = np.zeros(n_placements, dtype=np.float64)
    if edge_loads.size:
        worst = np.maximum(worst, (edge_loads / edge_bw).max(axis=0))
    if bus_loads.size:
        worst = np.maximum(worst, (bus_loads / bus_bw).max(axis=0))
    return worst


def congestion(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    assignment: Optional[RequestAssignment] = None,
    validate: bool = True,
) -> float:
    """Congestion (max relative load over edges and buses) of a placement."""
    return compute_loads(
        network, pattern, placement, assignment=assignment, validate=validate
    ).congestion


def total_communication_load(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    assignment: Optional[RequestAssignment] = None,
) -> float:
    """Total communication load (sum over edges of the edge load).

    This is the objective that earlier theoretical work minimises; the paper
    argues that congestion is the better objective because minimising the
    total load can create very congested individual links.  The baseline
    benchmarks report both.
    """
    return compute_loads(network, pattern, placement, assignment=assignment).total_load
