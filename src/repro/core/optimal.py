"""Exact solvers for the static placement problem on small instances.

Section 2 of the paper proves the problem NP-complete even on a 4-ary tree
of height 1, so exact solutions are only feasible for small instances.  The
benchmarks use them to measure the true approximation ratio of the
extended-nibble strategy (experiment E5) and to verify the PARTITION
reduction (experiment E2).

* :func:`optimal_nonredundant` -- branch-and-bound over single-holder
  placements (each object on exactly one processor).  The paper observes
  that when all requests are writes every optimal placement is
  non-redundant, so this solver is exact for write-only instances; for
  mixed instances it is exact *within* the non-redundant class.
* :func:`optimal_redundant` -- exhaustive search over all non-empty holder
  subsets per object with nearest-copy assignment; exact but only usable
  for tiny instances.
* :func:`placement_decision` -- decision-problem wrapper ("is there a
  placement with congestion at most ``k``?") used by the NP-hardness
  experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.congestion import compute_loads, object_edge_loads
from repro.core.loadstate import LoadState
from repro.core.placement import Placement
from repro.errors import InfeasibleError, PlacementError
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "OptimalResult",
    "optimal_nonredundant",
    "optimal_redundant",
    "placement_decision",
]


@dataclass(frozen=True)
class OptimalResult:
    """Result of an exact placement search."""

    placement: Placement
    congestion: float
    explored: int  # number of (partial) placements examined


def _per_object_leaf_loads(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    procs: Sequence[int],
) -> List[np.ndarray]:
    """``loads[obj][:, leaf_index]`` = per-edge load of placing obj's copy there.

    One ``(n_edges, n_leaves)`` candidate block per object, one column per
    leaf (:meth:`PathMatrix.pair_edge_loads_lanes
    <repro.core.pathmatrix.PathMatrix.pair_edge_loads_lanes>`: one batched
    LCA + path-incidence scatter per object).
    """
    pm = network.rooted().path_matrix()
    procs_arr = np.asarray(procs, dtype=np.int64)
    totals = pattern.totals
    out: List[np.ndarray] = []
    for obj in range(pattern.n_objects):
        requesters = np.asarray(pattern.requesters(obj), dtype=np.int64)
        targets = np.broadcast_to(procs_arr, (requesters.size, procs_arr.size))
        out.append(pm.pair_edge_loads_lanes(requesters, targets, totals[requesters, obj]))
    return out


def optimal_nonredundant(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    max_nodes: int = 4_000_000,
    upper_bound: Optional[float] = None,
) -> OptimalResult:
    """Optimal single-holder placement via branch and bound.

    Parameters
    ----------
    network, pattern:
        The instance.
    max_nodes:
        Safety cap on the number of explored search nodes; exceeding it
        raises :class:`~repro.errors.InfeasibleError` (the instance is too
        large for exact search).
    upper_bound:
        Optional known upper bound on the optimal congestion (e.g. from the
        extended-nibble strategy); used to prune the search.
    """
    pattern.validate_for(network)
    procs = list(network.processors)
    if not procs:
        raise PlacementError("network has no processors")
    n_objects = pattern.n_objects

    per_obj_loads = _per_object_leaf_loads(network, pattern, procs)
    totals = pattern.total_requests_all()
    order = sorted(range(n_objects), key=lambda x: (-int(totals[x]), x))

    best_choice: Optional[List[int]] = None
    best_value = float("inf") if upper_bound is None else float(upper_bound) + 1e-12
    explored = 0

    # Partial placements are tentative moves on the incremental load state:
    # descending applies one per-object column, backtracking rolls it back,
    # and the congestion read is the engine's running max instead of a full
    # edge/bus rescan per search node.
    state = LoadState(network)
    choice = [0] * n_objects

    def recurse(idx: int) -> None:
        nonlocal best_choice, best_value, explored
        explored += 1
        if explored > max_nodes:
            raise InfeasibleError(
                f"branch-and-bound exceeded the limit of {max_nodes} nodes"
            )
        current = state.congestion
        if current >= best_value:
            return
        if idx == n_objects:
            best_value = current
            best_choice = choice.copy()
            return
        obj = order[idx]
        # Try leaves in order of the congestion they would produce alone, so
        # good solutions are found early and pruning becomes effective.  All
        # candidate leaves are scored in one batched column evaluation.
        scores = state.trial_congestions(per_obj_loads[obj])
        for li in np.argsort(scores, kind="stable"):
            li = int(li)
            snap = state.snapshot()
            state.apply_edge_loads(per_obj_loads[obj][:, li])
            choice[obj] = li
            recurse(idx + 1)
            state.rollback(snap)

    recurse(0)
    if best_choice is None:
        raise InfeasibleError(
            "no non-redundant placement beats the supplied upper bound"
            if upper_bound is not None
            else "no placement found (empty search space?)"
        )
    placement = Placement.single_holder([procs[best_choice[x]] for x in range(n_objects)])
    value = compute_loads(network, pattern, placement).congestion
    return OptimalResult(placement=placement, congestion=value, explored=explored)


def optimal_redundant(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    max_combinations: int = 2_000_000,
) -> OptimalResult:
    """Exhaustive search over all redundant placements (tiny instances only).

    Every object may be placed on any non-empty subset of the processors;
    requests are served by the nearest copy.  The number of combinations is
    ``(2^|P| - 1)^|X|`` and the function refuses to run when it exceeds
    ``max_combinations``.
    """
    pattern.validate_for(network)
    procs = list(network.processors)
    subsets = []
    for r in range(1, len(procs) + 1):
        subsets.extend(itertools.combinations(procs, r))
    total = len(subsets) ** pattern.n_objects
    if total > max_combinations:
        raise InfeasibleError(
            f"redundant search space has {total} combinations "
            f"(> {max_combinations}); use optimal_nonredundant instead"
        )
    n_objects = pattern.n_objects

    # Per-(object, subset) edge-load columns, each evaluated once; the
    # enumeration then walks the product space with snapshot/rollback on the
    # incremental load state instead of one full compute_loads per
    # combination.  Loads are additive and non-negative, so a prefix whose
    # congestion already reaches the best value cannot improve and its whole
    # subtree is pruned without affecting exactness.
    subset_loads: List[List[np.ndarray]] = []
    rooted = network.rooted()
    for obj in range(n_objects):
        per_subset = []
        for subset in subsets:
            placement = Placement([list(subset)] * n_objects)
            per_subset.append(
                object_edge_loads(network, pattern, placement, obj, rooted=rooted)
            )
        subset_loads.append(per_subset)

    best_choice: Optional[List[int]] = None
    best_value = float("inf")
    explored = 0
    state = LoadState(network, rooted)
    choice = [0] * n_objects

    def recurse(obj: int) -> None:
        nonlocal best_choice, best_value, explored
        if state.congestion >= best_value:
            return
        if obj == n_objects:
            explored += 1
            value = state.congestion
            if value < best_value:
                best_value = value
                best_choice = choice.copy()
            return
        for si in range(len(subsets)):
            choice[obj] = si
            snap = state.snapshot()
            state.apply_edge_loads(subset_loads[obj][si])
            recurse(obj + 1)
            state.rollback(snap)

    recurse(0)
    assert best_choice is not None  # the first leaf always beats the initial inf
    best_placement = Placement([list(subsets[si]) for si in best_choice])
    return OptimalResult(
        placement=best_placement, congestion=best_value, explored=explored
    )


def placement_decision(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    threshold: float,
    redundant: bool = False,
    tolerance: float = 1e-9,
    max_nodes: int = 4_000_000,
) -> bool:
    """Decision problem: does a placement with congestion ≤ ``threshold`` exist?

    This is the NP-complete question of Section 2.  With ``redundant=False``
    (the default) only single-holder placements are considered, which is
    exactly the paper's reduction setting (all requests there are writes, so
    redundancy never helps).
    """
    if redundant:
        result = optimal_redundant(network, pattern)
    else:
        result = optimal_nonredundant(
            network, pattern, max_nodes=max_nodes, upper_bound=None
        )
    return result.congestion <= threshold + tolerance
