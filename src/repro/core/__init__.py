"""Core algorithms: placements, cost model, the extended-nibble strategy,
baselines, exact solvers and lower bounds."""

from repro.core.placement import Placement, RequestAssignment, Share
from repro.core.congestion import (
    LoadProfile,
    compute_loads,
    congestion,
    object_edge_loads,
    total_communication_load,
)
from repro.core.loadstate import LoadSnapshot, LoadState, StackedLoadState
from repro.core.nibble import (
    NibbleResult,
    center_of_gravity,
    gravity_candidates,
    nibble_holders_for_object,
    nibble_placement,
)
from repro.core.deletion import (
    CopyRecord,
    ObjectCopies,
    RefinementResult,
    apply_deletion,
    copies_to_placement,
    delete_rarely_used_copies,
    refine_copies,
)
from repro.core.mapping import MappingResult, directed_basic_loads, map_copies_to_leaves
from repro.core.extended_nibble import ExtendedNibbleResult, StepTimings, extended_nibble
from repro.core.baselines import (
    full_replication_placement,
    greedy_congestion_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.optimal import (
    OptimalResult,
    optimal_nonredundant,
    optimal_redundant,
    placement_decision,
)
from repro.core.bounds import (
    LowerBoundReport,
    congestion_lower_bound,
    contention_lower_bound,
    nibble_lower_bound,
    per_edge_lower_bounds,
)

__all__ = [
    "Placement",
    "RequestAssignment",
    "Share",
    "LoadProfile",
    "compute_loads",
    "congestion",
    "object_edge_loads",
    "total_communication_load",
    "LoadState",
    "LoadSnapshot",
    "StackedLoadState",
    "NibbleResult",
    "center_of_gravity",
    "gravity_candidates",
    "nibble_holders_for_object",
    "nibble_placement",
    "CopyRecord",
    "ObjectCopies",
    "RefinementResult",
    "apply_deletion",
    "delete_rarely_used_copies",
    "copies_to_placement",
    "refine_copies",
    "MappingResult",
    "map_copies_to_leaves",
    "directed_basic_loads",
    "ExtendedNibbleResult",
    "StepTimings",
    "extended_nibble",
    "owner_placement",
    "median_leaf_placement",
    "greedy_congestion_placement",
    "random_placement",
    "full_replication_placement",
    "OptimalResult",
    "optimal_nonredundant",
    "optimal_redundant",
    "placement_decision",
    "LowerBoundReport",
    "nibble_lower_bound",
    "per_edge_lower_bounds",
    "contention_lower_bound",
    "congestion_lower_bound",
]
