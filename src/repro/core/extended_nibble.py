"""The extended-nibble strategy (Section 3) -- the paper's main contribution.

The strategy composes three steps:

1. **nibble** (:mod:`repro.core.nibble`): an optimal placement that may use
   buses as copy holders;
2. **deletion** (:mod:`repro.core.deletion`): remove copies serving fewer
   than ``κ_x`` requests and split overloaded copies, so every copy serves
   between ``κ_x`` and ``2κ_x`` requests;
3. **mapping** (:mod:`repro.core.mapping`): relocate the remaining bus
   copies to processors with bounded forwarding load.

Theorem 4.3: the resulting leaf-only placement has congestion at most
``7 · C_opt``, and the sequential runtime is
``O(|X| · |P ∪ B| · height(T) · log(degree(T)))``.

:func:`extended_nibble` runs the full pipeline and returns an
:class:`ExtendedNibbleResult` carrying the final placement, the exact
request assignment, intermediate artefacts and step timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.congestion import LoadProfile, compute_loads
from repro.core.deletion import ObjectCopies, apply_deletion, copies_to_placement
from repro.core.mapping import MappingResult, map_copies_to_leaves
from repro.core.nibble import NibbleResult, nibble_placement
from repro.core.placement import Placement, RequestAssignment
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = ["ExtendedNibbleResult", "StepTimings", "extended_nibble"]


@dataclass(frozen=True)
class StepTimings:
    """Wall-clock seconds spent in each step of the strategy."""

    nibble: float
    deletion: float
    mapping: float

    @property
    def total(self) -> float:
        """Total time over the three steps."""
        return self.nibble + self.deletion + self.mapping


@dataclass(frozen=True)
class ExtendedNibbleResult:
    """Complete output of the extended-nibble strategy.

    Attributes
    ----------
    placement:
        The final leaf-only placement (holders are processors only).
    assignment:
        Exact request-to-copy assignment produced by the strategy; using it
        with :func:`repro.core.congestion.compute_loads` reproduces the
        congestion the strategy is charged with.
    nibble:
        The step-1 nibble result (tree placement and gravity centers).
    modified_copies:
        Per-object copy records after the deletion step (their ``node``
        fields reflect the final, post-mapping locations).
    mapping:
        Diagnostics of the mapping step.
    timings:
        Wall-clock timings of the three steps.
    """

    placement: Placement
    assignment: RequestAssignment
    nibble: NibbleResult
    modified_copies: Tuple[ObjectCopies, ...]
    mapping: MappingResult
    timings: StepTimings

    def loads(
        self, network: HierarchicalBusNetwork, pattern: AccessPattern
    ) -> LoadProfile:
        """Evaluate the cost model for the final placement and assignment."""
        return compute_loads(
            network, pattern, self.placement, assignment=self.assignment
        )

    def congestion(
        self, network: HierarchicalBusNetwork, pattern: AccessPattern
    ) -> float:
        """Congestion of the final placement."""
        return self.loads(network, pattern).congestion


def extended_nibble(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    root: Optional[int] = None,
    validate: bool = True,
) -> ExtendedNibbleResult:
    """Run the extended-nibble strategy on an instance.

    Parameters
    ----------
    network, pattern:
        The hierarchical bus network and the read/write frequencies.
    root:
        Root used by the mapping step (defaults to the canonical root; the
        choice does not affect the approximation guarantee).
    validate:
        If true (default), validate inputs and the final placement.

    Returns
    -------
    ExtendedNibbleResult
    """
    if validate:
        pattern.validate_for(network)

    t0 = time.perf_counter()
    nib = nibble_placement(network, pattern)
    t1 = time.perf_counter()
    copies = apply_deletion(network, pattern, nib.placement)
    # Objects without any requests carry no load; drop their (single,
    # possibly bus-located) copy here and re-add a leaf holder below, so the
    # mapping step only ever deals with copies that serve requests.
    for obj in range(pattern.n_objects):
        if pattern.is_trivial(obj):
            copies[obj].copies.clear()
    t2 = time.perf_counter()
    mapping = map_copies_to_leaves(network, copies, root=root)
    t3 = time.perf_counter()

    # Objects without requests keep a single copy on the leaf closest to
    # their gravity center, ties to the smallest id (they induce no load,
    # but every object must have at least one holder).  Only objects left
    # without copies read it.
    bare = [obj for obj in range(pattern.n_objects) if not copies[obj].holder_nodes]
    fallback = {}
    if bare:
        centers = np.asarray([nib.centers[obj] for obj in bare])
        leaves = network.rooted().path_matrix().nearest_in_set(centers, network.processors)
        fallback = dict(zip(bare, leaves.tolist()))
    placement, assignment = copies_to_placement(copies, pattern, fallback_holders=fallback)

    # Copies of *unaffected* read-only objects that the deletion step kept on
    # a bus cannot occur (pruning removes unused bus copies); still, guard the
    # model invariant before returning.
    if validate:
        placement.validate_for(network, pattern, require_leaf_only=True)
        assignment.validate_for(network, pattern, placement)

    timings = StepTimings(nibble=t1 - t0, deletion=t2 - t1, mapping=t3 - t2)
    return ExtendedNibbleResult(
        placement=placement,
        assignment=assignment,
        nibble=nib,
        modified_copies=tuple(copies),
        mapping=mapping,
        timings=timings,
    )
