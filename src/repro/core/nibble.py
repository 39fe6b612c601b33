"""Step 1: the nibble strategy of Maggs, Meyer auf der Heide, Vöcking and
Westermann (FOCS 1997), as described in Section 3.1 of the paper.

The nibble strategy computes, for every shared object ``x`` independently, a
placement of copies on the *nodes* of the tree (processors **and** buses)
that minimises the load on every edge simultaneously -- and therefore also
the congestion, regardless of the bandwidths.

For a fixed object ``x`` with per-node weights ``h(v) = h_r(v,x) + h_w(v,x)``
and total write frequency ``w(T) = κ_x``:

1. choose the *center of gravity* ``g(T)``: a node whose removal splits the
   tree into components each carrying at most half of the total weight
   (ties broken towards the smallest node id, as in the paper);
2. root the tree at ``g(T)``;
3. node ``v`` receives a copy iff ``v = g(T)`` or ``h(T(v)) > w(T)``, where
   ``T(v)`` is the maximal subtree rooted at ``v``.

Theorem 3.1 (tested in ``tests/core/test_nibble.py``): the copies form a
connected subtree containing ``g(T)``, every edge carries load at most
``κ_x`` for object ``x``, edges inside the copy subtree carry exactly
``κ_x``, and the per-edge load is minimal among *all* placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.placement import Placement
from repro.errors import AlgorithmError
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = [
    "NibbleResult",
    "center_of_gravity",
    "gravity_candidates",
    "nibble_holders_for_object",
    "nibble_placement",
]


@dataclass(frozen=True)
class NibbleResult:
    """Output of the nibble strategy for a whole access pattern.

    Attributes
    ----------
    placement:
        Tree placement (holders may include buses), one holder set per object.
    centers:
        The chosen center of gravity ``g(T)`` per object.
    """

    placement: Placement
    centers: Tuple[int, ...]

    def holders(self, obj: int) -> frozenset:
        """Holder set of object ``obj``."""
        return self.placement.holders(obj)


def gravity_candidates(
    network: HierarchicalBusNetwork, weights: np.ndarray
) -> List[int]:
    """All nodes whose removal leaves components of weight at most half.

    ``weights`` is a per-node non-negative weight vector (``h(v)`` for the
    object under consideration).  The paper notes that this candidate set is
    never empty; for an all-zero weight vector every node qualifies.
    """
    weights = np.asarray(weights, dtype=np.int64)
    if weights.shape[0] != network.n_nodes:
        raise AlgorithmError("weights must have one entry per node")
    if np.any(weights < 0):
        raise AlgorithmError("weights must be non-negative")
    total = int(weights.sum())
    rooted = network.rooted(0)
    subtree = rooted.subtree_sums(weights)
    # components when removing v: one per child subtree, plus the rest
    worst = np.maximum(rooted.child_maxima(subtree), total - subtree)
    candidates: List[int] = np.flatnonzero(2 * worst <= total).tolist()
    if not candidates:  # pragma: no cover - impossible by the paper's remark
        raise AlgorithmError("no gravity-center candidate found")
    return candidates


def center_of_gravity(network: HierarchicalBusNetwork, weights: np.ndarray) -> int:
    """The center of gravity: smallest-id node among :func:`gravity_candidates`."""
    return min(gravity_candidates(network, weights))


def nibble_holders_for_object(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    obj: int,
) -> Tuple[frozenset, int]:
    """Nibble holder set and gravity center for one object.

    Returns ``(holders, center)``.  For an object without any requests the
    holder set is ``{center}`` (an arbitrary but deterministic node).
    """
    weights = pattern.object_weights(obj)
    center = center_of_gravity(network, weights)
    total_writes = pattern.write_contention(obj)
    rooted = network.rooted(center)
    subtree_weights = rooted.subtree_sums(weights)
    holders = {center}
    holders.update(np.flatnonzero(subtree_weights > total_writes).tolist())
    return frozenset(holders), center


def nibble_placement(
    network: HierarchicalBusNetwork, pattern: AccessPattern
) -> NibbleResult:
    """Run the nibble strategy for every object of ``pattern``.

    The returned placement may put copies on buses; it is the step-1 input
    of the extended-nibble strategy and also serves as the congestion lower
    bound used throughout the benchmarks (Theorem 3.1 guarantees per-edge
    optimality).
    """
    pattern.validate_for(network)
    holders: List[frozenset] = []
    centers: List[int] = []
    for obj in range(pattern.n_objects):
        hs, center = nibble_holders_for_object(network, pattern, obj)
        holders.append(hs)
        centers.append(center)
    return NibbleResult(placement=Placement(holders), centers=tuple(centers))
