"""Topology mutations on hierarchical bus networks.

The paper (and PRs 1-2) treat the bus network as fixed: every evaluation
structure -- rooted views, the path-incidence matrix, the incremental load
state -- is derived once per network object.  Production bus fabrics churn:
switches get reprovisioned, processors join and leave, overloaded buses are
split.  This module defines the *closed set* of mutations the rest of the
system understands, so the substrate layers can repair themselves
incrementally instead of being rebuilt from scratch:

* :class:`SetEdgeBandwidth` / :class:`SetBusBandwidth` -- bandwidth
  reconfiguration; no structural change, substrate repair is a pure
  relative-load denominator update.
* :class:`AttachLeaf` -- a new processor joins a bus (node and switch edge
  ids are *appended*, so existing ids are stable).
* :class:`DetachLeaf` -- a processor leaves; the remaining node and edge
  ids shift down by one past the removed ids (the same dense numbering a
  from-scratch construction would produce).  :attr:`MutationOutcome.node_map`
  / :attr:`MutationOutcome.edge_map` record the renumbering.
* :class:`SplitBus` -- a new bus is inserted below an existing one and a
  subset of its non-parent neighbours move under it.  The moved switch
  edges keep their ids and bandwidths (they are re-targeted, not
  recreated); one new trunk edge is appended.

:func:`apply_mutation` is *functional*: it returns a new validated
:class:`~repro.network.tree.HierarchicalBusNetwork` plus a
:class:`MutationOutcome` describing exactly what moved, which is what the
``repair`` paths of :class:`~repro.network.rooted.RootedTree`,
:class:`~repro.core.pathmatrix.PathMatrix` and
:class:`~repro.core.loadstate.LoadState` consume.  :class:`ChurnTrace`
packages a seeded sequence of timed mutations so request replay and
topology churn can be interleaved deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import BandwidthError, InvalidEdgeError, MutationError
from repro.network.node import NodeKind
from repro.network.tree import Edge, HierarchicalBusNetwork

__all__ = [
    "Mutation",
    "SetEdgeBandwidth",
    "SetBusBandwidth",
    "AttachLeaf",
    "DetachLeaf",
    "SplitBus",
    "MutationOutcome",
    "apply_mutation",
    "apply_mutations",
    "TimedMutation",
    "ChurnTrace",
]


# --------------------------------------------------------------------------- #
# the closed mutation set
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Mutation:
    """Base class of the closed set of topology mutations."""

    @property
    def structural(self) -> bool:
        """True iff the mutation changes nodes or edges (not just bandwidths)."""
        return True


@dataclass(frozen=True)
class SetEdgeBandwidth(Mutation):
    """Set the bandwidth of the switch edge ``{u, v}``."""

    u: int
    v: int
    bandwidth: float

    @property
    def structural(self) -> bool:
        return False


@dataclass(frozen=True)
class SetBusBandwidth(Mutation):
    """Set the bandwidth of bus ``bus``."""

    bus: int
    bandwidth: float

    @property
    def structural(self) -> bool:
        return False


@dataclass(frozen=True)
class AttachLeaf(Mutation):
    """Attach a new processor to ``bus`` (switch edge bandwidth defaults to 1)."""

    bus: int
    name: Optional[str] = None
    bandwidth: float = 1.0


@dataclass(frozen=True)
class DetachLeaf(Mutation):
    """Detach the processor ``processor`` (and its switch edge)."""

    processor: int


@dataclass(frozen=True)
class SplitBus(Mutation):
    """Insert a new bus below ``bus`` and move ``moved`` neighbours under it.

    ``moved`` must be a non-empty subset of ``bus``'s neighbours that does
    not contain the canonical-rooted parent of ``bus`` (the hierarchy above
    the split point is preserved) and must leave ``bus`` with degree at
    least two.  Moved switch edges keep their edge ids and bandwidths; one
    new trunk edge ``{bus, new_bus}`` is appended.
    """

    bus: int
    moved: Tuple[int, ...]
    name: Optional[str] = None
    bus_bandwidth: float = 1.0
    trunk_bandwidth: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "moved", tuple(sorted(int(m) for m in self.moved)))


# --------------------------------------------------------------------------- #
# outcomes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MutationOutcome:
    """What one applied mutation did, in substrate-repair terms.

    ``node_map`` / ``edge_map`` map every *old* node/edge id to its id in
    :attr:`network` (``-1`` for removed ids).  For non-structural mutations
    both maps are identities.  The remaining fields describe the touched
    region; repair paths read them instead of diffing the networks.
    """

    mutation: Mutation
    old_network: HierarchicalBusNetwork
    network: HierarchicalBusNetwork
    node_map: np.ndarray
    edge_map: np.ndarray
    new_node: Optional[int] = None
    new_edge: Optional[int] = None
    removed_node: Optional[int] = None
    removed_edge: Optional[int] = None
    touched_bus: Optional[int] = None
    moved_edge_ids: Tuple[int, ...] = field(default_factory=tuple)
    moved_nodes: Tuple[int, ...] = field(default_factory=tuple)
    changed_edge: Optional[int] = None
    changed_bus: Optional[int] = None

    @property
    def structural(self) -> bool:
        """True iff nodes/edges changed (bandwidth-only mutations are False)."""
        return self.mutation.structural

    def mapped_edge_loads(self, old_edge_loads: np.ndarray) -> np.ndarray:
        """Carry a per-edge load vector over to the new edge numbering.

        Loads of removed edges are dropped, new edges start at zero.  This
        is the canonical "rebuild" input: a fresh
        :class:`~repro.core.loadstate.LoadState` charged with this vector
        must equal the incrementally repaired one bit-for-bit.
        """
        old = np.asarray(old_edge_loads, dtype=np.float64)
        if old.shape != (self.old_network.n_edges,):
            raise MutationError("edge-load vector does not match the old network")
        out = np.zeros(self.network.n_edges, dtype=np.float64)
        keep = self.edge_map >= 0
        out[self.edge_map[keep]] = old[keep]
        return out


def _identity_maps(network: HierarchicalBusNetwork) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.arange(network.n_nodes, dtype=np.int64),
        np.arange(network.n_edges, dtype=np.int64),
    )


def _positive(value: float, what: str) -> float:
    """``value`` as a float; :class:`BandwidthError` unless it is > 0 (NaN is not)."""
    bandwidth = float(value)
    if not bandwidth > 0:
        raise BandwidthError(f"{what} must be positive, got {value}")
    return bandwidth


# --------------------------------------------------------------------------- #
# application
# --------------------------------------------------------------------------- #
def apply_mutation(
    network: HierarchicalBusNetwork, mutation: Mutation
) -> MutationOutcome:
    """Apply one mutation functionally; returns the outcome with the new network.

    The new network is derived from ``network``'s columns: the columns the
    mutation leaves unchanged are shared, the touched ones are copied and
    patched, and the result passes the full
    :meth:`~repro.network.tree.HierarchicalBusNetwork.validate`.  ``network``
    itself is never modified.

    Raises :class:`~repro.errors.MutationError` when the mutation is invalid
    for the network (unknown ids, wrong node kinds, or a result that would
    violate the hierarchical-bus-network model), and
    :class:`~repro.errors.BandwidthError` for a bandwidth that is not
    positive.
    """
    if isinstance(mutation, SetEdgeBandwidth):
        return _apply_set_edge_bandwidth(network, mutation)
    if isinstance(mutation, SetBusBandwidth):
        return _apply_set_bus_bandwidth(network, mutation)
    if isinstance(mutation, AttachLeaf):
        return _apply_attach_leaf(network, mutation)
    if isinstance(mutation, DetachLeaf):
        return _apply_detach_leaf(network, mutation)
    if isinstance(mutation, SplitBus):
        return _apply_split_bus(network, mutation)
    raise MutationError(f"unknown mutation type {type(mutation).__name__}")


def apply_mutations(
    network: HierarchicalBusNetwork, mutations: Iterable[Mutation]
) -> Tuple[HierarchicalBusNetwork, List[MutationOutcome]]:
    """Apply a sequence of mutations; returns the final network and outcomes."""
    outcomes: List[MutationOutcome] = []
    for mutation in mutations:
        outcome = apply_mutation(network, mutation)
        outcomes.append(outcome)
        network = outcome.network
    return network, outcomes


def _apply_set_edge_bandwidth(
    network: HierarchicalBusNetwork, mutation: SetEdgeBandwidth
) -> MutationOutcome:
    bandwidth = _positive(mutation.bandwidth, "edge bandwidth")
    try:
        eid = network.edge_id(mutation.u, mutation.v)
    except InvalidEdgeError as exc:
        raise MutationError(
            f"({mutation.u}, {mutation.v}) is not an edge of the network"
        ) from exc
    edge_bandwidth = network.edge_bandwidths.copy()
    edge_bandwidth[eid] = bandwidth
    new = network._derive(edge_bandwidth=edge_bandwidth)
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        changed_edge=eid,
    )


def _apply_set_bus_bandwidth(
    network: HierarchicalBusNetwork, mutation: SetBusBandwidth
) -> MutationOutcome:
    bandwidth = _positive(mutation.bandwidth, "bus bandwidth")
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"node {bus} is not a bus of the network")
    bus_bandwidth = network.bus_bandwidths.copy()
    bus_bandwidth[bus] = bandwidth
    new = network._derive(bus_bandwidth=bus_bandwidth)
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        changed_bus=bus,
    )


def _apply_attach_leaf(
    network: HierarchicalBusNetwork, mutation: AttachLeaf
) -> MutationOutcome:
    bandwidth = _positive(mutation.bandwidth, "edge bandwidth")
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"cannot attach a leaf to non-bus node {bus}")
    new_node = network.n_nodes
    new_edge = network.n_edges
    edge = Edge(bus, new_node)
    adjacency = list(network._adjacency)
    adjacency[bus] = adjacency[bus] + [new_node]  # the largest id: stays sorted
    adjacency.append([bus])
    incident = list(network._incident_edges)
    incident[bus] = incident[bus] + [new_edge]
    incident.append([new_edge])
    new = network._derive(
        kinds=np.append(network._kinds, np.int8(NodeKind.PROCESSOR)),
        names=network._names + [mutation.name or f"p{new_node}"],
        bus_bandwidth=np.append(network.bus_bandwidths, 1.0),
        edges=network.edges + (edge,),
        edge_index={**network._edge_index, edge: new_edge},
        edge_bandwidth=np.append(network.edge_bandwidths, bandwidth),
        adjacency=adjacency,
        incident_edges=incident,
    )
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        new_node=new_node,
        new_edge=new_edge,
        touched_bus=bus,
    )


def _apply_detach_leaf(
    network: HierarchicalBusNetwork, mutation: DetachLeaf
) -> MutationOutcome:
    proc = int(mutation.processor)
    if proc not in network or not network.is_processor(proc):
        raise MutationError(f"node {proc} is not a processor of the network")
    if network.n_processors <= 2:
        raise MutationError("cannot detach: a network needs at least two processors")
    (bus,) = network.neighbors(proc)
    if network.degree(bus) <= 2:
        raise MutationError(
            f"cannot detach processor {proc}: bus {bus} would become a leaf"
        )
    removed_edge = network.edge_id(proc, bus)

    node_map = np.arange(network.n_nodes, dtype=np.int64)
    node_map[proc] = -1
    node_map[proc + 1 :] -= 1
    edge_map = np.arange(network.n_edges, dtype=np.int64)
    edge_map[removed_edge] = -1
    edge_map[removed_edge + 1 :] -= 1

    # One pass through the maps.  Both are monotone on the surviving ids,
    # so renumbered lists stay sorted and renumbered edges stay canonical;
    # a list or edge whose largest id lies below the removed one keeps its
    # numbering and is shared.
    nm = node_map.tolist()
    em = edge_map.tolist()
    adjacency = [
        adj if adj[-1] < proc else [nm[x] for x in adj if x != proc]
        for v, adj in enumerate(network._adjacency)
        if v != proc
    ]
    incident = [
        inc if inc[-1] < removed_edge else [em[x] for x in inc if x != removed_edge]
        for v, inc in enumerate(network._incident_edges)
        if v != proc
    ]
    edges = tuple(
        e if e.v < proc else Edge(nm[e.u], nm[e.v])
        for eid, e in enumerate(network.edges)
        if eid != removed_edge
    )
    new = network._derive(
        kinds=np.delete(network._kinds, proc),
        names=network._names[:proc] + network._names[proc + 1 :],
        bus_bandwidth=np.delete(network.bus_bandwidths, proc),
        edges=edges,
        edge_index=dict(zip(edges, range(len(edges)))),
        edge_bandwidth=np.delete(network.edge_bandwidths, removed_edge),
        adjacency=adjacency,
        incident_edges=incident,
    )
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        removed_node=proc,
        removed_edge=removed_edge,
        touched_bus=bus,
    )


def _apply_split_bus(
    network: HierarchicalBusNetwork, mutation: SplitBus
) -> MutationOutcome:
    bus_bandwidth = _positive(mutation.bus_bandwidth, "split bus bandwidth")
    trunk_bandwidth = _positive(mutation.trunk_bandwidth, "split trunk bandwidth")
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"cannot split non-bus node {bus}")
    moved = mutation.moved
    if not moved:
        raise MutationError("split_bus needs at least one moved neighbour")
    neighbours = set(network.neighbors(bus))
    bad = [m for m in moved if m not in neighbours]
    if bad:
        raise MutationError(f"moved nodes {bad} are not neighbours of bus {bus}")
    if len(set(moved)) != len(moved):
        raise MutationError("moved neighbours must be distinct")
    rooted = network.rooted()
    parent = rooted.parent(bus)
    if parent in moved:
        raise MutationError(
            f"cannot move the parent {parent} of bus {bus} under the new bus"
        )
    if network.degree(bus) - len(moved) + 1 < 2:
        raise MutationError(f"split would leave bus {bus} with degree < 2")

    new_node = network.n_nodes
    new_edge = network.n_edges
    moved_edge_ids = tuple(network.edge_id(bus, m) for m in moved)
    trunk = Edge(bus, new_node)
    edges = list(network.edges)
    edge_index = dict(network._edge_index)
    adjacency = list(network._adjacency)
    for m, eid in zip(moved, moved_edge_ids):
        del edge_index[edges[eid]]
        edges[eid] = Edge(m, new_node)
        edge_index[edges[eid]] = eid
        # swap bus for the new bus, which has the largest id
        adjacency[m] = [x for x in adjacency[m] if x != bus] + [new_node]
    edges.append(trunk)
    edge_index[trunk] = new_edge
    moved_set = set(moved)
    adjacency[bus] = [x for x in adjacency[bus] if x not in moved_set] + [new_node]
    adjacency.append(sorted(moved + (bus,)))
    moved_edge_set = set(moved_edge_ids)
    incident = list(network._incident_edges)
    incident[bus] = [e for e in incident[bus] if e not in moved_edge_set] + [new_edge]
    incident.append(sorted(moved_edge_ids) + [new_edge])
    new = network._derive(
        kinds=np.append(network._kinds, np.int8(NodeKind.BUS)),
        names=network._names + [mutation.name or f"b{new_node}"],
        bus_bandwidth=np.append(network.bus_bandwidths, bus_bandwidth),
        edges=tuple(edges),
        edge_index=edge_index,
        edge_bandwidth=np.append(network.edge_bandwidths, trunk_bandwidth),
        adjacency=adjacency,
        incident_edges=incident,
    )
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        new_node=new_node,
        new_edge=new_edge,
        touched_bus=bus,
        moved_edge_ids=moved_edge_ids,
        moved_nodes=moved,
    )


# --------------------------------------------------------------------------- #
# churn traces
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TimedMutation:
    """A mutation scheduled before serving request-event index ``time``."""

    time: int
    mutation: Mutation

    def __post_init__(self) -> None:
        if self.time < 0:
            raise MutationError(f"mutation time must be >= 0, got {self.time}")


class ChurnTrace:
    """An ordered sequence of timed mutations, interleavable with requests.

    ``time`` is an index into a request sequence: all mutations with
    ``time == t`` are applied *before* the request event at position ``t``
    is served (ties keep the given order).  Traces are value objects; the
    churn generators in :mod:`repro.workload.churn` build them
    deterministically from a seed.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Union[TimedMutation, Tuple[int, Mutation]]]):
        normalized: List[TimedMutation] = []
        for ev in events:
            if isinstance(ev, TimedMutation):
                normalized.append(ev)
            else:
                time, mutation = ev
                normalized.append(TimedMutation(int(time), mutation))
        normalized.sort(key=lambda ev: ev.time)  # stable: preserves tie order
        self._events: Tuple[TimedMutation, ...] = tuple(normalized)

    @property
    def events(self) -> Tuple[TimedMutation, ...]:
        """All timed mutations, sorted by time (stable)."""
        return self._events

    @property
    def mutations(self) -> Tuple[Mutation, ...]:
        """The bare mutations in application order."""
        return tuple(ev.mutation for ev in self._events)

    @property
    def max_time(self) -> int:
        """Largest scheduled time (``-1`` for an empty trace)."""
        return self._events[-1].time if self._events else -1

    def attach_count(self) -> int:
        """Number of :class:`AttachLeaf` mutations in the trace."""
        return sum(1 for ev in self._events if isinstance(ev.mutation, AttachLeaf))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index: int) -> TimedMutation:
        return self._events[index]

    def concatenated_with(self, other: "ChurnTrace") -> "ChurnTrace":
        """Merge two traces (events re-sorted by time, stable)."""
        return ChurnTrace(self._events + other.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ChurnTrace(n_mutations={len(self._events)}, max_time={self.max_time})"
