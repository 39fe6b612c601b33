"""Churn generators: seeded topology-mutation traces.

Counterpart of the synthetic workload generators for the topology side of a
scenario.  Each generator returns a deterministic
:class:`~repro.network.mutation.ChurnTrace` for a given seed; mutation
targets always refer to node ids *at apply time* (the generators simulate
the mutation chain while choosing targets, so traces stay valid across the
renumbering a detach causes).

* :func:`flash_crowd_attach` -- a burst of new processors joins (think of
  an audience arriving at once); stresses placement near the joined buses.
* :func:`flash_crowd_recovery` -- the same burst followed by a rolling
  departure of the newcomers (the multi-phase flash-crowd-with-recovery
  regime of the scenario registry).
* :func:`rolling_maintenance_detach` -- processors leave one by one at a
  fixed cadence (rolling maintenance); copies stranded on departed leaves
  are re-homed by the replay layer.
* :func:`bandwidth_degradation` -- trunk edges and buses progressively lose
  bandwidth (failing switches); loads are untouched but relative loads and
  the congestion climb.
* :func:`mutation_storm` -- a seeded mix of every mutation kind, including
  bus splits; this is the adversarial scenario the differential fuzz
  harness replays.
* :func:`random_valid_mutation` -- one uniformly drawn valid mutation; the
  building block of :func:`mutation_storm`, exported for property tests.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    DetachLeaf,
    Mutation,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
    TimedMutation,
    apply_mutation,
)
from repro.network.tree import HierarchicalBusNetwork

__all__ = [
    "flash_crowd_attach",
    "flash_crowd_recovery",
    "rolling_maintenance_detach",
    "bandwidth_degradation",
    "mutation_storm",
    "random_valid_mutation",
]


def _rng(rng: Optional[np.random.Generator], seed: Optional[int]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(seed)


def _detachable_processors(network: HierarchicalBusNetwork) -> List[int]:
    """Processors whose removal keeps the network valid, ascending."""
    if network.n_processors <= 2:
        return []
    ends = np.fromiter(
        chain.from_iterable(network.edges), dtype=np.int64, count=2 * network.n_edges
    ).reshape(-1, 2)
    degree = np.bincount(ends.ravel(), minlength=network.n_nodes)
    # with three or more processors no edge joins two leaves, so every edge
    # with a degree-1 (processor) end is a switch edge (processor, bus)
    leaf_first = degree[ends[:, 0]] == 1
    proc = np.where(leaf_first, ends[:, 0], ends[:, 1])
    bus = np.where(leaf_first, ends[:, 1], ends[:, 0])
    detachable = (degree[proc] == 1) & (degree[bus] > 2)
    return np.sort(proc[detachable]).tolist()


def flash_crowd_attach(
    network: HierarchicalBusNetwork,
    n_new_leaves: int = 8,
    time: int = 0,
    spacing: int = 0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnTrace:
    """A burst of ``n_new_leaves`` processors joining random buses.

    All attaches land at ``time`` (a flash crowd) unless ``spacing`` spreads
    them out.  The k-th attached leaf gets replay reference id
    ``network.n_nodes + k`` (see :meth:`repro.sim.engine.SimulationEngine.run`),
    so request generators can address the newcomers before they exist.
    """
    if n_new_leaves < 1:
        raise WorkloadError("need at least one attached leaf")
    gen = _rng(rng, seed)
    buses = list(network.buses)
    if not buses:
        raise WorkloadError("cannot attach leaves to a bus-less network")
    events = []
    t = int(time)
    for k in range(n_new_leaves):
        bus = int(gen.choice(buses))
        events.append(TimedMutation(t, AttachLeaf(bus, name=f"crowd{k}")))
        t += int(spacing)
    return ChurnTrace(events)


def flash_crowd_recovery(
    network: HierarchicalBusNetwork,
    n_new_leaves: int = 8,
    attach_time: int = 0,
    detach_start: int = 0,
    detach_spacing: int = 1,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnTrace:
    """A flash crowd that later *recovers*: the newcomers leave again.

    The attach burst is exactly :func:`flash_crowd_attach` (same reference
    ids ``network.n_nodes + k``, same bus choices for a given seed); from
    ``detach_start`` on, one newcomer departs every ``detach_spacing``
    events, most recently attached first, so the ids of the remaining
    newcomers stay stable while the crowd drains.  Requests addressed to a
    departed newcomer are dropped by the replay, modelling the multi-phase
    flash-crowd-with-recovery regime.
    """
    if detach_start < attach_time:
        raise WorkloadError("recovery cannot start before the crowd arrives")
    if detach_spacing < 0:
        raise WorkloadError("detach_spacing must be non-negative")
    trace = flash_crowd_attach(
        network, n_new_leaves=n_new_leaves, time=attach_time, rng=rng, seed=seed
    )
    base_n = network.n_nodes
    events: List[TimedMutation] = []
    t = int(detach_start)
    # detach in reverse attach order: with only attaches before, newcomer k
    # holds id base_n + k, and removing the highest id never renumbers the
    # remaining newcomers
    for k in reversed(range(n_new_leaves)):
        events.append(TimedMutation(t, DetachLeaf(base_n + k)))
        t += int(detach_spacing)
    return trace.concatenated_with(ChurnTrace(events))


def rolling_maintenance_detach(
    network: HierarchicalBusNetwork,
    n_detach: int = 4,
    start: int = 0,
    spacing: int = 8,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnTrace:
    """Detach up to ``n_detach`` random processors, one every ``spacing`` events.

    Targets are chosen among processors whose removal keeps the network
    valid *at apply time* (the generator simulates the chain); fewer
    mutations are returned when the network runs out of detachable leaves.
    """
    if n_detach < 1:
        raise WorkloadError("need at least one detach")
    gen = _rng(rng, seed)
    events = []
    net = network
    t = int(start)
    for _ in range(n_detach):
        candidates = _detachable_processors(net)
        if not candidates:
            break
        mutation = DetachLeaf(int(gen.choice(candidates)))
        events.append(TimedMutation(t, mutation))
        net = apply_mutation(net, mutation).network
        t += int(spacing)
    return ChurnTrace(events)


def bandwidth_degradation(
    network: HierarchicalBusNetwork,
    n_steps: int = 4,
    start: int = 0,
    spacing: int = 8,
    factor: float = 0.5,
    floor: float = 0.25,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnTrace:
    """Progressively degrade trunk-edge and bus bandwidths.

    Every ``spacing`` events one random trunk edge (bus-bus switch) or bus
    has its bandwidth multiplied by ``factor`` (clamped at ``floor``).
    Networks without trunk edges degrade buses only.
    """
    if n_steps < 1:
        raise WorkloadError("need at least one degradation step")
    if not 0 < factor < 1:
        raise WorkloadError("factor must be in (0, 1)")
    if floor <= 0:
        raise WorkloadError("floor must be positive")
    gen = _rng(rng, seed)
    trunk_edges: List[Tuple[int, int]] = [
        (e.u, e.v)
        for e in network.edges
        if network.is_bus(e.u) and network.is_bus(e.v)
    ]
    buses = list(network.buses)
    if not buses and not trunk_edges:
        raise WorkloadError("network has neither buses nor trunk edges to degrade")
    events = []
    net = network
    t = int(start)
    for _ in range(n_steps):
        degrade_edge = bool(trunk_edges) and (not buses or gen.random() < 0.5)
        if degrade_edge:
            u, v = trunk_edges[int(gen.integers(0, len(trunk_edges)))]
            new_bw = max(float(floor), net.edge_bandwidth(u, v) * factor)
            mutation: Mutation = SetEdgeBandwidth(u, v, new_bw)
        else:
            bus = int(gen.choice(buses))
            new_bw = max(float(floor), net.bus_bandwidth(bus) * factor)
            mutation = SetBusBandwidth(bus, new_bw)
        events.append(TimedMutation(t, mutation))
        net = apply_mutation(net, mutation).network
        t += int(spacing)
    return ChurnTrace(events)


def random_valid_mutation(
    network: HierarchicalBusNetwork,
    rng: np.random.Generator,
    max_bandwidth: int = 4,
) -> Mutation:
    """Draw one uniformly random mutation that is valid for ``network``.

    The draw retries kinds that have no valid target (e.g. detach on a
    minimal network), so a mutation is always returned for any valid
    network with at least one bus.
    """
    if not network.buses:
        raise WorkloadError("mutations need at least one bus")
    rooted = network.rooted()
    while True:
        kind = int(rng.integers(0, 5))
        if kind == 0:
            e = network.edges[int(rng.integers(0, network.n_edges))]
            return SetEdgeBandwidth(e.u, e.v, float(rng.integers(1, max_bandwidth + 1)))
        if kind == 1:
            bus = int(rng.choice(network.buses))
            return SetBusBandwidth(bus, float(rng.integers(1, max_bandwidth + 1)))
        if kind == 2:
            return AttachLeaf(int(rng.choice(network.buses)))
        if kind == 3:
            candidates = _detachable_processors(network)
            if candidates:
                return DetachLeaf(int(rng.choice(candidates)))
        if kind == 4:
            splittable = [b for b in network.buses if rooted.children(b)]
            if splittable:
                bus = int(rng.choice(splittable))
                kids = rooted.children(bus)
                k = int(rng.integers(1, len(kids) + 1))
                moved = tuple(
                    sorted(int(m) for m in rng.choice(kids, size=k, replace=False))
                )
                if network.degree(bus) - len(moved) + 1 >= 2:
                    return SplitBus(bus, moved)


def mutation_storm(
    network: HierarchicalBusNetwork,
    n_mutations: int = 12,
    start: int = 0,
    spacing: int = 4,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> ChurnTrace:
    """A seeded mix of every mutation kind at a fixed cadence.

    The adversarial scenario: attaches, detaches, splits and bandwidth
    changes interleave, exercising renumbering, re-homing and denominator
    repair together.  Targets are valid at apply time (chain simulated).
    """
    if n_mutations < 1:
        raise WorkloadError("need at least one mutation")
    gen = _rng(rng, seed)
    events = []
    net = network
    t = int(start)
    for _ in range(n_mutations):
        mutation = random_valid_mutation(net, gen)
        events.append(TimedMutation(t, mutation))
        outcome = apply_mutation(net, mutation)
        # repair the rooted view into the new network's cache, so the next
        # draw reads it instead of building a fresh traversal
        net.rooted().repaired(outcome)
        net = outcome.network
        t += int(spacing)
    return ChurnTrace(events)
