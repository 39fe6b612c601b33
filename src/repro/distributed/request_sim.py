"""Request-replay simulator: from congestion to actual delivery time.

The introduction of the paper motivates congestion as the objective because
routing results show that the delivery time of a batch of messages is
governed by ``congestion + dilation``.  This module closes that loop for the
reproduction: given a placement, it expands the access pattern into actual
request messages (reads, write updates and write broadcasts), routes them
through the tree with a store-and-forward scheduler that respects edge and
bus bandwidths, and reports the resulting makespan.

The makespan can never beat the congestion (every edge can forward at most
``b(e)`` traversals per round, every bus at most ``2·b(B)`` incident
traversals per round), and for tree routing the greedy schedule stays within
a small factor of ``congestion + dilation`` -- the relationship experiment
E8 reports for the different placement strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.loadstate import LoadState
from repro.core.placement import Placement, RequestAssignment
from repro.errors import SimulationError
from repro.network.rooted import RootedTree
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern

__all__ = ["ReplayResult", "replay_requests"]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a request-replay simulation.

    Attributes
    ----------
    makespan:
        Number of rounds until every traversal was delivered.
    total_traversals:
        Total number of (message, edge) traversals scheduled.
    per_edge_traffic:
        Traversals per edge (matches the congestion model's edge loads).
    congestion:
        Max relative edge/bus load implied by ``per_edge_traffic`` -- the
        lower bound on the makespan.
    dilation:
        Longest path (in edges) of any message.
    round_congestion:
        Cumulative congestion of the traffic delivered up to each round
        (length ``makespan``), maintained incrementally by the shared
        :class:`~repro.core.loadstate.LoadState` substrate; the last entry
        equals ``congestion``.
    """

    makespan: int
    total_traversals: int
    per_edge_traffic: np.ndarray
    congestion: float
    dilation: int
    round_congestion: Optional[np.ndarray] = None

    @property
    def slowdown(self) -> float:
        """Makespan divided by the congestion lower bound (>= 1)."""
        if self.congestion <= 0:
            return 1.0
        return self.makespan / self.congestion


@dataclass
class _Traversal:
    """One edge crossing of one message, with a precedence dependency."""

    edge_id: int
    bus_endpoints: Tuple[int, ...]
    predecessor: Optional[int]  # index of the traversal that must finish first
    order: int  # FIFO tie-breaker
    done: bool = False


def _expand_messages(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    assignment: RequestAssignment,
    rooted: RootedTree,
    batch: int,
) -> Tuple[List[_Traversal], np.ndarray, int]:
    """Expand the pattern into edge traversals with precedence constraints.

    ``batch`` scales the number of messages down: ``batch = k`` means every
    ``k`` requests of a (processor, object, holder) share are bundled into a
    single message (the per-edge traffic is divided accordingly), which keeps
    the simulation tractable for heavy patterns while preserving the load
    *shape*.
    """
    traversals: List[_Traversal] = []
    per_edge = np.zeros(network.n_edges, dtype=np.float64)
    dilation = 0
    order = 0

    def add_path(path_edges: Sequence[int], endpoints_path: Sequence[int], copies: int) -> None:
        nonlocal order, dilation
        dilation = max(dilation, len(path_edges))
        for _ in range(copies):
            prev_index: Optional[int] = None
            for step, eid in enumerate(path_edges):
                # buses adjacent to this edge constrain its scheduling
                u, v = network.edge_endpoints(eid)
                buses = tuple(b for b in (u, v) if network.is_bus(b))
                traversals.append(
                    _Traversal(
                        edge_id=eid,
                        bus_endpoints=buses,
                        predecessor=prev_index,
                        order=order,
                    )
                )
                prev_index = len(traversals) - 1
                per_edge[eid] += 1
            order += 1

    def add_steiner(edge_ids: Sequence[int], copies: int) -> None:
        nonlocal order, dilation
        # A broadcast crosses every Steiner edge once; edges of a broadcast
        # are independent of each other (the update fans out), so no
        # precedence between them.
        dilation = max(dilation, 1 if edge_ids else 0)
        for _ in range(copies):
            for eid in edge_ids:
                u, v = network.edge_endpoints(eid)
                buses = tuple(b for b in (u, v) if network.is_bus(b))
                traversals.append(
                    _Traversal(
                        edge_id=eid, bus_endpoints=buses, predecessor=None, order=order
                    )
                )
                per_edge[eid] += 1
            order += 1

    for obj in range(pattern.n_objects):
        holders = placement.holders(obj)
        steiner = rooted.steiner_edge_ids(holders) if len(holders) > 1 else []
        total_writes = 0
        for proc in pattern.requesters(obj):
            for share in assignment.shares(proc, obj):
                count = -(-share.total // batch)  # ceil
                path = rooted.path_edge_ids(proc, share.holder)
                add_path(path, (proc, share.holder), count)
                total_writes += share.writes
        if steiner and total_writes > 0:
            add_steiner(steiner, -(-total_writes // batch))
    return traversals, per_edge, dilation


def replay_requests(
    network: HierarchicalBusNetwork,
    pattern: AccessPattern,
    placement: Placement,
    assignment: Optional[RequestAssignment] = None,
    batch: int = 1,
    max_rounds: int = 10_000_000,
) -> ReplayResult:
    """Replay every request of the pattern through a store-and-forward router.

    Parameters
    ----------
    network, pattern, placement:
        The instance and the placement to exercise.
    assignment:
        Optional explicit request assignment (defaults to nearest-copy).
    batch:
        Bundle factor: ``batch`` requests of the same (processor, object,
        holder) share travel as one message.  Keeps large patterns tractable.
    max_rounds:
        Safety limit on the number of simulated rounds.
    """
    if batch < 1:
        raise SimulationError("batch must be a positive integer")
    if assignment is None:
        assignment = RequestAssignment.nearest_copy(network, pattern, placement)
    rooted = network.rooted()
    traversals, per_edge, dilation = _expand_messages(
        network, pattern, placement, assignment, rooted, batch
    )

    from repro.sim.engine import RoundReplayDriver
    from repro.sim.sinks import RoundStatsSink

    # congestion implied by the generated traffic (lower bound on makespan),
    # read off the same incremental substrate the online layer charges into
    total_state = LoadState(network, rooted)
    total_state.apply_edge_loads(per_edge)
    congestion = total_state.congestion

    # The greedy store-and-forward scheduler decides which traversals
    # complete each round; the simulation kernel's round driver owns the
    # substrate charging and the per-round congestion statistics.
    stats = RoundStatsSink()
    driver = RoundReplayDriver(LoadState(network, rooted), sinks=(stats,))
    makespan = driver.run(_schedule_rounds(network, traversals, max_rounds))

    return ReplayResult(
        makespan=makespan,
        total_traversals=len(traversals),
        per_edge_traffic=per_edge,
        congestion=congestion,
        dilation=dilation,
        round_congestion=stats.round_congestion,
    )


def _schedule_rounds(
    network: HierarchicalBusNetwork,
    traversals: List[_Traversal],
    max_rounds: int,
):
    """Greedy bandwidth-respecting schedule, one edge-id batch per round.

    Yields, for every round, the edge ids of the traversals delivered in
    that round (FIFO by message order under per-edge and per-bus capacity
    limits); precedence successors are released as their predecessors
    complete.  The consumer (the kernel's round driver) charges each batch
    into the shared load-state substrate.

    A queue stays sorted by message order between rounds, so only the
    queues that received released successors are sorted again.
    """
    edge_bw = np.asarray(network.edge_bandwidths)
    bus_bw = np.asarray(network.bus_bandwidths)
    edge_capacity = [int(bw) if bw >= 1 else 1 for bw in edge_bw]
    bus_base = {b: max(1, int(2 * bus_bw[b])) for b in network.buses}

    def by_order(i: int) -> int:
        return traversals[i].order

    # ready queue per edge, FIFO by message order
    pending_by_edge: List[List[int]] = [[] for _ in range(network.n_edges)]
    blocked_children: Dict[int, List[int]] = {}
    remaining = len(traversals)
    for idx, tr in enumerate(traversals):
        if tr.predecessor is None:
            pending_by_edge[tr.edge_id].append(idx)
        else:
            blocked_children.setdefault(tr.predecessor, []).append(idx)
    for queue in pending_by_edge:
        queue.sort(key=by_order)

    rounds = 0
    while remaining > 0:
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError("request replay exceeded the round limit")
        bus_capacity = dict(bus_base)
        newly_done: List[int] = []
        for eid, queue in enumerate(pending_by_edge):
            if not queue:
                continue
            # every traversal of an edge has the edge's bus endpoints, so a
            # round takes a prefix of the queue: as many entries as the edge
            # and each endpoint bus still have room for
            buses = traversals[queue[0]].bus_endpoints
            take = min([len(queue), edge_capacity[eid]] + [bus_capacity[b] for b in buses])
            if take <= 0:
                continue
            for b in buses:
                bus_capacity[b] -= take
            for idx in queue[:take]:
                traversals[idx].done = True
            newly_done.extend(queue[:take])
            del queue[:take]
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
        released = set()
        for idx in newly_done:
            for child in blocked_children.pop(idx, ()):  # release successors
                eid = traversals[child].edge_id
                pending_by_edge[eid].append(child)
                released.add(eid)
        for eid in released:
            pending_by_edge[eid].sort(key=by_order)
