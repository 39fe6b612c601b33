"""Round-based message-passing simulator for tree networks.

The paper claims that the extended-nibble strategy "can be executed in a
distributed fashion on the tree consuming time
``O(|X|·|P ∪ B|·log(degree(T)) + height(T))``".  To measure such round
counts without hardware we simulate a synchronous message-passing system on
the tree:

* computation proceeds in **rounds**;
* in every round each node reads the messages delivered to it in the
  previous round, performs local computation, and sends messages to
  neighbours;
* messages sent in round ``t`` are delivered at the beginning of round
  ``t + 1``;
* the engine records, per round and per edge, how many messages crossed the
  edge, which yields the communication-load statistics used by experiment
  E7.

Node behaviour is supplied as a :class:`NodeProcess` subclass (or any object
with the same interface).  The engine is deliberately simple -- the
algorithms of the paper only need convergecast/broadcast patterns -- but it
is a general synchronous simulator and is reused by the request-replay
simulator in :mod:`repro.distributed.request_sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence


from repro.errors import SimulationError
from repro.network.tree import HierarchicalBusNetwork

__all__ = ["Message", "NodeProcess", "RoundStats", "TreeSimulator"]


@dataclass(frozen=True)
class Message:
    """A message in flight between two adjacent nodes.

    Attributes
    ----------
    src, dst:
        Sending and receiving node (must be adjacent in the tree).
    payload:
        Arbitrary payload.
    size:
        Abstract size in "units"; counts towards the per-edge traffic.
    """

    src: int
    dst: int
    payload: Any
    size: int = 1


class NodeProcess:
    """Behaviour of a single node in the synchronous simulation.

    Subclasses override :meth:`on_round`; the default implementation does
    nothing.  A node signals that it has finished by returning ``True`` from
    :meth:`is_done`; the simulation stops when every node is done and no
    message is in flight.
    """

    def __init__(self, node: int) -> None:
        self.node = node

    def on_start(self, ctx: "TreeSimulator") -> Iterable[Message]:
        """Called once before round 0; may emit initial messages."""
        return ()

    def on_round(
        self, ctx: "TreeSimulator", inbox: Sequence[Message]
    ) -> Iterable[Message]:
        """Process the inbox of this round and return messages to send."""
        return ()

    def is_done(self, ctx: "TreeSimulator") -> bool:
        """Whether this node has finished its part of the protocol."""
        return True


@dataclass
class RoundStats:
    """Statistics collected by a simulation run."""

    rounds: int = 0
    total_messages: int = 0
    total_units: int = 0
    per_edge_units: Dict[int, int] = field(default_factory=dict)
    max_inbox: int = 0

    def edge_units(self, edge_id: int) -> int:
        """Units of traffic that crossed the given edge."""
        return self.per_edge_units.get(edge_id, 0)

    @property
    def max_edge_units(self) -> int:
        """Maximum traffic over any single edge."""
        return max(self.per_edge_units.values(), default=0)


class TreeSimulator:
    """Synchronous round-based simulator on a hierarchical bus network."""

    def __init__(
        self,
        network: HierarchicalBusNetwork,
        processes: Dict[int, NodeProcess],
    ) -> None:
        self.network = network
        for node in network.nodes():
            if node not in processes:
                raise SimulationError(f"no process registered for node {node}")
        self.processes = processes
        self.stats = RoundStats()
        self._in_flight: List[Message] = []
        self._round = 0

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _record(self, msg: Message) -> None:
        if not self.network.has_edge(msg.src, msg.dst):
            raise SimulationError(
                f"node {msg.src} tried to message non-neighbour {msg.dst}"
            )
        eid = self.network.edge_id(msg.src, msg.dst)
        self.stats.total_messages += 1
        self.stats.total_units += msg.size
        self.stats.per_edge_units[eid] = self.stats.per_edge_units.get(eid, 0) + msg.size

    def run(self, max_rounds: int = 100_000) -> RoundStats:
        """Run until quiescence (all processes done, no messages in flight)."""
        # start-up messages
        for node in self.network.nodes():
            for msg in self.processes[node].on_start(self):
                self._record(msg)
                self._in_flight.append(msg)

        while self._round < max_rounds:
            all_done = all(
                self.processes[node].is_done(self) for node in self.network.nodes()
            )
            if all_done and not self._in_flight:
                break
            inboxes: Dict[int, List[Message]] = {}
            for msg in self._in_flight:
                inboxes.setdefault(msg.dst, []).append(msg)
            self._in_flight = []
            self._round += 1
            self.stats.rounds = self._round
            for node in self.network.nodes():
                inbox = inboxes.get(node, [])
                self.stats.max_inbox = max(self.stats.max_inbox, len(inbox))
                for msg in self.processes[node].on_round(self, inbox):
                    self._record(msg)
                    self._in_flight.append(msg)
        else:
            raise SimulationError(
                f"simulation did not terminate within {max_rounds} rounds"
            )
        return self.stats
