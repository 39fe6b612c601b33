"""The simulation engine: one loop behind every replay entry point.

:class:`EngineStream` is that loop.  It serves request micro-batches and
churn mutations in arrival order for one or more lanes -- each a
:class:`SimulationEngine` view of one
:class:`~repro.sim.protocol.PlacementStrategy` and its sinks.  Between
mutations it stays on the vectorized chunk fast path (``serve_chunk``,
one path-incidence scatter for non-adapting strategies); at a mutation
it applies the mutation functionally once, repairs every lane's strategy
in place and keeps the reference-id mapping of the churn model up to
date (requests from departed or not-yet-arrived processors are counted
as dropped).  Metrics flow through the pluggable sinks of
:mod:`repro.sim.sinks`.

A serving front end feeds a stream batch by batch.  An offline replay
feeds it the whole input: :meth:`SimulationEngine.run` opens a stream
over one lane, :meth:`SimulationEngine.run_fleet` over K lanes of one
stacked load state (a fleet of one *is* ``run``), and both serve each
segment between consecutive mutation times, then seal it.

:class:`RoundReplayDriver` is the round-mode counterpart used by the
store-and-forward request replay: it charges each round's deliveries
into a :class:`~repro.core.loadstate.LoadState` as one per-edge column
and notifies the same sink set once per round.

Both produce **bit-for-bit** the results of the legacy loops they
replaced; ``tests/properties/test_serve_differential.py`` and
``tests/properties/test_sim_kernel.py`` pin that against verbatim copies
of the pre-refactor implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.dynamic.sequence import RequestSequence
from repro.errors import InvalidEdgeError, SimulationError, WorkloadError
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    MutationOutcome,
    apply_mutation,
)
from repro.network.node import NodeKind
from repro.sim.protocol import fleet_groups, validate_strategy
from repro.sim.sinks import MetricsSink

__all__ = [
    "SimulationEngine",
    "EngineStream",
    "SimulationResult",
    "RoundReplayDriver",
]


def _check_refs(
    refs: np.ndarray,
    n_refs: int,
    current_of_ref: Optional[np.ndarray],
    node_kinds: np.ndarray,
) -> None:
    """Reject events whose reference id is out of range or resolves to a bus.

    ``current_of_ref`` maps reference ids to current nodes (``None``: every
    id is its own node).  An id outside ``[0, n_refs)`` or one whose
    current node is a bus raises :class:`~repro.errors.WorkloadError`:
    either would index out of bounds inside the serving kernels.  Departed
    references (mapped to -1) pass, since the remap drops their events.
    """
    if not refs.size:
        return
    lo, hi = int(refs.min()), int(refs.max())
    if lo < 0 or hi >= n_refs:
        bad = lo if lo < 0 else hi
        raise WorkloadError(
            f"event references processor id {bad}, but the replay "
            f"universe has {n_refs} reference ids"
        )
    nodes = refs if current_of_ref is None else current_of_ref[refs]
    # a departed ref's -1 reads the last node's kind and is masked out
    bus = (node_kinds[nodes] != NodeKind.PROCESSOR) & (nodes >= 0)
    if bus.any():
        raise WorkloadError(
            f"event references id {int(refs[bus].min())}, which is a "
            "bus node, not a processor"
        )


def _remap_span(
    sequence: RequestSequence,
    start: int,
    stop: int,
    current_of_ref: np.ndarray,
    n_refs: int,
) -> Tuple[Optional[RequestSequence], int, int, int, int]:
    """Resolve one serve span under the reference-id mapping.

    The mapping is constant within a span (mutations only happen at span
    boundaries), so the kept events form one chunk.  Returns
    ``(sub, sub_start, sub_stop, served, dropped)``: when every reference
    maps to itself the original sequence is returned directly, otherwise a
    remapped sub-sequence covering exactly the kept events; ``sub`` is
    ``None`` when every event of the span dropped.
    """
    procs, objs, writes = sequence.as_arrays()
    refs = procs[start:stop]
    outside = (refs < 0) | (refs >= n_refs)
    if outside.any():
        raise WorkloadError(
            f"event references processor id {int(refs[np.argmax(outside)])}, "
            f"but the replay universe has {n_refs} reference ids"
        )
    nodes = current_of_ref[refs]
    if np.array_equal(nodes, refs):
        return sequence, start, stop, stop - start, 0
    keep = nodes >= 0
    n_kept = int(np.count_nonzero(keep))
    if n_kept:
        sub = RequestSequence.from_columns(
            nodes[keep], objs[start:stop][keep], writes[start:stop][keep],
            sequence.n_objects,
        )
        return sub, 0, n_kept, n_kept, (stop - start) - n_kept
    return None, 0, 0, 0, stop - start


def _check_chunk_size(chunk_size) -> Optional[int]:
    """The ``chunk_size`` rule of every engine entry: ``None``, or an
    ``int`` or numpy integer of at least 1 (a ``bool`` is refused).

    The value can come from outside the program -- a recorded journal's
    header carries it -- so anything else raises
    :class:`~repro.errors.WorkloadError` here rather than a ``TypeError``
    deep in the span grid, or a ``True`` replaying as chunk size 1.
    """
    if chunk_size is None:
        return None
    if (
        isinstance(chunk_size, (int, np.integer))
        and not isinstance(chunk_size, bool)
        and chunk_size >= 1
    ):
        return int(chunk_size)
    raise WorkloadError(
        f"chunk_size must be an integer of at least 1, got {chunk_size!r}"
    )


@dataclass
class SimulationResult:
    """Outcome of one engine run: strategy, substrate and sink handles."""

    strategy: object
    account: object
    network: object
    n_events: int
    served: int
    dropped: int
    outcomes: List[MutationOutcome] = field(default_factory=list)
    sinks: Tuple[MetricsSink, ...] = ()

    @property
    def congestion(self) -> float:
        """Final congestion of the replayed account."""
        return self.account.congestion

    @property
    def n_mutations(self) -> int:
        """Number of mutations applied during the replay."""
        return len(self.outcomes)

    def sink(self, kind: Type[MetricsSink]) -> Optional[MetricsSink]:
        """First attached sink of the given type (``None`` if absent)."""
        for sink in self.sinks:
            if isinstance(sink, kind):
                return sink
        return None


class SimulationEngine:
    """One lane of the timeline loop: a strategy, its sinks and its totals.

    Every sink hook receives the lane it observes, so ``sim.account``
    reads that strategy's account and ``sim.n_events`` is the replay
    length (``-1`` while a served stream is open).  :meth:`run` replays
    one strategy and :meth:`run_fleet` K of them, each through one
    :class:`EngineStream` fed the whole recorded input.

    Parameters
    ----------
    strategy:
        Any object implementing the
        :class:`~repro.sim.protocol.PlacementStrategy` protocol.
    sinks:
        Metrics sinks; their ``interval`` hints become serve-span
        boundaries so samples land at exact event positions while the
        replay between them stays batched.
    chunk_size:
        Optional upper bound on serve-span length (the batch replay
        grid): an ``int`` or numpy integer of at least 1.  ``None`` serves
        each uninterrupted span as one chunk.
    """

    def __init__(
        self,
        strategy,
        sinks: Sequence[MetricsSink] = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        validate_strategy(strategy)
        self.strategy = strategy
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.chunk_size = _check_chunk_size(chunk_size)
        self.n_events = 0
        self.served = 0
        self.dropped = 0
        self.outcomes: List[MutationOutcome] = []

    @property
    def account(self):
        """The strategy's cost account (live view)."""
        return self.strategy.account

    # ------------------------------------------------------------------ #
    def run(
        self, sequence: RequestSequence, trace: Optional[ChurnTrace] = None
    ) -> SimulationResult:
        """Replay ``sequence`` (interleaved with ``trace``) to completion.

        Without a trace every event is served directly; with one, events
        address processors by reference ids (original ids plus one fresh
        id per attach in trace order), requests from departed or
        not-yet-arrived processors are dropped, and every mutation
        scheduled at time ``t`` is applied before the event at position
        ``t``.  An event whose processor id is out of range or resolves to
        a bus raises :class:`~repro.errors.WorkloadError` before any event
        of its segment (the events between two mutation times; without a
        trace, the whole sequence) is served.
        """
        stream = EngineStream._replaying([self], sequence, trace)
        stream.replay(sequence, trace)
        return stream.finish()

    # ------------------------------------------------------------------ #
    # fleet replay: all strategies in one stacked pass over the timeline
    # ------------------------------------------------------------------ #
    @classmethod
    def run_fleet(
        cls,
        strategies: Sequence[object],
        sequence: RequestSequence,
        trace: Optional[ChurnTrace] = None,
        sinks: Optional[Sequence[Sequence[MetricsSink]]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[SimulationResult]:
        """Replay one timeline under every strategy at once, stacked.

        The comparative experiment shape of the paper -- the same
        request/churn timeline under a whole strategy family -- pays K
        full passes when run strategy by strategy.  ``run_fleet`` decodes
        the timeline **once**, rebinds every strategy's (fresh) cost
        account onto one lane of a shared
        :class:`~repro.core.loadstate.StackedLoadState`, and serves each
        span for all K strategies against the stacked substrate:

        * strategies of one class that implements the
          ``serve_chunk_fleet`` group hook (see
          :func:`~repro.sim.protocol.fleet_groups`) share per-chunk work
          across their lanes: static lanes share the chunk's pair
          aggregation and per-object write counts, each lane gathering
          from its own nearest table and charging its own pairs and
          Steiner column; adaptive counter lanes
          (:class:`~repro.dynamic.online.EdgeCounterManager`, every
          tuning) share the chunk decode, the per-object position index
          and one nearest-table fill, each lane replaying its own counter
          cascade exactly;
        * a lone member of such a class, and every strategy without the
          hook, is served through its own ``serve_chunk`` against its
          lane, so custom strategies remain exact;
        * churn mutations are applied once, the stacked substrate is
          repaired once for all lanes, and the reference-id remapping of
          each span is resolved once.

        A fleet of one is :meth:`run` on the strategy's own one-lane
        state.  Every check -- the protocol, ``chunk_size``, one sink set
        per strategy, distinct strategies, accounts and states on one
        network object, freshness and the whole sequence -- runs before
        any account is rebound, so a refused fleet leaves every strategy
        untouched.

        Per-lane metrics flow through per-strategy sink sets (``sinks[k]``
        observes lane ``k`` through its own engine view).  Serve spans
        break at the union of all lanes' sink intervals; with equal sink
        configurations per lane -- the scenario-registry shape -- that is
        exactly the sequential span structure.

        The results are **bit-for-bit** those of K sequential
        :meth:`run` calls over fresh strategies (loads, congestion,
        trajectories, drops, cost breakdowns); all charges are integer
        request counts, so lane arithmetic is exact in any order.
        ``tests/properties/test_fleet_parity.py`` pins this.

        Parameters
        ----------
        strategies:
            Distinct, freshly-built strategies sharing one network object,
            each with its own unused cost account (their states are
            rebound to fleet lanes, which do not support snapshots).
        sequence / trace / chunk_size:
            As in :meth:`run`.
        sinks:
            Optional per-strategy sink sets (``len(sinks) == K``).

        Returns
        -------
        list of SimulationResult, in strategy order.
        """
        from repro.core.loadstate import LoadState, StackedLoadState

        strategies = list(strategies)
        if not strategies:
            raise SimulationError("run_fleet needs at least one strategy")
        if sinks is None:
            sinks = [()] * len(strategies)
        sinks = [tuple(lane_sinks) for lane_sinks in sinks]
        if len(sinks) != len(strategies):
            raise SimulationError("run_fleet needs one sink set per strategy")
        engines = [
            cls(strategy, sinks=lane_sinks, chunk_size=chunk_size)
            for strategy, lane_sinks in zip(strategies, sinks)
        ]
        for owners in (
            strategies,
            [strategy.account for strategy in strategies],
            [strategy.account.state for strategy in strategies],
        ):
            if len(set(map(id, owners))) != len(strategies):
                raise SimulationError(
                    "fleet strategies must be distinct instances with their "
                    "own cost accounts and load states"
                )
        base_net = strategies[0].network
        for strategy in strategies:
            if strategy.network is not base_net:
                raise SimulationError(
                    "fleet strategies must share one network object (build "
                    "them against the same HierarchicalBusNetwork instance)"
                )
            account = strategy.account
            state = account.state
            fresh = (
                isinstance(state, LoadState)
                and state.stack.n_lanes == 1
                and not np.any(state._loads)
                and not account.service_units
                and not account.management_units
            )
            if not fresh:
                raise SimulationError(
                    "fleet strategies must be freshly built: their cost "
                    "accounts are rebound onto lanes of one stacked substrate"
                )
        if len(engines) == 1:
            return [engines[0].run(sequence, trace)]
        stream = EngineStream._replaying(engines, sequence, trace)
        stream.validate(sequence)

        stack = StackedLoadState(base_net, len(strategies))
        for strategy, lane in zip(strategies, stack.lanes):
            strategy.account.state = lane
        stream.replay(sequence, trace)
        return stream._seal()


class EngineStream:
    """The one timeline loop: request micro-batches and churn mutations,
    served in arrival order.

    A serving front end feeds it batch by batch (:meth:`serve`,
    :meth:`mutate`); an offline replay, and a session resumed from its
    journal, feed it a whole recorded input (:meth:`replay`).
    :meth:`finish` seals the stream and returns the same
    :class:`SimulationResult` shape as :meth:`SimulationEngine.run`.
    A stream serves one or more *lanes* (:class:`SimulationEngine`
    views): one for a session or :meth:`SimulationEngine.run`, K for
    :meth:`SimulationEngine.run_fleet`, whose lanes are served group by
    group (:func:`~repro.sim.protocol.fleet_groups`).  Each mutation is
    applied once and each span's reference-id remapping resolved once
    for all lanes.

    **Parity contract (ARCHITECTURE invariant 10).**  For any completed
    stream, the final loads, cost units, congestion, served/dropped totals,
    mutation outcomes and sampled trajectories are **bit-for-bit** equal to
    an offline :meth:`SimulationEngine.run` over the recorded sequence and
    churn trace.  This holds for *any* micro-batch partition of the event
    stream because ``serve_chunk`` is contractually equal to event-by-event
    serving, and because every batch is re-cut at one span grid (sink
    ``interval`` hints and ``chunk_size`` multiples, counted from the
    stream's first event), so samples land at identical event positions.
    Only span-*granular* observations (e.g. the per-span drop list) depend
    on the partition.

    A replay and a live stream differ in two ways, both read from the
    input:

    * A replay knows its length, so ``n_events`` is final from the start
      and the last span's boundary is the final one.  A live stream's
      ``n_events`` is ``-1`` while it is open (sinks comparing positions
      against it must tolerate that); :meth:`finish` sets the final count
      and emits one closing ``on_boundary`` at it, which built-in sinks
      deduplicate.
    * A replay reserves one reference id per attach of its trace up
      front, so an event addressed to a processor before its attach
      drops, as the churn model says.  A live stream's universe grows
      with the attaches applied *so far*: such an event is rejected with
      :class:`~repro.errors.WorkloadError` -- failing loud beats silently
      guessing the future.  Batches are validated before any event is
      served, so a rejected batch leaves the account untouched.
    """

    def __init__(
        self,
        strategy,
        sinks: Sequence[MetricsSink] = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        self._open([SimulationEngine(strategy, sinks, chunk_size)])

    @classmethod
    def _replaying(
        cls,
        lanes: Sequence[SimulationEngine],
        sequence: RequestSequence,
        trace: Optional[ChurnTrace],
    ) -> "EngineStream":
        """A stream over ``lanes`` that knows its whole input: its length,
        and one reserved reference id per attach of the trace."""
        stream = cls.__new__(cls)
        reserved = trace.attach_count() if trace is not None else 0
        stream._open(lanes, len(sequence), reserved)
        return stream

    def _open(
        self, lanes: Sequence[SimulationEngine], n_events: int = -1, reserved: int = 0
    ) -> None:
        self.lanes: Tuple[SimulationEngine, ...] = tuple(lanes)
        self.chunk_size = self.lanes[0].chunk_size
        self.position = 0
        for lane in self.lanes:
            lane.n_events = n_events
            lane.served = lane.dropped = 0
            lane.outcomes = []
        self._live = n_events < 0
        self._groups = fleet_groups([lane.strategy for lane in self.lanes])
        self._base_n = self.lanes[0].strategy.network.n_nodes
        # the network after every mutation queued so far
        self._network = self.lanes[0].strategy.network
        # reference id -> current node after every queued mutation (-1:
        # departed, or reserved for an attach to come); ``None`` is the
        # identity, kept until a mutation or a reservation needs the map
        self._refs: Optional[np.ndarray] = None
        if reserved:
            self._refs = np.full(self._base_n + reserved, -1, dtype=np.int64)
            self._refs[: self._base_n] = np.arange(self._base_n, dtype=np.int64)
        self._next_ref = self._base_n
        self._pending_outcomes: List[MutationOutcome] = []
        self._validated: Optional[RequestSequence] = None
        grids = {sink.interval for lane in self.lanes for sink in lane.sinks}
        grids.add(self.chunk_size)
        self._grids = sorted(grid for grid in grids if grid)
        self._finished = False
        for lane in self.lanes:
            for sink in lane.sinks:
                sink.on_begin(lane)

    @property
    def account(self):
        """The first lane's cost account (live view)."""
        return self.lanes[0].account

    @property
    def n_refs(self) -> int:
        """Size of the current reference-id universe."""
        return self._base_n if self._refs is None else len(self._refs)

    def _check_open(self) -> None:
        if self._finished:
            raise SimulationError("stream is finished; no further feeding")

    def validate(self, events) -> RequestSequence:
        """Check one micro-batch against the stream as it will serve it.

        ``events`` is an iterable of
        :class:`~repro.dynamic.sequence.RequestEvent` or a prebuilt
        :class:`~repro.dynamic.sequence.RequestSequence`.  The checks run
        against the network and reference universe left by every queued
        mutation: object range (for every lane's strategy), reference-id
        range, and that no reference resolves to a bus node.  Returns the
        batch as a sequence; passing that sequence to the next
        :meth:`serve` does not check it again.
        """
        self._check_open()
        strategies = [lane.strategy for lane in self.lanes]
        if isinstance(events, RequestSequence):
            batch = events
        else:
            events = list(events)
            n_objects = getattr(strategies[0], "n_objects", None)
            if n_objects is None:
                n_objects = 1 + max((ev.obj for ev in events), default=-1)
            batch = RequestSequence(events, n_objects)
        for strategy in strategies:
            n_objects = getattr(strategy, "n_objects", None)
            if n_objects is not None and batch.n_objects > n_objects:
                raise WorkloadError(
                    "sequence references more objects than the strategy was built for"
                )
        _check_refs(
            batch.as_arrays()[0], self.n_refs, self._refs, self._network.node_kinds
        )
        self._validated = batch
        return batch

    def _cuts(self, start: int, stop: int) -> List[int]:
        """Span-grid positions falling strictly inside (start, stop)."""
        cuts = set()
        for grid in self._grids:
            first = (start // grid + 1) * grid
            cuts.update(range(first, stop, grid))
        return sorted(cuts)

    def serve(self, events) -> Tuple[int, int]:
        """Serve one micro-batch now; returns its ``(served, dropped)`` split.

        ``events`` is anything :meth:`validate` accepts.  The batch is
        validated atomically (unless it is the sequence the last
        :meth:`validate` returned), re-cut at the span grid, and each
        sub-span goes through the chunk fast path for every lane.  Events
        from departed reference ids are dropped (counted, not served).
        An empty batch is a no-op: queued mutations keep waiting for the
        next served event.
        """
        self._check_open()
        batch = events if events is self._validated else self.validate(events)
        self._validated = None
        n = len(batch)
        if n == 0:
            return 0, 0
        self._flush_mutations()
        refs = self._refs
        start = self.position
        stop = start + n
        batch_served = batch_dropped = 0
        edges = [start, *self._cuts(start, stop), stop]
        for a, b in zip(edges, edges[1:]):
            la, lb = a - start, b - start
            if refs is None:
                sub, sub_start, sub_stop, served, dropped = batch, la, lb, b - a, 0
            else:
                sub, sub_start, sub_stop, served, dropped = _remap_span(
                    batch, la, lb, refs, len(refs)
                )
            if sub is not None:
                for group_cls, members in self._groups:
                    if group_cls is None:
                        members[0].serve_chunk(sub, sub_start, sub_stop)
                    else:
                        group_cls.serve_chunk_fleet(members, sub, sub_start, sub_stop)
            self.position = b
            batch_served += served
            batch_dropped += dropped
            for lane in self.lanes:
                lane.served += served
                lane.dropped += dropped
                for sink in lane.sinks:
                    sink.on_span(lane, a, b, served, dropped)
                    sink.on_boundary(lane, b)
        return batch_served, batch_dropped

    def mutate(self, mutation) -> None:
        """Schedule one churn mutation at the current stream position.

        The mutation's outcome is computed now, against the network left
        by the mutations queued before it, so one that cannot apply raises
        :class:`~repro.errors.MutationError` here and leaves the stream
        untouched.  The reference universe follows it at once (later
        batches validate against it): an attach fills the next reserved
        reference id, or appends one.

        The lanes see the outcomes *lazily*: the queue is flushed
        immediately before the next served event (or, for trailing
        mutations, at :meth:`finish`, after the final boundary).  This is
        the timeline contract -- a mutation at time ``t`` lands before
        the event at position ``t``, and mutations at or past the final
        position land after the final serve span, so the forced final
        trajectory sample precedes them.
        """
        self._check_open()
        outcome = apply_mutation(self._network, mutation)
        self._network = outcome.network
        self._validated = None
        refs = self._refs
        if refs is None:
            refs = np.arange(self._base_n, dtype=np.int64)
        alive = refs >= 0
        refs[alive] = outcome.node_map[refs[alive]]
        if isinstance(mutation, AttachLeaf):
            if self._next_ref == len(refs):
                refs = np.append(refs, np.int64(-1))
            refs[self._next_ref] = outcome.new_node
            self._next_ref += 1
        self._refs = refs
        self._pending_outcomes.append(outcome)

    def _flush_mutations(self) -> None:
        """Carry every lane over every queued outcome, in arrival order."""
        pending, self._pending_outcomes = self._pending_outcomes, []
        for outcome in pending:
            for lane in self.lanes:
                # the stacked repair is idempotent per outcome, so a
                # shared substrate is repaired exactly once
                lane.strategy.apply_mutation(outcome)
                lane.outcomes.append(outcome)
            for lane in self.lanes:
                for sink in lane.sinks:
                    sink.on_mutation(lane, outcome)

    def replay(
        self, sequence: RequestSequence, trace: Optional[ChurnTrace] = None
    ) -> None:
        """Feed a recorded input whole, in its recorded interleaving.

        Each segment of ``sequence`` between consecutive mutation times
        goes through :meth:`serve`, and each mutation of ``trace`` through
        :meth:`mutate` at its time (counted from the sequence's first
        event); mutations at or past the end follow the last event.
        """
        n = len(sequence)
        position = 0
        for timed in trace.events if trace is not None else ():
            time = min(timed.time, n)
            if time > position:
                self.serve(sequence.subsequence(position, time))
                position = time
            self.mutate(timed.mutation)
        if position < n:
            # served whole, a sequence the caller validated is not checked again
            self.serve(sequence if position == 0 else sequence.subsequence(position, n))

    def _seal(self) -> List[SimulationResult]:
        """Seal the stream; returns every lane's result."""
        self._check_open()
        self._finished = True
        for lane in self.lanes:
            lane.n_events = self.position
            if self._live:  # the length is known only now
                for sink in lane.sinks:
                    sink.on_boundary(lane, self.position)
        self._flush_mutations()
        for lane in self.lanes:
            for sink in lane.sinks:
                sink.on_end(lane)
        return [
            SimulationResult(
                strategy=lane.strategy,
                account=lane.strategy.account,
                network=lane.strategy.network,
                n_events=lane.n_events,
                served=lane.served,
                dropped=lane.dropped,
                outcomes=lane.outcomes,
                sinks=lane.sinks,
            )
            for lane in self.lanes
        ]

    def finish(self) -> SimulationResult:
        """Seal the stream and return the offline-shaped result."""
        return self._seal()[0]


class RoundReplayDriver:
    """Round-mode kernel: charge delivery rounds into a load state.

    Used by the store-and-forward request replay: the scheduler decides
    *which* traversals complete each round, the driver owns the substrate
    charging and the per-round sink notifications (cumulative congestion,
    delivery counts).  A round is the edge ids of its deliveries (ids may
    repeat), charged as one column ``np.bincount(ids, minlength=n_edges)``
    through :meth:`~repro.core.loadstate.LoadState.apply_edge_loads`.
    """

    def __init__(self, state, sinks: Sequence[MetricsSink] = ()) -> None:
        self.state = state
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.n_rounds = 0

    def run(self, rounds) -> int:
        """Apply every round batch in order; returns the round count.

        A round holding an edge id outside the network raises
        :class:`~repro.errors.InvalidEdgeError` naming the round and the
        id, before that round is charged.
        """
        n_edges = self.state.n_edges
        for sink in self.sinks:
            sink.on_begin(self)
        for edge_ids in rounds:
            ids = np.asarray(edge_ids, dtype=np.int64)
            index = self.n_rounds
            bad = ids[(ids < 0) | (ids >= n_edges)]
            if bad.size:
                raise InvalidEdgeError(
                    f"round {index} holds edge id {int(bad[0])}, outside the "
                    f"network's {n_edges} edges; the round was not charged"
                )
            self.state.apply_edge_loads(np.bincount(ids, minlength=n_edges))
            self.n_rounds += 1
            for sink in self.sinks:
                sink.on_round(self, index, ids.size)
        for sink in self.sinks:
            sink.on_end(self)
        return self.n_rounds
