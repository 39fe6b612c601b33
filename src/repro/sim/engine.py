"""The simulation engine: one loop behind every replay entry point.

:class:`SimulationEngine` drives a :class:`~repro.sim.protocol.PlacementStrategy`
through the merged timeline of a request sequence and an optional churn
trace.  Between mutation points it stays on the vectorized chunk fast path
(:meth:`serve_chunk`, one path-incidence scatter for non-adapting
strategies); at mutation points it applies the mutation functionally,
repairs the strategy in place and keeps the reference-id mapping of the
churn model up to date (requests from departed or not-yet-arrived
processors are counted as dropped).  Metrics flow through the pluggable
sinks of :mod:`repro.sim.sinks`.  :meth:`SimulationEngine.run_fleet`
replays K strategies over one timeline on lanes of one stacked load
state; it walks the same loop as :meth:`SimulationEngine.run`, and a
fleet of one *is* that run.  :class:`EngineStream` is the incremental
counterpart a serving front end feeds batch by batch.

:class:`RoundReplayDriver` is the round-mode counterpart used by the
store-and-forward request replay: it charges per-round delivery batches
into a :class:`~repro.core.loadstate.LoadState` and notifies the same sink
set once per round.

Both produce **bit-for-bit** the results of the legacy loops they
replaced; ``tests/properties/test_sim_kernel.py`` pins that against
verbatim copies of the pre-refactor implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.dynamic.sequence import RequestSequence
from repro.errors import SimulationError, WorkloadError
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    MutationOutcome,
    apply_mutation,
)
from repro.network.node import NodeKind
from repro.sim.protocol import fleet_groups, validate_strategy
from repro.sim.sinks import MetricsSink
from repro.sim.timeline import MutationPoint, merge_timeline

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


class _ReferenceTracker:
    """Reference-id -> current-node mapping of a churn replay.

    Events address processors by *reference id*: original node ids plus
    one fresh id per attach in trace order.  Departed (or not-yet-arrived)
    references map to ``-1`` and their requests drop.
    """

    __slots__ = ("current_of_ref", "n_refs", "_next_attach")

    def __init__(self, base_n: int, trace: ChurnTrace) -> None:
        self.n_refs = base_n + trace.attach_count()
        self.current_of_ref = np.full(self.n_refs, -1, dtype=np.int64)
        self.current_of_ref[:base_n] = np.arange(base_n, dtype=np.int64)
        self._next_attach = base_n

    def apply_outcome(self, mutation, outcome: MutationOutcome) -> None:
        """Renumber live references through one applied mutation."""
        alive = self.current_of_ref >= 0
        self.current_of_ref[alive] = outcome.node_map[self.current_of_ref[alive]]
        if isinstance(mutation, AttachLeaf):
            self.current_of_ref[self._next_attach] = int(outcome.new_node)
            self._next_attach += 1


def _check_chunk_size(chunk_size) -> Optional[int]:
    """The ``chunk_size`` rule of every engine entry: ``None``, or an
    ``int`` or numpy integer of at least 1 (a ``bool`` is refused).

    The value can come from outside the program -- a recorded journal's
    header carries it -- so anything else raises
    :class:`~repro.errors.WorkloadError` here rather than a ``TypeError``
    deep in the timeline merge, or a ``True`` replaying as chunk size 1.
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


def _check_sequence(strategies, sequence: RequestSequence, trace) -> None:
    """Refuse a sequence the strategies cannot serve, before any event is.

    Every strategy must know all of the sequence's objects.  Without a
    trace every processor id is checked against the network up front
    (:func:`_check_refs`); under a trace each span is checked as it is
    resolved, against the reference universe of that moment.
    """
    for strategy in strategies:
        n_objects = getattr(strategy, "n_objects", None)
        if n_objects is not None and sequence.n_objects > n_objects:
            raise WorkloadError(
                "sequence references more objects than the strategy was built for"
            )
    if trace is None:
        network = strategies[0].network
        _check_refs(sequence.as_arrays()[0], network.n_nodes, None, network.node_kinds)


def _sink_boundaries(sink_sets, n_events: int) -> set:
    """Span-break positions requested by the sinks' ``interval`` hints."""
    boundaries = set()
    for sinks in sink_sets:
        for sink in sinks:
            interval = sink.interval
            if interval:
                boundaries.update(range(interval, n_events, interval))
    return boundaries


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
    """Drive one strategy through one request/churn timeline.

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
        is served (under a trace, before its span is served).
        """
        _check_sequence([self.strategy], sequence, trace)
        return self._replay([self], sequence, trace)[0]

    @staticmethod
    def _replay(
        engines: Sequence["SimulationEngine"],
        sequence: RequestSequence,
        trace: Optional[ChurnTrace],
    ) -> List[SimulationResult]:
        """The one timeline loop behind :meth:`run` and :meth:`run_fleet`.

        Walks the timeline once for every engine: each mutation is applied
        once and every strategy is carried over it, the reference-id
        remapping of each span is resolved once, and each span is served
        group by group (:func:`~repro.sim.protocol.fleet_groups`).  The
        engines share one chunk size; their sinks observe them one by one.
        """
        strategies = [engine.strategy for engine in engines]
        lead = strategies[0]
        n_events = len(sequence)
        for engine in engines:
            engine.n_events = n_events
            engine.served = 0
            engine.dropped = 0
            engine.outcomes = []

        boundaries = _sink_boundaries([engine.sinks for engine in engines], n_events)
        items = merge_timeline(n_events, trace, engines[0].chunk_size, boundaries)

        tracker = None
        if trace is not None:
            tracker = _ReferenceTracker(lead.network.n_nodes, trace)

        groups = fleet_groups(strategies)

        for engine in engines:
            for sink in engine.sinks:
                sink.on_begin(engine)
        for item in items:
            if isinstance(item, MutationPoint):
                outcome = apply_mutation(lead.network, item.mutation)
                for engine in engines:
                    # the stacked repair is idempotent per outcome, so a
                    # shared substrate is repaired exactly once
                    engine.strategy.apply_mutation(outcome)
                    engine.outcomes.append(outcome)
                if tracker is not None:
                    tracker.apply_outcome(item.mutation, outcome)
                for engine in engines:
                    for sink in engine.sinks:
                        sink.on_mutation(engine, outcome)
            else:  # ServeSpan
                start, stop = item.start, item.stop
                if tracker is None:
                    sub, sub_start, sub_stop = sequence, start, stop
                    served, dropped = stop - start, 0
                else:
                    _check_refs(
                        sequence.as_arrays()[0][start:stop],
                        tracker.n_refs,
                        tracker.current_of_ref,
                        lead.network.node_kinds,
                    )
                    sub, sub_start, sub_stop, served, dropped = _remap_span(
                        sequence, start, stop,
                        tracker.current_of_ref, tracker.n_refs,
                    )
                if sub is not None and sub_stop > sub_start:
                    for group_cls, members in groups:
                        if group_cls is None:
                            members[0].serve_chunk(sub, sub_start, sub_stop)
                        else:
                            group_cls.serve_chunk_fleet(
                                members, sub, sub_start, sub_stop
                            )
                for engine in engines:
                    engine.served += served
                    engine.dropped += dropped
                    for sink in engine.sinks:
                        sink.on_span(engine, start, stop, served, dropped)
                        sink.on_boundary(engine, stop)
        for engine in engines:
            for sink in engine.sinks:
                sink.on_end(engine)

        return [
            SimulationResult(
                strategy=engine.strategy,
                account=engine.strategy.account,
                network=engine.strategy.network,
                n_events=engine.n_events,
                served=engine.served,
                dropped=engine.dropped,
                outcomes=engine.outcomes,
                sinks=engine.sinks,
            )
            for engine in engines
        ]

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
          across their lanes: static lanes share the chunk aggregation,
          batched LCA/distance pass and one lane-broadcast edge scatter;
          adaptive counter lanes
          (:class:`~repro.dynamic.online.EdgeCounterManager` and its
          tournament subclasses) share the chunk decode, the per-object
          position index and one bulk nearest-table build, each lane
          replaying its own counter cascade exactly;
        * a lone member of such a class, and every strategy without the
          hook, is served through its own ``serve_chunk`` against its
          lane, so custom strategies remain exact;
        * churn mutations are applied once, the stacked substrate is
          repaired once for all lanes, and the reference-id remapping of
          each span is resolved once.

        A fleet of one is :meth:`run` on the strategy's own one-lane
        state.  Every check -- the protocol, ``chunk_size``, one sink set
        per strategy, distinct strategies, accounts and states on one
        network object, freshness and the sequence itself -- runs before
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
        _check_sequence(strategies, sequence, trace)

        stack = StackedLoadState(base_net, len(strategies))
        for strategy, lane in zip(strategies, stack.lanes):
            strategy.account.state = lane
        return cls._replay(engines, sequence, trace)


class EngineStream:
    """Incremental, span-feeding counterpart of :meth:`SimulationEngine.run`.

    The offline engine walks a *complete* timeline; a serving front end
    only ever sees a prefix.  ``EngineStream`` accepts request micro-batches
    (:meth:`serve`) and churn mutations (:meth:`mutate`) in arrival order
    and keeps the strategy, its cost account and the attached sinks in
    exactly the state the offline engine would reach after replaying the
    same prefix.  :meth:`finish` seals the stream and returns the same
    :class:`SimulationResult` shape as :meth:`SimulationEngine.run`.

    **Parity contract (ARCHITECTURE invariant 10).**  For any completed
    stream, the final loads, cost units, congestion, served/dropped totals,
    mutation outcomes and sampled trajectories are **bit-for-bit** equal to
    an offline :meth:`SimulationEngine.run` over the recorded sequence and
    churn trace.  This holds for *any* micro-batch partition of the event
    stream because ``serve_chunk`` is contractually equal to event-by-event
    serving, and because the stream re-cuts every batch at the offline span
    grid (sink ``interval`` hints and ``chunk_size`` multiples), so samples
    land at identical event positions.  Only span-*granular* observations
    (e.g. the per-span drop list) depend on the partition.

    Differences from the offline run, by necessity of streaming:

    * ``n_events`` is ``-1`` while the stream is open (the total is
      unknown); sinks comparing positions against it must tolerate that.
      :meth:`finish` sets the final count and emits one closing
      ``on_boundary`` at it, which built-in sinks deduplicate.
    * The reference universe grows with the stream: events may only
      address reference ids that already exist (original nodes plus
      attaches applied *so far*).  An id that the offline engine would
      resolve against a later attach (and drop) is rejected here with
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
        validate_strategy(strategy)
        self.strategy = strategy
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.chunk_size = _check_chunk_size(chunk_size)
        self.position = 0
        self.n_events = -1  # unknown until finish()
        self.served = 0
        self.dropped = 0
        self.outcomes: List[MutationOutcome] = []
        self._base_n = strategy.network.n_nodes
        # the network after every mutation queued so far
        self._network = strategy.network
        # identity until the first mutation; then the growable
        # reference-id -> current-node mapping (one fresh id per attach),
        # also after every queued mutation
        self._current_of_ref: Optional[np.ndarray] = None
        self._pending_outcomes: List[MutationOutcome] = []
        self._validated: Optional[RequestSequence] = None
        self._intervals = sorted(
            {sink.interval for sink in self.sinks if sink.interval}
        )
        self._finished = False
        for sink in self.sinks:
            sink.on_begin(self)

    @property
    def account(self):
        """The strategy's cost account (live view)."""
        return self.strategy.account

    @property
    def n_refs(self) -> int:
        """Size of the current reference-id universe."""
        if self._current_of_ref is None:
            return self._base_n
        return len(self._current_of_ref)

    def _check_open(self) -> None:
        if self._finished:
            raise SimulationError("stream is finished; no further feeding")

    def validate(self, events) -> RequestSequence:
        """Check one micro-batch against the stream as it will serve it.

        ``events`` is an iterable of
        :class:`~repro.dynamic.sequence.RequestEvent` or a prebuilt
        :class:`~repro.dynamic.sequence.RequestSequence`.  The checks run
        against the network and reference universe left by every queued
        mutation: object range, reference-id range, and that no reference
        resolves to a bus node.  Returns the batch as a sequence; passing
        that sequence to the next :meth:`serve` does not check it again.
        """
        self._check_open()
        if isinstance(events, RequestSequence):
            batch = events
        else:
            events = list(events)
            n_objects = getattr(self.strategy, "n_objects", None)
            if n_objects is None:
                n_objects = 1 + max((ev.obj for ev in events), default=-1)
            batch = RequestSequence(events, n_objects)
        n_objects = getattr(self.strategy, "n_objects", None)
        if n_objects is not None and batch.n_objects > n_objects:
            raise WorkloadError(
                "sequence references more objects than the strategy was built for"
            )
        _check_refs(
            batch.as_arrays()[0],
            self.n_refs,
            self._current_of_ref,
            self._network.node_kinds,
        )
        self._validated = batch
        return batch

    def _cuts(self, start: int, stop: int) -> List[int]:
        """Offline span-grid positions falling strictly inside (start, stop)."""
        cuts = set()
        grids = list(self._intervals)
        if self.chunk_size is not None:
            grids.append(self.chunk_size)
        for grid in grids:
            first = (start // grid + 1) * grid
            cuts.update(range(first, stop, grid))
        return sorted(cuts)

    def serve(self, events) -> Tuple[int, int]:
        """Serve one micro-batch now; returns its ``(served, dropped)`` split.

        ``events`` is anything :meth:`validate` accepts.  The batch is
        validated atomically (unless it is the sequence the last
        :meth:`validate` returned), re-cut at the offline span grid, and
        each sub-span goes through the same chunk fast path as the offline
        engine.  Events from departed reference ids are dropped (counted,
        not served), exactly as offline.
        """
        self._check_open()
        batch = events if events is self._validated else self.validate(events)
        self._validated = None
        self._flush_mutations()
        n = len(batch)
        if n == 0:
            return 0, 0
        start = self.position
        stop = start + n
        strategy = self.strategy
        batch_served = batch_dropped = 0
        edges = [start, *self._cuts(start, stop), stop]
        for a, b in zip(edges, edges[1:]):
            la, lb = a - start, b - start
            if self._current_of_ref is None:
                strategy.serve_chunk(batch, la, lb)
                served, dropped = b - a, 0
            else:
                sub, sub_start, sub_stop, served, dropped = _remap_span(
                    batch, la, lb, self._current_of_ref, self.n_refs
                )
                if sub is not None and sub_stop > sub_start:
                    strategy.serve_chunk(sub, sub_start, sub_stop)
            self.position = b
            self.served += served
            self.dropped += dropped
            batch_served += served
            batch_dropped += dropped
            for sink in self.sinks:
                sink.on_span(self, a, b, served, dropped)
                sink.on_boundary(self, b)
        return batch_served, batch_dropped

    def mutate(self, mutation) -> None:
        """Schedule one churn mutation at the current stream position.

        The mutation's outcome is computed now, against the network left
        by the mutations queued before it, so one that cannot apply raises
        :class:`~repro.errors.MutationError` here and leaves the stream
        untouched.  The reference universe follows it at once (later
        batches validate against it).

        The strategy sees the outcomes *lazily*: the queue is flushed
        immediately before the next served event (or, for trailing
        mutations, after the closing boundary of :meth:`finish`).  This is
        exactly the offline timeline contract -- a mutation at time ``t``
        lands before the event at position ``t``, and mutations at or past
        the final position land after the final serve span, so the forced
        final trajectory sample precedes them.
        """
        self._check_open()
        outcome = apply_mutation(self._network, mutation)
        self._network = outcome.network
        self._validated = None
        if self._current_of_ref is None:
            self._current_of_ref = np.arange(self._base_n, dtype=np.int64)
        alive = self._current_of_ref >= 0
        self._current_of_ref[alive] = outcome.node_map[self._current_of_ref[alive]]
        if isinstance(mutation, AttachLeaf):
            self._current_of_ref = np.append(
                self._current_of_ref, np.int64(outcome.new_node)
            )
        self._pending_outcomes.append(outcome)

    def _flush_mutations(self) -> None:
        """Carry the strategy over every queued outcome, in arrival order."""
        pending, self._pending_outcomes = self._pending_outcomes, []
        for outcome in pending:
            self.strategy.apply_mutation(outcome)
            self.outcomes.append(outcome)
            for sink in self.sinks:
                sink.on_mutation(self, outcome)

    def finish(self) -> SimulationResult:
        """Seal the stream and return the offline-shaped result."""
        self._check_open()
        self._finished = True
        self.n_events = self.position
        for sink in self.sinks:
            sink.on_boundary(self, self.position)
        self._flush_mutations()
        for sink in self.sinks:
            sink.on_end(self)
        return SimulationResult(
            strategy=self.strategy,
            account=self.strategy.account,
            network=self.strategy.network,
            n_events=self.n_events,
            served=self.served,
            dropped=self.dropped,
            outcomes=self.outcomes,
            sinks=self.sinks,
        )


class RoundReplayDriver:
    """Round-mode kernel: charge delivery rounds into a load state.

    Used by the store-and-forward request replay: the scheduler decides
    *which* traversals complete each round, the driver owns the substrate
    charging and the per-round sink notifications (cumulative congestion,
    delivery counts).
    """

    def __init__(self, state, sinks: Sequence[MetricsSink] = ()) -> None:
        self.state = state
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.n_rounds = 0

    def run(self, rounds) -> int:
        """Apply every round batch in order; returns the round count."""
        for sink in self.sinks:
            sink.on_begin(self)
        for edge_ids in rounds:
            ids = np.asarray(edge_ids, dtype=np.int64)
            self.state.apply_edges(ids)
            index = self.n_rounds
            self.n_rounds += 1
            for sink in self.sinks:
                sink.on_round(self, index, ids.size)
        for sink in self.sinks:
            sink.on_end(self)
        return self.n_rounds
