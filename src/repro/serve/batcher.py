"""Serve sessions and the micro-batcher feeding the engine stream.

:class:`ServeSession` is the synchronous core of one served stream: it
owns a fresh strategy, its sink set and an
:class:`~repro.sim.engine.EngineStream`, records every ingested item
through an optional :class:`~repro.serve.recorder.StreamRecorder`, and
produces the canonical result record on :meth:`ServeSession.finish`.
The asyncio server drives it one micro-batch at a time; tests drive it
directly.

:class:`MicroBatcher` coalesces decoded stream messages into engine
micro-batches: consecutive request batches accumulate until the
configured batch size, and every mutation / flush / end message is a
barrier that drains the buffer first (the ordering contract of the
recorder -- a mutation's time is the number of requests ingested before
it).  Because the engine stream re-cuts every batch at the offline span
grid, the coalescing is invisible in the results (invariant 10); it only
sets the amortisation granularity of the chunk fast path.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.dynamic.sequence import Columns, RequestSequence
from repro.errors import SimulationError
from repro.serve.wire import decode_events, mutation_from_dict
from repro.sim.engine import EngineStream, SimulationResult
from repro.sim.sinks import CostBreakdownSink, MetricsSink, TrajectorySink

__all__ = [
    "ServeSession",
    "MicroBatcher",
    "build_session",
    "resume_session",
    "result_record",
]


def result_record(result: SimulationResult) -> Dict[str, object]:
    """The canonical, JSON-stable record of one completed stream.

    This is the object the differential harness compares bit-for-bit
    between the served stream and its offline replay, so it contains
    exactly the batch-partition-*invariant* outputs: totals, final cost
    breakdown, the sampled trajectory (+ sample positions) and a SHA-256
    of the final load vector.  Span-granular observations (e.g. the
    per-span drop list) depend on how the stream was batched and are
    deliberately absent.
    """
    account = result.account
    record: Dict[str, object] = {
        "n_events": int(result.n_events),
        "served": int(result.served),
        "dropped": int(result.dropped),
        "n_mutations": int(result.n_mutations),
        "congestion": float(result.congestion),
        "total_load": float(account.total_load),
        "service_load": float(account.service_units),
        "management_load": float(account.management_units),
        "n_nodes_final": int(result.network.n_nodes),
        "n_processors_final": int(result.network.n_processors),
    }
    state = getattr(account, "state", None)
    loads = getattr(state, "_loads", None)
    if loads is not None:
        record["loads_sha256"] = hashlib.sha256(loads.tobytes()).hexdigest()
    trajectory = result.sink(TrajectorySink)
    if trajectory is not None:
        record["trajectory"] = [float(x) for x in trajectory.trajectory]
        record["sample_times"] = [int(t) for t in trajectory.sample_times]
    breakdown = result.sink(CostBreakdownSink)
    if breakdown is not None:
        record["breakdown"] = {
            key: float(value) for key, value in sorted(breakdown.breakdown.items())
        }
    return record


class ServeSession:
    """One served stream: strategy + engine stream + recorder.

    Parameters
    ----------
    strategy:
        A freshly built placement strategy (it accumulates the stream's
        loads; reuse across sessions would leak state).
    n_objects:
        The session's object universe; every batch sequence is built over
        it, so batch validation and the offline replay agree exactly.
    sinks / chunk_size:
        As in :class:`~repro.sim.engine.EngineStream`.
    recorder:
        Optional :class:`~repro.serve.recorder.StreamRecorder`; every
        ingested batch and mutation is persisted in arrival order.
    meta:
        Session identity echoed to clients (scenario, strategy label...).
    """

    def __init__(
        self,
        strategy,
        n_objects: int,
        sinks: Sequence[MetricsSink] = (),
        chunk_size: Optional[int] = None,
        recorder=None,
        meta: Optional[Mapping] = None,
    ) -> None:
        self.strategy = strategy
        self.n_objects = int(n_objects)
        self.stream = EngineStream(strategy, sinks=sinks, chunk_size=chunk_size)
        self.recorder = recorder
        self.meta = dict(meta or {})
        self.summary: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    @property
    def position(self) -> int:
        """Number of request events ingested so far."""
        return self.stream.position

    def session_info(self) -> Dict[str, object]:
        """The ``session`` handshake payload."""
        info = {
            "n_nodes": int(self.strategy.network.n_nodes),
            "n_objects": self.n_objects,
            "chunk_size": self.stream.chunk_size,
        }
        info.update(self.meta)
        return info

    def feed(self, events) -> Dict[str, object]:
        """Serve one micro-batch now; returns the live ack payload.

        ``events`` is a :class:`~repro.dynamic.sequence.RequestSequence`
        over the session's object universe or an iterable of
        :class:`~repro.dynamic.sequence.RequestEvent`.  The batch is
        validated whole, then journaled, then served: the journal never
        holds a batch the engine rejects.
        """
        if not isinstance(events, RequestSequence):
            events = RequestSequence(events, self.n_objects)
        batch = self.stream.validate(events)
        if self.recorder is not None:
            self.recorder.record_events(batch)
        served, dropped = self.stream.serve(batch)
        account = self.stream.account
        return {
            "position": self.stream.position,
            "served": served,
            "dropped": dropped,
            "congestion": float(account.congestion),
            "total_load": float(account.total_load),
        }

    def mutate(self, op: Mapping) -> Dict[str, object]:
        """Schedule one churn mutation at the current position.

        A mutation that cannot apply (after the ones already queued)
        raises :class:`~repro.errors.MutationError` before it is journaled
        or acked.
        """
        mutation = mutation_from_dict(op)
        self.stream.mutate(mutation)
        if self.recorder is not None:
            self.recorder.record_mutation(op, time=self.stream.position)
        return {"position": self.stream.position, "scheduled": True}

    def finish(self) -> Dict[str, object]:
        """Seal the stream; returns (and persists) the canonical record."""
        result = self.stream.finish()
        self.summary = result_record(result)
        if self.recorder is not None:
            self.recorder.close(self.summary)
        return self.summary

    def abort(self, reason: str) -> None:
        """Mark a stream that died mid-flight (recording stays partial)."""
        if self.recorder is not None:
            self.recorder.abort(reason)

    def crash(self) -> None:
        """Simulate abrupt death: the journal keeps no footer at all.

        Used by the fault plane so an injected crash leaves exactly the
        on-disk state a killed process would -- the state
        :func:`resume_session` must recover from.
        """
        if self.recorder is not None:
            self.recorder.crash()


class MicroBatcher:
    """Coalesce decoded messages into engine micro-batches.

    ``add(message)`` decodes and buffers request events (as column chunks)
    and returns the list of reply payloads produced by whatever the
    message forced to happen; mutation, flush and end messages are
    barriers that drain the buffer first.  A malformed message raises
    :class:`~repro.errors.SimulationError` before any of its events is
    buffered.  The caller (the server's engine task) decides *when* to
    call :meth:`drain` for opportunistic batching -- typically when its
    inbound queue runs empty.
    """

    def __init__(self, session: ServeSession, max_batch: int = 1024) -> None:
        if max_batch < 1:
            raise SimulationError("max_batch must be a positive integer")
        self.session = session
        self.max_batch = int(max_batch)
        self._chunks: List[Columns] = []
        self._buffered = 0
        self._last_id: Optional[int] = None
        self.finished = False

    @property
    def buffered(self) -> int:
        """Number of events waiting for the next drain."""
        return self._buffered

    def _reply(self, kind: str, payload: Mapping) -> Dict[str, object]:
        reply = {"type": kind}
        if self._last_id is not None:
            reply["id"] = self._last_id
        reply.update(payload)
        return reply

    def _feed(self, count: int) -> Dict[str, object]:
        """Serve the first ``count`` buffered events; returns their ack."""
        chunks = self._chunks
        columns = chunks[0] if len(chunks) == 1 else tuple(map(np.concatenate, zip(*chunks)))
        rest = tuple(column[count:] for column in columns)
        self._chunks = [rest] if len(rest[0]) else []
        self._buffered -= count
        batch = RequestSequence.from_columns(
            *(column[:count] for column in columns), self.session.n_objects
        )
        return self._reply("ack", self.session.feed(batch))

    def drain(self) -> Optional[Dict[str, object]]:
        """Serve the buffered events now (``None`` when nothing waits)."""
        if not self._buffered:
            return None
        return self._feed(self._buffered)

    def add(self, message: Mapping) -> List[Dict[str, object]]:
        """Ingest one decoded message; returns the replies it produced."""
        if self.finished:
            raise SimulationError("stream already ended")
        mtype = message.get("type")
        if "id" in message:
            try:
                self._last_id = int(message["id"])
            except (TypeError, ValueError, OverflowError):
                raise SimulationError(
                    f"message id must be an integer, got {message['id']!r}"
                ) from None
        replies: List[Dict[str, object]] = []
        if mtype == "requests":
            columns = decode_events(message.get("events"))
            if len(columns[0]):
                self._chunks.append(columns)
                self._buffered += len(columns[0])
            while self._buffered >= self.max_batch:
                replies.append(self._feed(self.max_batch))
            if not replies and not self._buffered:
                # an empty message with nothing buffered: no drain will
                # ever ack it, so ack it now at the current position
                replies.append(
                    self._reply("ack", {"position": self.session.position})
                )
        elif mtype == "mutation":
            op = message.get("op")
            if not isinstance(op, Mapping):
                raise SimulationError(f"mutation message needs an 'op' object, got {op!r}")
            drained = self.drain()
            if drained is not None:
                replies.append(drained)
            replies.append(self._reply("ack", self.session.mutate(op)))
        elif mtype == "flush":
            drained = self.drain()
            replies.append(
                drained
                if drained is not None
                else self._reply("ack", {"position": self.session.position})
            )
        elif mtype == "end":
            drained = self.drain()
            if drained is not None:
                replies.append(drained)
            self.finished = True
            replies.append(self._reply("end", {"summary": self.session.finish()}))
        else:
            raise SimulationError(f"unknown message type {mtype!r}")
        return replies


def build_session(
    spec,
    strategy: Optional[str] = None,
    chunk_size: Optional[int] = None,
    recorder=None,
) -> ServeSession:
    """Materialise one fresh :class:`ServeSession` from a scenario spec.

    The spec's network, strategy construction and sink set are reused
    verbatim (one fresh strategy instance per session); the spec's own
    request sequence only parameterises hindsight strategies and the sink
    sample grid -- the *served* events come from the client stream.  The
    recorder header pins ``(spec, strategy, chunk_size)``, so
    :func:`~repro.serve.recorder.replay_recording` rebuilds the identical
    session offline.
    """
    from repro.sim.scenario import build_scenario

    built = build_scenario(spec)[0]
    names = [name for name, _ in built.strategies]
    wanted = strategy if strategy is not None else names[0]
    if wanted not in names:
        raise SimulationError(
            f"spec {spec.name!r} has no strategy {wanted!r} (have {names})"
        )
    factory = dict(built.strategies)[wanted]
    session = ServeSession(
        factory(),
        n_objects=built.sequence.n_objects,
        sinks=built.make_sinks(),
        chunk_size=chunk_size,
        recorder=recorder,
        meta={
            "scenario": built.name,
            "label": built.label,
            "strategy": wanted,
        },
    )
    if recorder is not None:
        recorder.write_header(
            spec=spec.to_dict(),
            strategy=wanted,
            chunk_size=chunk_size,
            n_objects=built.sequence.n_objects,
        )
    return session


def resume_session(path, sync: bool = False):
    """Rebuild a crashed session from its journal; continue appending to it.

    Heals the journal back to its last durable item (truncating a torn
    trailing line, dropping a graceful ``aborted`` footer), rebuilds the
    session exactly as the server originally built it, and replays the
    journal's events and mutations in recorded order through the live
    :class:`~repro.sim.engine.EngineStream`
    (:meth:`~repro.sim.engine.EngineStream.replay`).  Because the stream
    re-cuts every batch at one span grid (invariant 10), the rebuilt
    session is in the *identical* state the crashed one was at the
    watermark -- which is what makes "recovered equals uninterrupted"
    (invariant 11) an exact statement rather than a best effort.

    Returns ``(session, position, n_mutations)``: the live session with
    an append-mode recorder attached, the number of replayed request
    events (the acked-event watermark) and the number of replayed
    mutations -- the two cursors a reconnecting client rewinds to.
    """
    from repro.serve.recorder import StreamRecorder, heal_journal, load_recording
    from repro.sim.scenario import ScenarioSpec

    heal = heal_journal(path)
    if heal.sealed:
        raise SimulationError(
            f"journal {path} is sealed (the stream completed); nothing to resume"
        )
    recording = load_recording(path)
    spec = ScenarioSpec.from_dict(recording.header["spec"])
    session = build_session(
        spec,
        strategy=recording.header["strategy"],
        chunk_size=recording.header.get("chunk_size"),
        recorder=None,
    )
    # a mutation at time t saw exactly t request events before it
    session.stream.replay(recording.events, recording.trace())
    session.recorder = StreamRecorder(path, sync=sync, append=True)
    return session, len(recording.events), len(recording.mutations)
