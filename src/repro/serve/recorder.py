"""Stream recordings: the durable journal of every served stream.

A recording is a JSON-lines file (``repro.stream-recording/v2``):

* line 1 -- the header: the full scenario spec, the served strategy
  label, the engine ``chunk_size`` and the object-universe size.  That is
  everything needed to rebuild the identical session offline.
* one line per ingested item, in arrival order:
  ``{"events": {"procs": [...], "objs": [...], "writes": [...]}}`` for a
  served micro-batch (its columns; ``writes`` lists the positions of the
  write requests), ``{"mutation": {...}, "time": t}`` for a churn
  mutation (``t`` is the number of request events ingested before it --
  exactly the :class:`~repro.network.mutation.ChurnTrace` time contract).
* the footer: ``{"summary": {...}}`` with the canonical result record of
  the served stream (or ``{"aborted": reason}`` for a stream that died).

``repro.stream-recording/v1`` files are still read: their events items
hold ``[proc, obj, "r"|"w"]`` rows, decoded by the wire's row decoder.
The loader reads each events item by its shape, so a v1 journal that a
newer server resumed (v1 rows, then appended v2 columns) replays too.

**Write-ahead journal.**  The recorder writes every item after the
engine has validated it and *before* the engine serves it, and (in
``sync`` mode) fsyncs each line, so the position a client saw acked is
always covered by durable journal bytes -- the acked-event watermark.
The journal never holds an item the engine rejected, so every journal
replays and resumes.  A crash mid-write leaves at worst one
*torn trailing line*; :func:`heal_journal` truncates it (and any
``aborted`` footer) back to the last durable item, and
:func:`load_recording` skips a torn tail with a warning instead of
refusing the whole file.  Crash-safe sessions rebuild from exactly this
healed prefix (ARCHITECTURE invariant 11: recovered equals
uninterrupted).

:func:`replay_recording` is the offline half of ARCHITECTURE invariant
10: it rebuilds the session from the header, replays the recorded
sequence and churn trace through the *offline*
:class:`~repro.sim.engine.SimulationEngine`, and returns the replayed
record next to the recorded served one.  For any completed stream the
two are bit-for-bit equal.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.core.kernels import events_item
from repro.dynamic.sequence import Columns, RequestSequence
from repro.errors import SimulationError
from repro.network.mutation import ChurnTrace, Mutation
from repro.serve.wire import (
    NonFiniteNumber,
    decode_events,
    int64_column,
    is_int64,
    loads_finite,
    mutation_from_dict,
)

__all__ = [
    "RECORDING_FORMAT",
    "StreamRecorder",
    "JournalHeal",
    "heal_journal",
    "load_recording",
    "replay_recording",
]

RECORDING_FORMAT = "repro.stream-recording/v2"
# every format the loader reads; v1 stores events as wire rows
READABLE_FORMATS = ("repro.stream-recording/v1", RECORDING_FORMAT)


class StreamRecorder:
    """Append-only JSONL journal for one served stream.

    The file is created lazily on the first write, so a session that is
    abandoned before recording anything (e.g. a connection that turns out
    to be a *resume* of an older session) leaves no file behind.

    Parameters
    ----------
    sync:
        When True, every line is fsynced to disk before the write
        returns -- the write-ahead-journal mode of crash-safe serving
        (acks only cover events whose journal bytes are durable).
    append:
        Open an *existing* journal for continuation (session resume).
        The header is already on disk, so :meth:`write_header` refuses.
    """

    def __init__(self, path, sync: bool = False, append: bool = False) -> None:
        self.path = Path(path)
        self.sync = bool(sync)
        self._append = bool(append)
        if append and not self.path.exists():
            raise SimulationError(
                f"cannot append to missing journal {self.path}"
            )
        self._fh = None
        self._closed = False
        self._pending_header: Optional[Dict] = None

    @property
    def opened(self) -> bool:
        """True once the journal file has been created/opened."""
        return self._fh is not None

    def _handle(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab" if self._append else "wb")
        return self._fh

    def _emit(self, line: bytes) -> None:
        fh = self._handle()
        fault = faults.fault_point("recorder.write")
        if fault is not None and fault.kind == "torn-write":
            # persist only a prefix, then die: the torn-trailing-line
            # scenario heal_journal exists for
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            faults.raise_fault(fault)
        if fault is not None:
            faults.raise_fault(fault)
        fh.write(line)
        fh.flush()
        if self.sync:
            os.fsync(fh.fileno())

    def _write(self, line: bytes) -> None:
        if self._closed:
            raise SimulationError(f"recording {self.path} is already closed")
        if self._pending_header is not None:
            header, self._pending_header = self._pending_header, None
            self._emit(_json_line(header))
        self._emit(line)

    def write_header(
        self,
        spec: Dict,
        strategy: str,
        chunk_size: Optional[int],
        n_objects: int,
    ) -> None:
        """Stage the header line: everything needed to rebuild the session.

        The header is *deferred*: it hits the disk immediately before the
        first recorded item (or footer), so a session that never records
        anything -- e.g. a connection that turns out to be a resume of an
        older session -- leaves no file at all.
        """
        if self._append:
            raise SimulationError(
                f"journal {self.path} opened for append already has a header"
            )
        self._pending_header = {
            "format": RECORDING_FORMAT,
            "spec": spec,
            "strategy": strategy,
            "chunk_size": chunk_size,
            "n_objects": int(n_objects),
        }

    def record_events(self, batch: RequestSequence) -> None:
        """One validated micro-batch, in arrival order, as its columns
        (:func:`~repro.core.kernels.events_item`)."""
        self._write(events_item(*batch.as_arrays()))

    def record_mutation(self, op: Dict, time: int) -> None:
        """One churn mutation at stream position ``time``."""
        self._write(_json_line({"mutation": dict(op), "time": int(time)}))

    def close(self, summary: Dict) -> None:
        """The footer of a completed stream."""
        self._write(_json_line({"summary": summary}))
        self._closed = True
        if self._fh is not None:
            self._fh.close()

    def abort(self, reason: str) -> None:
        """The footer of a stream that died mid-flight."""
        if not self._closed:
            self._write(_json_line({"aborted": str(reason)}))
            self._closed = True
            if self._fh is not None:
                self._fh.close()

    def crash(self) -> None:
        """Simulate abrupt death: drop the handle, write no footer.

        The fault plane uses this so an injected crash leaves the journal
        exactly as a killed process would -- possibly mid-line -- which is
        what the resume path must recover from.
        """
        self._closed = True
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass


def _json_line(document: Dict) -> bytes:
    """One journal line: compact JSON plus the newline."""
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


def _check_format(path, header: Dict) -> None:
    if header.get("format") not in READABLE_FORMATS:
        raise SimulationError(
            f"{path} is not a {RECORDING_FORMAT} recording "
            f"(format: {header.get('format')!r})"
        )


def _item_columns(item: Dict) -> Columns:
    """The columns of one events item: v2 columns or v1 wire rows.

    Both are held to the wire's rule: every column is a list of JSON
    integers in int64 (:func:`~repro.serve.wire.int64_column`), and the
    write positions are strictly increasing and inside the item.
    """
    payload = item["events"]
    if isinstance(payload, list):
        return decode_events(payload)
    try:
        procs = int64_column(payload["procs"])
        objs = int64_column(payload["objs"])
        at = int64_column(payload["writes"])
        if len(procs) != len(objs):
            raise ValueError("columns of unequal length")
        if at.size and (at[0] < 0 or at[-1] >= len(procs) or (np.diff(at) <= 0).any()):
            raise ValueError("write positions not increasing inside the item")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"malformed recording events item {item!r}") from exc
    writes = np.zeros(len(procs), dtype=bool)
    writes[at] = True
    return procs, objs, writes


# --------------------------------------------------------------------------- #
# journal healing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class JournalHeal:
    """What :func:`heal_journal` found (and repaired) in one journal."""

    n_events: int
    n_mutations: int
    truncated_torn_line: bool
    dropped_aborted_footer: bool
    sealed: bool  # a summary footer is present: the stream completed

    @property
    def repaired(self) -> bool:
        return self.truncated_torn_line or self.dropped_aborted_footer


def _parse_lines(data: bytes) -> Tuple[List[Dict], List[int], Optional[bytes]]:
    """Split journal bytes into parsed item lines plus an optional torn tail.

    ``ends[i]`` is the byte offset just past item ``i``'s newline, so
    ``data[:ends[i]]`` is the journal up to that item.  A line is *torn*
    when it is the final line and either fails to parse or is not
    newline-terminated (the write may have been cut after the payload but
    before the terminator).  A malformed line anywhere else is
    corruption, not a crash artefact, and raises; so does a complete
    line holding ``NaN`` or ``±Infinity``, which no write ever cut short
    into.
    """
    items: List[Dict] = []
    ends: List[int] = []
    raw_lines = data.split(b"\n")
    terminated = data.endswith(b"\n")
    if terminated:
        raw_lines = raw_lines[:-1]  # the split artefact after the final \n
    end = 0
    for index, line in enumerate(raw_lines):
        last = index == len(raw_lines) - 1
        try:
            item = loads_finite(line)
            if not isinstance(item, dict):
                raise ValueError("journal lines must be JSON objects")
        except ValueError as exc:
            if last and not (terminated and isinstance(exc, NonFiniteNumber)):
                return items, ends, line
            raise SimulationError(
                f"corrupt journal line {index + 1}: {line!r}"
            ) from exc
        if last and not terminated:
            # parses, but the newline never made it to disk: the write
            # was not durably complete, so treat it as torn
            return items, ends, line
        items.append(item)
        end += len(line) + 1
        ends.append(end)
    return items, ends, None


def heal_journal(path) -> JournalHeal:
    """Repair a journal in place back to its last durable item.

    Drops a torn trailing line (crash mid-write) and a trailing
    ``aborted`` footer (a *graceful* abort is not a seal -- the session it
    marks can still be resumed) by truncating the file where the last
    kept item ends.  The kept bytes are never rewritten, so an
    interrupted heal still leaves the durable prefix on disk.  Raises
    when the file is missing, not a recording, or corrupt beyond a
    trailing-line tear, and then leaves the file as it is.
    """
    path = Path(path)
    if not path.exists():
        raise SimulationError(f"no journal at {path}")
    items, ends, torn = _parse_lines(path.read_bytes())
    if not items:
        raise SimulationError(f"journal {path} has no intact header line")
    _check_format(path, items[0])
    dropped_aborted = len(items) > 1 and "aborted" in items[-1]
    if dropped_aborted:
        items.pop()
        ends.pop()
    n_events = sum(len(_item_columns(item)[0]) for item in items if "events" in item)
    n_mutations = sum(1 for item in items if "mutation" in item)
    if torn is not None or dropped_aborted:
        with open(path, "r+b") as fh:
            fh.truncate(ends[-1])
            os.fsync(fh.fileno())
    return JournalHeal(
        n_events=n_events,
        n_mutations=n_mutations,
        truncated_torn_line=torn is not None,
        dropped_aborted_footer=dropped_aborted,
        sealed=any("summary" in item for item in items),
    )


# --------------------------------------------------------------------------- #
# loading and offline replay
# --------------------------------------------------------------------------- #
class Recording:
    """One parsed recording (header, items, optional footer)."""

    def __init__(
        self,
        header: Dict,
        events: RequestSequence,
        mutations: List[Tuple[int, Mutation]],
        summary: Optional[Dict],
        aborted: Optional[str],
    ) -> None:
        self.header = header
        self.events = events
        self.mutations = mutations
        self.summary = summary
        self.aborted = aborted

    @property
    def complete(self) -> bool:
        """True when the stream was sealed and its summary recorded."""
        return self.summary is not None and self.aborted is None

    def trace(self) -> Optional[ChurnTrace]:
        """The recorded churn trace (``None`` when no mutation arrived)."""
        return ChurnTrace(self.mutations) if self.mutations else None


def load_recording(path) -> Recording:
    """Parse one recording file (loud on malformed or wrong-format files).

    A *torn trailing line* -- the footprint of a crash mid-write -- is
    skipped with a warning rather than failing the whole recording: the
    intact prefix is exactly the durable journal, which is what crash
    recovery replays.  Corruption anywhere else still raises.
    """
    items, _ends, torn = _parse_lines(Path(path).read_bytes())
    if torn is not None:
        warnings.warn(
            f"recording {path} ends in a torn line (crash mid-write); "
            f"ignoring the {len(torn)}-byte tail",
            stacklevel=2,
        )
    if not items:
        raise SimulationError(f"recording {path} is empty")
    header = items[0]
    _check_format(path, header)
    if not is_int64(header.get("n_objects")):
        raise SimulationError(
            f"recording {path} header has a malformed n_objects "
            f"{header.get('n_objects')!r}"
        )
    chunks: List[Columns] = []
    mutations: List[Tuple[int, Mutation]] = []
    summary: Optional[Dict] = None
    aborted: Optional[str] = None
    n_events = 0
    for item in items[1:]:
        if "events" in item:
            chunks.append(_item_columns(item))
            n_events += len(chunks[-1][0])
        elif "mutation" in item:
            # write-ahead order: a mutation is journaled at the number of
            # events journaled before it
            time = item.get("time")
            if not (is_int64(time) and time == n_events):
                raise SimulationError(
                    f"recording {path} mutation item {item!r} is not at time "
                    f"{n_events}, the number of events before it"
                )
            mutations.append((time, mutation_from_dict(item["mutation"])))
        elif "summary" in item:
            summary = item["summary"]
        elif "aborted" in item:
            aborted = item["aborted"]
        else:
            raise SimulationError(f"unknown recording item {item!r}")
    columns = [np.concatenate(column) for column in zip(*chunks)] or ([], [], [])
    events = RequestSequence.from_columns(*columns, header["n_objects"])
    return Recording(header, events, mutations, summary, aborted)


def replay_recording(path) -> Tuple[Dict, Optional[Dict]]:
    """Re-run one recorded stream offline; returns ``(replayed, served)``.

    The session is rebuilt exactly as the server built it (same spec,
    same strategy factory, same sink construction, same ``chunk_size``),
    the recorded sequence and churn trace go through the offline
    :class:`~repro.sim.engine.SimulationEngine`, and the replayed
    canonical record is returned next to the served one from the footer
    (``None`` for a partial recording).  Invariant 10 says the two are
    equal for any completed stream.
    """
    from repro.serve.batcher import result_record
    from repro.sim.engine import SimulationEngine
    from repro.sim.scenario import ScenarioSpec, build_scenario

    recording = load_recording(path)
    spec = ScenarioSpec.from_dict(recording.header["spec"])
    built = build_scenario(spec)[0]
    wanted = recording.header["strategy"]
    factories = dict(built.strategies)
    if wanted not in factories:
        raise SimulationError(
            f"recording {path} wants strategy {wanted!r}, spec has "
            f"{sorted(factories)}"
        )
    engine = SimulationEngine(
        factories[wanted](),
        sinks=built.make_sinks(),
        chunk_size=recording.header.get("chunk_size"),
    )
    result = engine.run(recording.events, recording.trace())
    return result_record(result), recording.summary
