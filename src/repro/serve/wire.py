"""The JSON-lines wire format of the streaming placement service.

One connection carries one session.  Every message is a single JSON
object on its own ``\\n``-terminated line (UTF-8); docs/SERVING.md is the
narrative description.  Client messages:

``{"type": "requests", "id": n, "events": [[proc, obj, "r"|"w"], ...]}``
    A batch of request events, in issue order.  ``id`` is a client-chosen
    monotonically increasing integer used for ack matching.  A row is
    exactly two int64 ids and a kind code (``"r"``, ``"w"``, ``"read"``
    or ``"write"``); a message with any other row is rejected whole.
``{"type": "mutation", "id": n, "op": {...}}``
    One churn mutation, scheduled at the current stream position (i.e.
    before the next request event).  ``op`` is the mutation encoding of
    :func:`mutation_to_dict`.
``{"type": "flush", "id": n}``
    Force the engine to drain everything ingested so far and ack.
``{"type": "end", "id": n}``
    Seal the stream; the server replies with the final summary.
``{"type": "resume", "token": t}``
    Only valid as the *first* client message: abandon the fresh session
    and continue session ``t`` from its journal instead.  The server
    replays the healed journal through the engine stream and answers
    ``resumed`` with the durable watermark (or the recorded ``end``
    summary when the journal turns out to be sealed).

Server messages:

``{"type": "session", ...}``
    Sent once on connect: scenario/strategy identity, universe sizes,
    the engine batching parameters, plus the session ``token`` (the
    journal name, usable in ``resume`` after a lost connection) and
    ``journal`` (whether the server records sessions at all).
``{"type": "resumed", "token": t, "position": p, "n_mutations": m}``
    Reply to ``resume``: the journal replayed cleanly and the session
    continues after ``p`` request events and ``m`` mutations.  The
    client rewinds both cursors and re-sends only unacked items.
``{"type": "ack", "id": n, "position": p, "served": s, "dropped": d,
"congestion": c, "total_load": t}``
    Covers every client message with id <= ``n``.  The engine
    micro-batches ingestion, so one ack may cover several ``requests``
    messages; the metrics are the live sink reads after serving them.
``{"type": "end", "summary": {...}}``
    The canonical result record of the sealed stream (see
    :func:`repro.serve.batcher.result_record`).
``{"type": "error", "message": ..., "code": ..., "retry_after": ...}``
    Protocol or workload error; the connection closes after this.
    ``code`` (optional) makes degradation structured: ``overloaded`` and
    ``draining`` carry a ``retry_after`` hint in seconds and mean "come
    back later", ``watchdog`` means the engine-pass deadline fired,
    ``unknown-token``/``no-journal`` reject a ``resume``.

The mutation encoding covers the closed mutation set of
:mod:`repro.network.mutation`; :func:`mutation_from_dict` is its exact
inverse and rejects unknown kinds, so a recorded stream replays only
mutations the offline engine understands.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.dynamic.sequence import READ, WRITE, Columns, RequestEvent
from repro.errors import SimulationError
from repro.network.mutation import (
    AttachLeaf,
    DetachLeaf,
    Mutation,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
)

__all__ = [
    "WIRE_FORMAT",
    "encode_message",
    "decode_message",
    "encode_events",
    "decode_events",
    "mutation_to_dict",
    "mutation_from_dict",
]

WIRE_FORMAT = "repro.serve/v1"

_KIND_CODE = {READ: "r", WRITE: "w"}
_IS_WRITE = {"r": False, "w": True, READ: False, WRITE: True}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def encode_message(message: Mapping) -> bytes:
    """One wire line: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict:
    """Inverse of :func:`encode_message` (raises on non-object payloads)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SimulationError(f"malformed wire line {line!r}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise SimulationError("wire messages must be JSON objects with a 'type'")
    return message


def encode_events(events: Sequence[RequestEvent]) -> List[List]:
    """Events -> the compact ``[proc, obj, "r"|"w"]`` triple list."""
    return [[ev.processor, ev.obj, _KIND_CODE[ev.kind]] for ev in events]


def _row_ok(row) -> bool:
    """One row is ``[int, int, code]``: int64 ids (``bool`` is not an id)."""
    return (
        type(row) is list
        and len(row) == 3
        and type(row[0]) is int
        and type(row[1]) is int
        and _INT64_MIN <= row[0] <= _INT64_MAX
        and _INT64_MIN <= row[1] <= _INT64_MAX
        and type(row[2]) is str
        and row[2] in _IS_WRITE
    )


def decode_events(rows: Sequence) -> Columns:
    """``[proc, obj, code]`` rows -> the columns ``(procs, objs, is_write)``.

    Strict: a row is two ints in int64 range (``bool`` does not count)
    and one of ``"r"``, ``"w"``, ``"read"``, ``"write"``.  Anything else
    raises :class:`~repro.errors.SimulationError` naming the first bad
    row, before any column is returned.
    """
    if type(rows) is not list:
        raise SimulationError(f"event rows must be a list, got {rows!r}")
    n = len(rows)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
    try:
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {3}:
            raise ValueError
        flat = list(chain.from_iterable(rows))
        procs, objs, codes = flat[0::3], flat[1::3], flat[2::3]
        if set(map(type, procs)) != {int} or set(map(type, objs)) != {int}:
            raise ValueError
        columns = (
            np.array(procs, dtype=np.int64),
            np.array(objs, dtype=np.int64),
            np.fromiter(map(_IS_WRITE.__getitem__, codes), bool, n),
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        bad = next(row for row in rows if not _row_ok(row))
        raise SimulationError(f"malformed event row {bad!r}") from None
    return columns


# --------------------------------------------------------------------------- #
# mutation serialisation (closed set)
# --------------------------------------------------------------------------- #
def mutation_to_dict(mutation: Mutation) -> Dict:
    """Plain-JSON encoding of one mutation of the closed set."""
    if isinstance(mutation, SetEdgeBandwidth):
        return {
            "kind": "set-edge-bandwidth",
            "u": mutation.u,
            "v": mutation.v,
            "bandwidth": mutation.bandwidth,
        }
    if isinstance(mutation, SetBusBandwidth):
        return {
            "kind": "set-bus-bandwidth",
            "bus": mutation.bus,
            "bandwidth": mutation.bandwidth,
        }
    if isinstance(mutation, AttachLeaf):
        return {
            "kind": "attach-leaf",
            "bus": mutation.bus,
            "name": mutation.name,
            "bandwidth": mutation.bandwidth,
        }
    if isinstance(mutation, DetachLeaf):
        return {"kind": "detach-leaf", "processor": mutation.processor}
    if isinstance(mutation, SplitBus):
        return {
            "kind": "split-bus",
            "bus": mutation.bus,
            "moved": list(mutation.moved),
            "name": mutation.name,
            "bus_bandwidth": mutation.bus_bandwidth,
            "trunk_bandwidth": mutation.trunk_bandwidth,
        }
    raise SimulationError(f"cannot serialise mutation {type(mutation).__name__}")


def mutation_from_dict(document: Mapping) -> Mutation:
    """Exact inverse of :func:`mutation_to_dict`."""
    try:
        kind = document["kind"]
        if kind == "set-edge-bandwidth":
            return SetEdgeBandwidth(
                int(document["u"]),
                int(document["v"]),
                float(document["bandwidth"]),
            )
        if kind == "set-bus-bandwidth":
            return SetBusBandwidth(
                int(document["bus"]), float(document["bandwidth"])
            )
        if kind == "attach-leaf":
            name = document.get("name")
            return AttachLeaf(
                int(document["bus"]),
                name=str(name) if name is not None else None,
                bandwidth=float(document.get("bandwidth", 1.0)),
            )
        if kind == "detach-leaf":
            return DetachLeaf(int(document["processor"]))
        if kind == "split-bus":
            name = document.get("name")
            return SplitBus(
                int(document["bus"]),
                moved=tuple(int(x) for x in document["moved"]),
                name=str(name) if name is not None else None,
                bus_bandwidth=float(document.get("bus_bandwidth", 1.0)),
                trunk_bandwidth=float(document.get("trunk_bandwidth", 1.0)),
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SimulationError(f"malformed mutation document {document!r}") from exc
    raise SimulationError(f"unknown mutation kind {document.get('kind')!r}")
