"""Wire-format tests: encoding round-trips and loud failure on junk."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic.sequence import READ, WRITE, RequestEvent, RequestSequence
from repro.errors import SimulationError
from repro.network.mutation import (
    AttachLeaf,
    DetachLeaf,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
)
from repro.serve.wire import (
    decode_events,
    decode_message,
    encode_events,
    encode_message,
    mutation_from_dict,
    mutation_to_dict,
)

MUTATIONS = [
    SetEdgeBandwidth(2, 5, 0.25),
    SetBusBandwidth(1, 4.0),
    AttachLeaf(0),
    AttachLeaf(3, name="p99", bandwidth=2.5),
    DetachLeaf(7),
    SplitBus(2, moved=(4, 5, 6)),
    SplitBus(1, moved=(9,), name="annex", bus_bandwidth=0.5, trunk_bandwidth=3.0),
]


class TestMutationSerialisation:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: type(m).__name__)
    def test_roundtrip_is_exact(self, mutation):
        assert mutation_from_dict(mutation_to_dict(mutation)) == mutation

    @pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: type(m).__name__)
    def test_encoding_is_json_stable(self, mutation):
        import json

        document = mutation_to_dict(mutation)
        assert mutation_from_dict(json.loads(json.dumps(document))) == mutation

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SimulationError, match="unknown mutation kind"):
            mutation_from_dict({"kind": "reverse-the-polarity"})

    def test_malformed_document_is_rejected(self):
        with pytest.raises(SimulationError, match="malformed mutation"):
            mutation_from_dict({"kind": "detach-leaf"})  # missing processor

    @pytest.mark.parametrize(
        "document",
        [
            {"kind": "detach-leaf", "processor": 3.9},
            {"kind": "detach-leaf", "processor": True},
            {"kind": "set-bus-bandwidth", "bus": "2", "bandwidth": "1.5"},
            {"kind": "split-bus", "bus": 1, "moved": "34"},
            {"kind": "set-bus-bandwidth", "bus": 2, "bandwidth": True},
            {"kind": "set-edge-bandwidth", "u": 1, "v": 2**63, "bandwidth": 1.0},
            {"kind": "attach-leaf", "bus": 1, "name": 7},
            {"kind": "split-bus", "bus": 1, "moved": [3, False]},
            {"kind": "set-bus-bandwidth", "bus": 2, "bandwidth": float("inf")},
            {"kind": "attach-leaf", "bus": 1, "bandwidth": 10**400},
        ],
    )
    def test_documents_are_decoded_as_strictly_as_event_rows(self, document):
        """Node ids and ``moved`` entries are int64 JSON integers (not
        ``bool``), bandwidths are finite numbers and names are strings:
        nothing is coerced by ``int()``, ``float()`` or ``str()``."""
        with pytest.raises(SimulationError, match="malformed mutation"):
            mutation_from_dict(document)


class TestEventEncoding:
    def test_roundtrip(self):
        events = [
            RequestEvent(0, 3, READ),
            RequestEvent(5, 0, WRITE),
            RequestEvent(2, 2, READ),
        ]
        decoded = decode_events(encode_events(events))
        assert RequestSequence.from_columns(*decoded, 4).events == tuple(events)

    def test_long_kind_names_also_decode(self):
        procs, objs, writes = decode_events([[1, 2, "read"], [3, 4, "write"]])
        assert procs.tolist() == [1, 3] and procs.dtype == np.int64
        assert objs.tolist() == [2, 4] and objs.dtype == np.int64
        assert writes.tolist() == [False, True] and writes.dtype == bool

    def test_malformed_rows_are_loud(self):
        with pytest.raises(SimulationError, match="malformed event row"):
            decode_events([[1, 2, "x"]])
        with pytest.raises(SimulationError, match="malformed event row"):
            decode_events([[1, 2]])


class TestMessageFraming:
    def test_roundtrip(self):
        message = {"type": "flush", "id": 7}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message

    def test_requests_roundtrip_to_their_columns(self):
        rows = [[0, 1, "r"], [5, 2, "w"]]
        decoded = decode_message(encode_message({"type": "requests", "id": 7, "events": rows}))
        procs, objs, writes = decoded.pop("events")
        assert decoded == {"type": "requests", "id": 7}
        assert (procs.tolist(), objs.tolist(), writes.tolist()) == ([0, 5], [1, 2], [False, True])
        assert (procs.dtype, objs.dtype, writes.dtype) == (np.int64, np.int64, bool)

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(SimulationError):
            decode_message(b"[1,2,3]\n")

    def test_junk_bytes_are_rejected(self):
        with pytest.raises(SimulationError, match="malformed wire line"):
            decode_message(b"{nope\n")

    def test_missing_type_is_rejected(self):
        with pytest.raises(SimulationError):
            decode_message(b'{"id": 4}\n')
