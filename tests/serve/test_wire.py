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
        message = {"type": "requests", "id": 7, "events": [[0, 1, "r"]]}
        line = encode_message(message)
        assert line.endswith(b"\n")
        assert decode_message(line) == message

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(SimulationError):
            decode_message(b"[1,2,3]\n")

    def test_junk_bytes_are_rejected(self):
        with pytest.raises(SimulationError, match="malformed wire line"):
            decode_message(b"{nope\n")

    def test_missing_type_is_rejected(self):
        with pytest.raises(SimulationError):
            decode_message(b'{"id": 4}\n')
