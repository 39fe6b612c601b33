"""The compiled wire codec equals the JSON path (invariant 9 on the wire).

``repro.serve.wire.decode_message`` decodes a ``requests`` line with the
compiled scan (:func:`repro.core.kernels.scan_requests`) when the line is
in the scan's row grammar, and with ``json.loads`` plus ``decode_events``
otherwise; under the numpy backend the scan declines every line.  So the
pin is on ``decode_message``: under cc it returns exactly what it returns
under numpy, or raises the same ``SimulationError`` text, on

* the drawn cases' events (``tests/fuzz.py``), one line per ragged batch,
  in every member order, compact, spaced and indented, with all four kind
  codes -- and the scan takes every one of those lines;
* byte mutations of those lines;
* JSON documents drawn by hypothesis;
* crafted lines at the edges of the grammar, which the scan takes or
  declines as listed.

The journal's events item (:func:`repro.core.kernels.events_item`) equals
the ``json.dumps`` expression byte for byte on every drawn batch.
"""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.errors import SimulationError
from repro.serve.wire import decode_message

HAVE_CC = "cc" in kernels.available_backends()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
ORDERS = list(itertools.permutations(("type", "id", "events")))
LAYOUTS = (
    {"separators": (",", ":")},
    {"separators": (", ", ": ")},
    {"indent": 1},
)
#: a row's kind code by (row index parity, write flag): all four codes
KIND_CODES = ({False: "r", True: "w"}, {False: "read", True: "write"})


def outcome(line: bytes, backend: str):
    """What ``decode_message`` makes of ``line`` under ``backend``: the
    message with every value tagged by its type (``1 == 1.0 == True``) and
    the columns as ``(dtype, values)``, or the error text."""
    with kernels.use_backend(backend):
        try:
            message = decode_message(line)
        except SimulationError as exc:
            return "error", str(exc)
    tagged = {}
    for key, value in message.items():
        if key == "events" and message["type"] == "requests":
            value = tuple((str(column.dtype), column.tolist()) for column in value)
        tagged[key] = (type(value).__name__, value)
    return "ok", tagged


def assert_same_decode(lines):
    for line in lines:
        assert outcome(line, "cc") == outcome(line, "numpy"), line


def requests_line(message_id, rows, order=ORDERS[0], layout=LAYOUTS[0]) -> bytes:
    message = {"type": "requests", "id": message_id, "events": rows}
    return json.dumps({key: message[key] for key in order}, **layout).encode() + b"\n"


def case_lines(case):
    """One line per ragged batch of the case's events, per member order and
    layout; ids run through the int64 extremes."""
    procs, objs, writes = (column.tolist() for column in case.scenario.sequence.as_arrays())
    lines = []
    position = cursor = 0
    while position < len(procs):
        stop = min(position + case.batches[cursor % len(case.batches)], len(procs))
        rows = [
            [procs[i], objs[i], KIND_CODES[i % 2][writes[i]]] for i in range(position, stop)
        ]
        ident = (cursor, -cursor, INT64_MAX - cursor, INT64_MIN + cursor)[cursor % 4]
        lines += [
            requests_line(ident, rows, order, layout)
            for order in ORDERS
            for layout in LAYOUTS
        ]
        position, cursor = stop, cursor + 1
    return lines


# --------------------------------------------------------------------- #
# the drawn cases
# --------------------------------------------------------------------- #
@needs_cc
def test_scan_takes_every_case_line_and_decodes_it_as_json_does(case):
    lines = case_lines(case)
    with kernels.use_backend("cc"):
        declined = [line for line in lines if kernels.scan_requests(line) is None]
    assert not declined
    assert_same_decode(lines)


_MUTATION_BYTES = b'0123456789-+.eE,:[]{}" \t\r\nrwx\\\x00\xff'


def _mutate(line: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(line))
    edit = rng.randrange(5)
    if edit == 0:  # replace one byte
        return line[:at] + bytes([rng.choice(_MUTATION_BYTES)]) + line[at + 1:]
    if edit == 1:  # insert one byte
        return line[:at] + bytes([rng.choice(_MUTATION_BYTES)]) + line[at:]
    if edit == 2:  # delete one byte
        return line[:at] + line[at + 1:]
    if edit == 3:  # repeat a slice
        stop = rng.randrange(at, len(line) + 1)
        return line[:stop] + line[at:stop] + line[stop:]
    return line[:at]  # cut short


@needs_cc
def test_byte_mutations_decode_alike(case):
    rng = random.Random(case.seed)
    lines = case_lines(case)
    mutated = []
    for _ in range(600):
        line = rng.choice(lines)
        for _ in range(rng.randrange(1, 3)):
            line = _mutate(line, rng) or b"\n"
        mutated.append(line)
    assert_same_decode(mutated)


# --------------------------------------------------------------------- #
# drawn documents
# --------------------------------------------------------------------- #
INTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 10**30]),
)
SCALARS = st.one_of(
    INTS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.sampled_from(["r", "w", "read", "write", "x", "requests", "", "\u0077"]),
)
ROWS = st.lists(
    st.one_of(
        st.tuples(INTS, INTS, st.sampled_from(["r", "w", "read", "write"])).map(list),
        st.lists(SCALARS, max_size=4),
    ),
    max_size=6,
)
DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from(["requests", "requests", "flush", "end", 1]),
        "id": st.one_of(INTS, SCALARS),
        "events": st.one_of(ROWS, ROWS, SCALARS, st.dictionaries(st.text(max_size=3), SCALARS)),
        "note": SCALARS,
    },
)


@needs_cc
@settings(max_examples=400, deadline=None)
@given(document=DOCUMENTS, data=st.data())
def test_drawn_documents_decode_alike(document, data):
    order = data.draw(st.permutations(list(document)))
    layout = data.draw(st.sampled_from(LAYOUTS))
    text = json.dumps({key: document[key] for key in order}, **layout)
    assert_same_decode([text.encode(), text.encode() + b"\n"])


# --------------------------------------------------------------------- #
# the edges of the grammar
# --------------------------------------------------------------------- #
TAKEN = [
    # the loadgen's member order, then perfbench's
    b'{"type":"requests","events":[[3,0,"r"],[4,1,"w"]],"id":1}\n',
    b'{"type":"requests","id":1,"events":[[3,0,"r"],[4,1,"w"]]}\n',
    b'{"type":"requests","id":0,"events":[]}',
    b'{"type":"requests","id":-0,"events":[[-0,0,"read"]]}\n',
    b' \t{ "events" :[ ] ,"id":\r\n5 , "type" : "requests"}\r\n',
    b'{"type":"requests","id":9223372036854775807,"events":'
    b'[[9223372036854775807,-9223372036854775808,"write"]]}\n',
    b'{"type":"requests","id":-9223372036854775808,"events":[[1,2,"w"]]}',
    b'{"id":12,"events":[ [ 1 , 2 , "r" ] , [10,20,"write"] ],"type":"requests"}\n\n',
]
DECLINED = [
    # a leading zero
    b'{"type":"requests","id":07,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[01,2,"r"]]}\n',
    b'{"type":"requests","id":-01,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[1,00,"r"]]}\n',
    # a bare minus
    b'{"type":"requests","id":-,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[-,2,"r"]]}\n',
    b'{"type":"requests","id":--1,"events":[]}\n',
    # beyond int64
    b'{"type":"requests","id":9223372036854775808,"events":[]}\n',
    b'{"type":"requests","id":-9223372036854775809,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[18446744073709551616,2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":[[1,-92233720368547758080,"r"]]}\n',
    b'{"type":"requests","id":100000000000000000000000000000,"events":[]}\n',
    # fractions and exponents
    b'{"type":"requests","id":1e3,"events":[]}\n',
    b'{"type":"requests","id":1E3,"events":[]}\n',
    b'{"type":"requests","id":1.0,"events":[]}\n',
    b'{"type":"requests","id":1.,"events":[]}\n',
    b'{"type":"requests","id":-1e3,"events":[]}\n',
    b'{"type":"requests","id":0e0,"events":[]}\n',
    b'{"type":"requests","id":0.5,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[2e1,2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":[[2,2.0,"r"]]}\n',
    # a duplicate, missing, unknown or escaped member
    b'{"type":"requests","id":1,"events":[[1,2,"r"]],"events":[]}\n',
    b'{"type":"requests","id":1,"id":2,"events":[]}\n',
    b'{"type":"requests","type":"requests","id":1,"events":[]}\n',
    b'{"type":"requests","events":[]}\n',
    b'{"type":"requests","id":1}\n',
    b'{"id":1,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[],"note":0}\n',
    b'{"type":"requests","\\u0069d":1,"events":[]}\n',
    b'{"type":"re\\u0071uests","id":1,"events":[]}\n',
    b'{"type":"flush","id":1,"events":[]}\n',
    # other value shapes
    b'{"type":"requests","id":1,"events":[[1,2,"\\u0077"]]}\n',
    b'{"type":"requests","id":1,"events":[[1,2,"x"]]}\n',
    b'{"type":"requests","id":1,"events":[[1,2]]}\n',
    b'{"type":"requests","id":1,"events":[[1,2,"r",4]]}\n',
    b'{"type":"requests","id":1,"events":[["1",2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":[[true,2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":[[null,2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":[[1,2,r]]}\n',
    b'{"type":"requests","id":"1","events":[]}\n',
    b'{"type":"requests","id":true,"events":[]}\n',
    b'{"type":"requests","id":null,"events":[]}\n',
    b'{"type":"requests","id":NaN,"events":[]}\n',
    b'{"type":"requests","id":1,"events":[[Infinity,2,"r"]]}\n',
    b'{"type":"requests","id":1,"events":{}}\n',
    b'{"type":"requests","id":1,"events":null}\n',
    b'{"type":"requests","id":1,"events":[[1,2,"r"],]}\n',
    b'{"type":"requests","id":1,"events":[,]}\n',
    b'{"type":"requests","id":1,"events":[]},\n',
    b'{"type":"requests","id":1,"events":[],}\n',
    b'{,"type":"requests","id":1,"events":[]}\n',
    b'{"type" "requests","id":1,"events":[]}\n',
    b'{"type":"requests" "id":1,"events":[]}\n',
    # bytes after the object, or before it
    b'{"type":"requests","id":1,"events":[]}x\n',
    b'{"type":"requests","id":1,"events":[]}}\n',
    b'{"type":"requests","id":1,"events":[]} 1\n',
    b'{"type":"requests","id":1,"events":[]}\n{"type":"flush","id":2}\n',
    b'{"type":"requests","id":1,"events":[]}\x00',
    b'\xef\xbb\xbf{"type":"requests","id":1,"events":[]}\n',
    b'\x0c{"type":"requests","id":1,"events":[]}\n',
    b'[{"type":"requests","id":1,"events":[]}]\n',
    b'',
    b'\n',
]


@needs_cc
@pytest.mark.parametrize("line", TAKEN)
def test_scan_takes_the_grammar(line):
    with kernels.use_backend("cc"):
        assert kernels.scan_requests(line) is not None
    assert outcome(line, "cc")[0] == "ok"
    assert_same_decode([line])


@needs_cc
@pytest.mark.parametrize("line", DECLINED)
def test_scan_declines_everything_else(line):
    with kernels.use_backend("cc"):
        assert kernels.scan_requests(line) is None
    assert_same_decode([line])


@needs_cc
def test_every_prefix_of_a_line_decodes_alike():
    line = TAKEN[5]
    prefixes = [line[:cut] for cut in range(len(line))]
    with kernels.use_backend("cc"):
        assert all(kernels.scan_requests(prefix) is None for prefix in prefixes[:-1])
    assert_same_decode(prefixes)


def test_scan_declines_what_is_not_bytes():
    line = TAKEN[1]
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            for other in (bytearray(line), memoryview(line), line.decode()):
                assert kernels.scan_requests(other) is None


def test_numpy_backend_declines_every_line():
    with kernels.use_backend("numpy"):
        assert all(kernels.scan_requests(line) is None for line in TAKEN)


@needs_cc
def test_a_large_line_fills_its_capacity_exactly():
    # the tightest rows the grammar allows: ten bytes each
    rows = b",".join([b'[0,0,"r"]'] * 5000)
    line = b'{"type":"requests","id":1,"events":[' + rows + b"]}"
    with kernels.use_backend("cc"):
        ident, procs, objs, writes = kernels.scan_requests(line)
    assert (ident, procs.size, objs.size, writes.size) == (1, 5000, 5000, 5000)
    assert_same_decode([line])


# --------------------------------------------------------------------- #
# the journal's events item
# --------------------------------------------------------------------- #
def json_events_item(procs, objs, writes) -> bytes:
    """The events item as the journal wrote it with ``json.dumps``."""
    document = {
        "events": {
            "procs": procs.tolist(),
            "objs": objs.tolist(),
            "writes": np.flatnonzero(writes).tolist(),
        }
    }
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


def assert_item_equals_json(procs, objs, writes):
    procs = np.array(procs, dtype=np.int64)
    objs = np.array(objs, dtype=np.int64)
    writes = np.array(writes, dtype=bool)
    expected = json_events_item(procs, objs, writes)
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            assert kernels.events_item(procs, objs, writes) == expected, backend


@pytest.mark.parametrize(
    "procs, objs, writes",
    [
        ([], [], []),
        ([3, 4, 5], [0, 1, 2], [False, False, False]),
        ([3, 4, 5], [0, 1, 2], [True, True, True]),
        ([INT64_MIN, INT64_MAX, -1, 0], [INT64_MAX, INT64_MIN, 10**18, -(10**18)],
         [True, False, False, True]),
    ],
    ids=["empty", "no-writes", "all-writes", "int64-extremes"],
)
def test_events_item_equals_json_dumps(procs, objs, writes):
    assert_item_equals_json(procs, objs, writes)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(INT64_MIN, INT64_MAX),
            st.one_of(st.integers(-5, 5), st.sampled_from([INT64_MIN, INT64_MAX])),
            st.booleans(),
        ),
        max_size=40,
    )
)
def test_drawn_events_items_equal_json_dumps(rows):
    assert_item_equals_json(*zip(*rows)) if rows else assert_item_equals_json([], [], [])


def test_case_batches_journal_alike(case):
    procs, objs, writes = case.scenario.sequence.as_arrays()
    for cut in range(0, len(procs), 17):
        assert_item_equals_json(procs[cut:cut + 17], objs[cut:cut + 17], writes[cut:cut + 17])
