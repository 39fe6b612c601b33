"""Exactness oracle for the columnar event stream (invariant 1).

A ``RequestSequence`` stores three columns, and the generators, the
engine's span remap, the wire's row decoder and the stream's batch
validation work on them.  This module keeps the per-event object code they
replaced **verbatim** (``reference_*``) and asserts exact agreement: the
column bytes of generated sequences (hypothesis patterns, phase changes,
the flash-crowd specs), the remapped sub-columns and served/dropped split
of ``_remap_span``, the decoded rows, and the exception type and message
of every batch check.  The one intended difference is the wire's row
strictness: rows the reference decoder silently coerced (float, string or
``bool`` ids, ids beyond int64) are now rejected.
"""

import re
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import (
    READ,
    WRITE,
    RequestEvent,
    RequestSequence,
    phase_change_sequence,
    sequence_from_pattern,
)
from repro.errors import ReproError, SimulationError, WorkloadError
from repro.network.builders import balanced_tree
from repro.network.mutation import AttachLeaf, apply_mutation
from repro.serve.wire import decode_events
from repro.sim import scenario
from repro.sim.engine import EngineStream, _remap_span
from repro.workload.access import AccessPattern
from repro.workload.churn import mutation_storm
from tests.conftest import instances

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# per-event object references (verbatim)
# --------------------------------------------------------------------------- #
def reference_as_arrays(events: Sequence[RequestEvent]):
    """The event loop ``RequestSequence.as_arrays`` ran over its events."""
    n = len(events)
    procs = np.empty(n, dtype=np.int64)
    objs = np.empty(n, dtype=np.int64)
    writes = np.zeros(n, dtype=bool)
    for i, ev in enumerate(events):
        procs[i] = ev.processor
        objs[i] = ev.obj
        writes[i] = ev.kind == WRITE
    return (procs, objs, writes)


def reference_sequence_checks(events: Sequence[RequestEvent], n_objects: int) -> None:
    """The checks ``RequestSequence.__init__`` ran over its event tuple."""
    events = tuple(events)
    if n_objects < 0:
        raise WorkloadError("n_objects must be non-negative")
    for ev in events:
        if not 0 <= ev.obj < n_objects:
            raise WorkloadError(f"event object {ev.obj} out of range")


def reference_sequence_from_pattern(
    network, pattern, rng=None, seed=None
) -> List[RequestEvent]:
    """``sequence_from_pattern`` over event objects (returns the events)."""
    gen = rng if rng is not None else np.random.default_rng(seed)
    pattern.validate_for(network)
    events: List[RequestEvent] = []
    for obj in range(pattern.n_objects):
        for proc in pattern.requesters(obj):
            events.extend(
                RequestEvent(proc, obj, READ) for _ in range(pattern.reads_of(proc, obj))
            )
            events.extend(
                RequestEvent(proc, obj, WRITE)
                for _ in range(pattern.writes_of(proc, obj))
            )
    order = gen.permutation(len(events))
    shuffled = [events[i] for i in order]
    return shuffled


def reference_phase_change_sequence(network, patterns, seed=None) -> List[RequestEvent]:
    """``phase_change_sequence`` as event concatenation."""
    gen = np.random.default_rng(seed)
    combined: List[RequestEvent] = []
    for pattern in patterns:
        combined = combined + reference_sequence_from_pattern(network, pattern, rng=gen)
    return combined


def reference_flash_crowd_sequence(net, wl, seeds) -> List[RequestEvent]:
    """The sequence half of ``scenario._build_flash_crowd`` (the trace half
    draws from its own seed and is unchanged)."""
    base_pattern = scenario._build_pattern(net, wl["base"], seeds, "workload.base")
    sequence_seed = wl.get("sequence_seed")
    if sequence_seed is None and seeds is not None:
        sequence_seed = seeds.derive("workload.sequence_seed")
    base_events = reference_sequence_from_pattern(net, base_pattern, seed=sequence_seed)
    n_objects = base_pattern.n_objects
    n_new = int(wl.get("n_new", 8))
    requests = int(wl.get("crowd_requests", 8))
    cut = len(base_events) // int(wl.get("cut_div", 3))
    crowd_seed = wl.get("crowd_seed")
    if crowd_seed is None and seeds is not None:
        crowd_seed = seeds.derive("workload.crowd_seed")
    gen = np.random.default_rng(crowd_seed)
    probs = scenario.zipf_weights(n_objects)
    base_n = net.n_nodes
    crowd_events = [
        RequestEvent(base_n + k, int(obj), READ)
        for k in range(n_new)
        for obj in gen.choice(n_objects, size=requests, p=probs)
    ]
    tail = list(base_events[cut:]) + crowd_events
    shuffled_tail = [tail[i] for i in gen.permutation(len(tail))]
    return list(base_events[:cut]) + shuffled_tail


def reference_remap_span(
    events: Sequence[RequestEvent],
    start: int,
    stop: int,
    current_of_ref: np.ndarray,
    n_refs: int,
):
    """``engine._remap_span`` over event objects; returns ``(kept events or
    "identity" or None, served, dropped)``."""
    kept: List[RequestEvent] = []
    identity = True
    for event in events[start:stop]:
        if not 0 <= event.processor < n_refs:
            raise WorkloadError(
                f"event references processor id {event.processor}, but the "
                f"replay universe has {n_refs} reference ids"
            )
        proc = int(current_of_ref[event.processor])
        if proc < 0:
            identity = False
            continue
        if proc == event.processor:
            kept.append(event)
        else:
            identity = False
            kept.append(RequestEvent(proc, event.obj, event.kind))
    if identity:
        return "identity", stop - start, 0
    if kept:
        return kept, len(kept), (stop - start) - len(kept)
    return None, 0, stop - start


_CODE_KIND = {"r": READ, "w": WRITE, READ: READ, WRITE: WRITE}


def reference_decode_events(rows: Sequence) -> List[RequestEvent]:
    """``wire.decode_events`` building event objects (lenient on ids)."""
    events = []
    for row in rows:
        try:
            proc, obj, code = row
            events.append(RequestEvent(int(proc), int(obj), _CODE_KIND[code]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed event row {row!r}") from exc
    return events


def reference_check_batch(events, strategy_n_objects, network, current_of_ref, n_refs):
    """The checks of ``EngineStream.validate`` on an event list, against
    the network and reference map after every queued mutation."""
    events = list(events)
    n_objects = strategy_n_objects
    if n_objects is None:
        n_objects = 1 + max((ev.obj for ev in events), default=-1)
    reference_sequence_checks(events, n_objects)  # RequestSequence(events, n_objects)
    batch_n_objects = n_objects
    n_objects = strategy_n_objects
    if n_objects is not None and batch_n_objects > n_objects:
        raise WorkloadError(
            "sequence references more objects than the strategy was built for"
        )
    if events:
        procs = reference_as_arrays(events)[0]
        lo, hi = int(procs.min()), int(procs.max())
        if lo < 0 or hi >= n_refs:
            bad = lo if lo < 0 else hi
            raise WorkloadError(
                f"event references processor id {bad}, but the replay "
                f"universe has {n_refs} reference ids"
            )
        uniq = np.unique(procs)
        current = uniq if current_of_ref is None else current_of_ref[uniq]
        for ref, node in zip(uniq, current):
            if node >= 0 and not network.is_processor(int(node)):
                raise WorkloadError(
                    f"event references id {int(ref)}, which is a bus "
                    "node, not a processor"
                )


def reference_track(current_of_ref: Optional[np.ndarray], base_n, mutation, outcome):
    """The reference-map update ``EngineStream.mutate`` makes in a live
    stream (an attach appends one reference id)."""
    if current_of_ref is None:
        current_of_ref = np.arange(base_n, dtype=np.int64)
    alive = current_of_ref >= 0
    current_of_ref[alive] = outcome.node_map[current_of_ref[alive]]
    if isinstance(mutation, AttachLeaf):
        current_of_ref = np.append(current_of_ref, np.int64(outcome.new_node))
    return current_of_ref


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def assert_columns_equal(actual, expected) -> None:
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype
        assert a.tobytes() == e.tobytes()


def outcome_of(fn, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except ReproError as exc:
        return type(exc), str(exc)


def edge_patterns(network, n_objects):
    """Objects without requests, write-only pairs and a single requester."""
    reads = np.zeros((network.n_nodes, n_objects), dtype=np.int64)
    writes = np.zeros((network.n_nodes, n_objects), dtype=np.int64)
    procs = network.processors
    writes[procs[0], 0] = 3  # write-only pair
    if n_objects > 1:
        reads[procs[-1], 1] = 5  # one requester; object 2.. stay empty
        writes[procs[-1], 1] = 1
    yield AccessPattern(reads, writes)
    yield AccessPattern(np.zeros_like(reads), np.zeros_like(writes))


# --------------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------------- #
class TestGenerators:
    @given(inst=instances(), seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_sequence_from_pattern_bytes(self, inst, seed):
        network, pattern = inst
        expected = reference_as_arrays(reference_sequence_from_pattern(network, pattern, seed=seed))
        actual = sequence_from_pattern(network, pattern, seed=seed).as_arrays()
        assert_columns_equal(actual, expected)

    @pytest.mark.parametrize("n_objects", [1, 4])
    def test_edge_patterns(self, n_objects):
        network = balanced_tree(2, 2, 3)
        for pattern in edge_patterns(network, n_objects):
            expected = reference_sequence_from_pattern(network, pattern, seed=3)
            actual = sequence_from_pattern(network, pattern, seed=3)
            assert_columns_equal(actual.as_arrays(), reference_as_arrays(expected))

    @given(inst=instances(), seed=st.integers(0, 2**16), n_phases=st.integers(1, 3))
    @settings(**SETTINGS)
    def test_phase_change_bytes(self, inst, seed, n_phases):
        network, pattern = inst
        patterns = [pattern] * n_phases
        expected = reference_phase_change_sequence(network, patterns, seed=seed)
        actual = phase_change_sequence(network, patterns, seed=seed)
        assert_columns_equal(actual.as_arrays(), reference_as_arrays(expected))

    @pytest.mark.parametrize("family", ["flash-crowd", "flash-crowd-recovery"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("small", [True, False])
    def test_flash_crowd_specs(self, family, seed, small):
        spec = scenario.scenario_spec(family, seed=seed, small=small)
        built = scenario.build_scenario(spec)[0]
        seeds = scenario._SpecSeeds(spec)
        net = scenario._build_network(dict(spec.network), seeds)
        expected = reference_flash_crowd_sequence(net, spec.workload, seeds)
        assert_columns_equal(built.sequence.as_arrays(), reference_as_arrays(expected))


# --------------------------------------------------------------------------- #
# the event views
# --------------------------------------------------------------------------- #
@given(inst=instances(), seed=st.integers(0, 2**16))
@settings(**SETTINGS)
def test_event_views_equal_the_reference_objects(inst, seed):
    network, pattern = inst
    expected = reference_sequence_from_pattern(network, pattern, seed=seed)
    sequence = sequence_from_pattern(network, pattern, seed=seed)
    assert sequence.events == tuple(expected)
    assert list(sequence) == expected
    assert len(sequence) == len(expected)
    for i in range(-len(expected), len(expected)):
        assert sequence[i] == expected[i]
    assert sequence[1:-1:2] == tuple(expected[1:-1:2])
    with pytest.raises(IndexError):
        sequence[len(expected)]


@given(
    obj_range=st.integers(-1, 4),
    rows=st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 6), st.booleans()), max_size=12),
)
@settings(**SETTINGS)
def test_sequence_checks_match(obj_range, rows):
    events = [RequestEvent(p, o, WRITE if w else READ) for p, o, w in rows]
    expected = outcome_of(reference_sequence_checks, events, obj_range)
    actual = outcome_of(RequestSequence, events, obj_range)
    assert actual[0] == expected[0]
    if expected[0] != "ok":
        assert actual[1] == expected[1]


# --------------------------------------------------------------------------- #
# engine span remap
# --------------------------------------------------------------------------- #
@given(data=st.data())
@settings(**SETTINGS)
def test_remap_span_matches(data):
    n_base = data.draw(st.integers(1, 8))
    n_refs = n_base + data.draw(st.integers(0, 4))
    # identity, renumbered and departed references, mixed
    current_of_ref = np.array(
        data.draw(
            st.lists(
                st.one_of(st.just(-1), st.integers(0, n_refs + 3)),
                min_size=n_refs,
                max_size=n_refs,
            )
        ),
        dtype=np.int64,
    )
    if data.draw(st.booleans()):
        current_of_ref = np.arange(n_refs, dtype=np.int64)
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(-1, n_refs), st.integers(0, 3), st.booleans()),
            max_size=20,
        )
    )
    if not data.draw(st.booleans()):
        rows = [(min(max(p, 0), n_refs - 1), o, w) for p, o, w in rows]
    events = [RequestEvent(p, o, WRITE if w else READ) for p, o, w in rows]
    sequence = RequestSequence(events, 4)
    start = data.draw(st.integers(0, len(events)))
    stop = data.draw(st.integers(start, len(events)))

    expected = outcome_of(reference_remap_span, events, start, stop, current_of_ref, n_refs)
    actual = outcome_of(_remap_span, sequence, start, stop, current_of_ref, n_refs)
    if expected[0] != "ok":
        assert actual == expected
        return
    assert actual[0] == "ok"
    kept, served, dropped = expected[1]
    sub, sub_start, sub_stop, got_served, got_dropped = actual[1]
    assert (got_served, got_dropped) == (served, dropped)
    if kept == "identity":
        assert sub is sequence and (sub_start, sub_stop) == (start, stop)
    elif kept is None:
        assert sub is None and (sub_start, sub_stop) == (0, 0)
    else:
        assert (sub_start, sub_stop) == (0, len(kept))
        assert sub.n_objects == sequence.n_objects
        assert_columns_equal(sub.as_arrays(), reference_as_arrays(kept))


# --------------------------------------------------------------------------- #
# wire rows
# --------------------------------------------------------------------------- #
CODES = ["r", "w", "read", "write"]
good_rows = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1), st.sampled_from(CODES)
    ).map(list),
    max_size=20,
)
# malformations both decoders reject: wrong arity, unknown code, non-row
shape_defects = st.one_of(
    st.lists(st.integers(0, 9), min_size=0, max_size=2),
    st.lists(st.integers(0, 9), min_size=4, max_size=5),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from(["x", "R", ""])).map(list),
    st.integers(0, 9),
    st.none(),
)
# the row-strictness class: ids the reference decoder coerced
strictness_defects = st.one_of(
    st.tuples(st.floats(-5, 5), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.sampled_from(["3", "0"])),
    st.tuples(st.booleans(), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.sampled_from([2**63, -(2**63) - 1, 10**30])),
).map(lambda ids: [ids[0], ids[1], "r"])


@given(rows=good_rows)
@settings(**SETTINGS)
def test_decode_events_matches_on_valid_rows(rows):
    assert_columns_equal(decode_events(rows), reference_as_arrays(reference_decode_events(rows)))


@given(data=st.data(), rows=good_rows)
@settings(**SETTINGS)
def test_decode_events_matches_on_shape_defects(data, rows):
    bad = data.draw(shape_defects)
    rows = list(rows)
    rows.insert(data.draw(st.integers(0, len(rows))), bad)
    expected = outcome_of(reference_decode_events, rows)
    assert expected[0] is SimulationError
    assert outcome_of(decode_events, rows) == expected


@given(data=st.data(), rows=good_rows)
@settings(**SETTINGS)
def test_decode_events_rejects_the_strictness_class(data, rows):
    bad = data.draw(strictness_defects)
    assert outcome_of(reference_decode_events, [bad])[0] == "ok"  # coerced
    rows = list(rows)
    rows.insert(data.draw(st.integers(0, len(rows))), bad)
    with pytest.raises(SimulationError, match=re.escape(f"malformed event row {bad!r}")):
        decode_events(rows)


# --------------------------------------------------------------------------- #
# stream batch validation
# --------------------------------------------------------------------------- #
@given(data=st.data())
@settings(**SETTINGS)
def test_batch_checks_match(data):
    network = balanced_tree(2, 2, 2)
    n_objects = 4
    stream = EngineStream(EdgeCounterManager(network, n_objects))
    current_of_ref = None
    reference_net = network
    n_mutations = data.draw(st.integers(0, 4))
    if n_mutations:
        storm = mutation_storm(network, n_mutations, seed=data.draw(st.integers(0, 999)))
        for timed in storm.events:
            stream.mutate(timed.mutation)
            outcome = apply_mutation(reference_net, timed.mutation)
            reference_net = outcome.network
            current_of_ref = reference_track(
                current_of_ref, network.n_nodes, timed.mutation, outcome
            )
    n_refs = network.n_nodes if current_of_ref is None else len(current_of_ref)
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(-1, n_refs), st.integers(0, n_objects), st.booleans()),
            max_size=10,
        )
    )
    if data.draw(st.booleans()):
        rows = [(p, min(o, n_objects - 1), w) for p, o, w in rows]
    events = [RequestEvent(p, o, WRITE if w else READ) for p, o, w in rows]

    expected = outcome_of(
        reference_check_batch, events, n_objects, reference_net, current_of_ref, n_refs
    )
    actual = outcome_of(stream.validate, events)
    assert actual[0] == expected[0]
    if expected[0] != "ok":
        assert actual[1] == expected[1]
    else:
        assert_columns_equal(actual[1].as_arrays(), reference_as_arrays(events))
