"""Invariants 1 and 10: served equals offline equals the scalar replay.

Served and replayed workloads go through one loop,
:class:`repro.sim.engine.EngineStream`: the offline
:class:`SimulationEngine` feeds it whole segments between mutation times,
a served session feeds it whatever micro-batches arrive.  For every
drawn case of ``tests/fuzz.py`` and every strategy of its roster, three
replays must agree bit for bit -- loads, cost units, congestion,
served/dropped counts, trajectory bytes and holder sets:

* the case replayed whole by ``SimulationEngine.run``;
* the case fed to ``EngineStream`` in its ragged batch partition, each
  mutation at its time (the stream never sees the length or partition in
  advance, so this pins the chunk re-gridding, the lazy mutation flush
  and the trailing-mutation / forced-final-sample ordering);
* the case replayed event by event by the scalar churn reference of
  ``tests/scalar_oracle.py``, the one arm that shares no loop with the
  other two.

The crafted tests pin the attach-then-address case, an empty batch
before a trailing mutation, and a served session closed through its
recording: a ``repro.stream-recording/v2`` file replayed offline via
:func:`repro.serve.recorder.replay_recording` must reproduce the served
summary exactly.  Three more pin the generator: every case's JSON
round-trips, the hypothesis twins draw valid cases, and the default
matrix spans every churn kind, chunk size and roster member, a
trace-free case among them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import READ, RequestEvent, RequestSequence
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import AttachLeaf, ChurnTrace, SetEdgeBandwidth
from repro.serve.batcher import ServeSession
from repro.serve.recorder import StreamRecorder, load_recording, replay_recording
from repro.serve.wire import mutation_to_dict
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.scenario import build_scenario, scenario_spec
from repro.sim.sinks import TrajectorySink
from tests import fuzz
from tests.fuzz import Case, feed, members, record_of, scalar_record


def test_served_equals_offline_equals_scalar(member):
    case, index = member
    built = case.built
    sequence, trace = built.sequence, built.trace
    _label, factory = built.strategies[index]
    offline = case.alone[index]
    stream = EngineStream(factory(), sinks=built.make_sinks(), chunk_size=case.chunk_size)
    served = feed(stream, sequence, trace, case.batches)
    every = offline.sink(TrajectorySink).sample_every
    expected = scalar_record(factory(), sequence, trace, every)
    assert record_of(served) == record_of(offline) == expected


def test_case_json_round_trips(case):
    """A case is its JSON document: decoding it gives the case back."""
    text = case.to_json()
    assert Case.from_json(text) == case
    assert Case.from_json(text).to_json() == text


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=members())
def test_hypothesis_cases_round_trip(drawn):
    """The hypothesis twins draw valid cases and roster members, and the
    cases round-trip too."""
    case, index = drawn
    assert eval(repr(case)) == case  # how a falsifying example prints
    assert [label for label, _ in case.built.strategies] == case.labels
    assert 0 <= index < len(case.labels)
    test_case_json_round_trips(case)


def churn_kind(spec):
    """Which of ``fuzz.CHURN`` a drawn spec carries."""
    if spec.workload["kind"] == "flash-crowd":
        return "flash-crowd"
    generators = {generator: kind for kind, (generator, _, _) in fuzz.CHURN_ENTRIES.items()}
    return generators[spec.churn[0]["generator"]] if spec.churn else "none"


def test_default_matrix_spans_every_axis():
    """The default seeds draw every churn kind, every chunk size and every
    roster member, a trace-free case and cases with boundary mutations,
    whatever the other draws are (``draw_case`` fixes these axes)."""
    drawn = [fuzz.draw_case(seed) for seed in fuzz.DEFAULT_SEEDS]
    assert {churn_kind(case.spec) for case in drawn} == set(fuzz.CHURN)
    assert {case.chunk_size for case in drawn} == set(fuzz.CHUNK_SIZES)
    roster = {"hindsight-static", "edge-counter", "edge-counter-s2-p1", "hysteresis",
              "rent-or-buy", "first-touch", "owner", "median", "full-replication", "random"}
    for case in drawn:
        assert [label for label, _ in case.built.strategies] == case.labels
        assert set(case.labels) == roster
    assert any(case.built.trace is None for case in drawn)
    assert any(case.mutations for case in drawn)


def test_attach_then_address_new_processor():
    """Refs minted by AttachLeaf are servable online, same as offline."""
    network = random_tree(4, 12, seed=7)
    rng = np.random.default_rng(7)
    base = list(RequestSequence.from_columns(
        rng.choice(network.processors, 80), rng.integers(0, 6, 80),
        rng.random(80) < 0.2, 6,
    ))
    new_ref = network.n_nodes  # the attached leaf's reference id
    sequence = RequestSequence(
        base[:50] + [RequestEvent(new_ref, 0, READ)] + base[50:], 6
    )
    trace = ChurnTrace([(30, AttachLeaf(network.buses[0]))])

    offline = SimulationEngine(
        EdgeCounterManager(network, 6), sinks=[TrajectorySink(37)]
    ).run(sequence, trace)
    stream = EngineStream(EdgeCounterManager(network, 6), sinks=[TrajectorySink(37)])
    streamed = feed(stream, sequence, trace, (13, 1, 50, 7))
    assert record_of(streamed) == record_of(offline)
    assert streamed.dropped == offline.dropped


def test_empty_batch_does_not_flush_a_trailing_mutation():
    """An empty batch serves nothing, so a trailing mutation still lands
    after the forced final sample, as in the offline replay."""
    network = balanced_tree(2, 2, 2)
    rng = np.random.default_rng(5)
    procs = np.asarray(network.processors)
    sequence = RequestSequence.from_columns(
        rng.choice(procs, 40), rng.integers(0, 4, 40), rng.random(40) < 0.3, 4
    )
    u, v = network.edges[0]
    trace = ChurnTrace([(40, SetEdgeBandwidth(u, v, 0.25))])

    def stream(empty_batch):
        stream = EngineStream(
            EdgeCounterManager(network, 4), sinks=[TrajectorySink(7)]
        )
        stream.serve(sequence)
        stream.mutate(trace.events[0].mutation)
        if empty_batch:
            assert stream.serve([]) == (0, 0)
        return stream.finish()

    offline = SimulationEngine(
        EdgeCounterManager(network, 4), sinks=[TrajectorySink(7)]
    ).run(sequence, trace)
    assert record_of(stream(True)) == record_of(stream(False)) == record_of(offline)


@pytest.mark.parametrize("scenario", ["zipf", "storm"])
def test_recorded_session_replays_bit_for_bit(scenario, tmp_path):
    """Session -> recording -> offline replay closes invariant 10 end to end."""
    spec = scenario_spec(scenario, seed=3, small=True)
    built = build_scenario(spec)[0]
    label, factory = built.strategies[0]
    path = tmp_path / "session.jsonl"
    recorder = StreamRecorder(path)
    recorder.write_header(
        spec.to_dict(), label, None, built.sequence.n_objects
    )
    session = ServeSession(
        factory(),
        n_objects=built.sequence.n_objects,
        sinks=built.make_sinks(),
        recorder=recorder,
        meta={"scenario": spec.name, "label": built.label, "strategy": label},
    )
    pending = list(built.trace.events) if built.trace else []
    events = built.sequence.events
    position = 0
    while position < len(events):
        while pending and pending[0].time <= position:
            session.mutate(mutation_to_dict(pending.pop(0).mutation))
        stop = min(position + 9, len(events))
        if pending:
            stop = min(stop, pending[0].time)
        session.feed(events[position:stop])
        position = stop
    for tm in pending:
        session.mutate(mutation_to_dict(tm.mutation))
    served = session.finish()

    recording = load_recording(path)
    assert recording.complete
    replayed, recorded_summary = replay_recording(path)
    assert recorded_summary == served
    assert replayed == served
