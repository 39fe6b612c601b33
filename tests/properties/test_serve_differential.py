"""Invariant 10 differential: served online equals offline replay, bit-for-bit.

Served and replayed workloads go through one loop,
:class:`repro.sim.engine.EngineStream`: the offline
:class:`SimulationEngine` feeds it whole segments between mutation times,
a served session feeds it whatever micro-batches arrive.  Ragged
micro-batches must equal whole-segment feeding and the verbatim reference
of ``tests/properties/test_sim_kernel.py``: identical served/dropped
splits, identical cost accounts, identical trajectory samples (as raw
float64 bytes), identical load vectors.  The stream never sees the
workload's length or partition in advance -- events arrive in ragged
micro-batches with mutations interleaved at their churn times -- so this
pins the chunk-regridding, lazy mutation flushing, and the
trailing-mutation / forced-final-sample ordering (an empty batch flushes
nothing).

The second half closes the loop through the recorder: a served session
written as a ``repro.stream-recording/v2`` file, replayed offline via
:func:`repro.serve.recorder.replay_recording`, must reproduce the served
summary exactly.

The seed matrix extends via ``REPRO_SERVE_SEEDS`` (comma-separated ints).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.dynamic.evaluate import hindsight_static_manager
from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import READ, WRITE, RequestEvent, RequestSequence
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    SetEdgeBandwidth,
    apply_mutation,
)
from repro.serve.batcher import ServeSession, result_record
from repro.serve.recorder import StreamRecorder, load_recording, replay_recording
from repro.serve.wire import mutation_to_dict
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.scenario import build_scenario, scenario_spec
from repro.sim.sinks import CostBreakdownSink, TrajectorySink
from repro.workload.churn import random_valid_mutation

DEFAULT_SEEDS = (0, 1)

N_EVENTS = 240
N_OBJECTS = 6
# ragged on purpose: batches must not line up with any chunk or sink grid
BATCH_SIZES = (13, 1, 50, 7, 120, 3, 90, 200)


def _seed_matrix():
    raw = os.environ.get("REPRO_SERVE_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return DEFAULT_SEEDS


def make_network(seed):
    return random_tree(4, 12, seed=seed)


def make_events(network, seed, n=N_EVENTS):
    rng = np.random.default_rng(seed + 1000)
    procs = np.asarray(network.processors)
    return [
        RequestEvent(
            int(rng.choice(procs)),
            int(rng.integers(N_OBJECTS)),
            WRITE if rng.random() < 0.2 else READ,
        )
        for _ in range(n)
    ]


def make_trace(seed, n=N_EVENTS):
    """Mutations valid for the evolving network, at adversarial times.

    Times include 0 (before anything is served), a duplicate pair, a grid
    multiple, ``n - 1``/``n`` (the forced-final-sample boundary), and a
    trailing time past the end.  Validity is checked against a scratch
    network that evolves exactly like the replayed one.
    """
    scratch = make_network(seed)
    rng = np.random.default_rng(seed + 2000)
    times = [0, 40, 41, 90, 90, n - 1, n]
    mutations = []
    for time in times:
        mutation = random_valid_mutation(scratch, rng)
        scratch = apply_mutation(scratch, mutation).network
        mutations.append((time, mutation))
    return ChurnTrace(mutations)


def make_strategy(kind, seed, sequence):
    network = make_network(seed)
    if kind == "adaptive":
        return EdgeCounterManager(network, N_OBJECTS)
    return hindsight_static_manager(network, sequence)


def make_sinks():
    # 37 is coprime to every batch size and to chunk_size=64
    return [TrajectorySink(37), CostBreakdownSink()]


def run_offline(kind, seed, sequence, trace, chunk_size):
    strategy = make_strategy(kind, seed, sequence)
    engine = SimulationEngine(strategy, sinks=make_sinks(), chunk_size=chunk_size)
    return engine.run(sequence, trace=trace)


def run_streamed(kind, seed, sequence, trace, chunk_size):
    """Feed the same workload through EngineStream in ragged batches."""
    strategy = make_strategy(kind, seed, sequence)
    stream = EngineStream(strategy, sinks=make_sinks(), chunk_size=chunk_size)
    pending = list(trace.events) if trace else []  # already time-sorted
    events = sequence.events
    position = 0
    cursor = 0
    while position < len(events):
        while pending and pending[0].time <= position:
            stream.mutate(pending.pop(0).mutation)
        stop = position + BATCH_SIZES[cursor % len(BATCH_SIZES)]
        cursor += 1
        if pending:
            stop = min(stop, pending[0].time)
        stop = min(stop, len(events))
        stream.serve(events[position:stop])
        position = stop
    for tm in pending:  # trailing mutations (time >= n_events)
        stream.mutate(tm.mutation)
    return stream.finish()


def full_record(result):
    """The canonical parity record plus the raw metric bytes."""
    record = result_record(result)
    sink = result.sink(TrajectorySink)
    record["trajectory_sha"] = sink.trajectory.tobytes().hex()[:32]
    record["sample_times_sha"] = sink.sample_times.tobytes().hex()[:32]
    return record


@pytest.mark.parametrize("seed", _seed_matrix())
@pytest.mark.parametrize("chunk_size", [None, 64])
@pytest.mark.parametrize("churn", [False, True], ids=["plain", "churn"])
@pytest.mark.parametrize("kind", ["adaptive", "static"])
def test_streamed_equals_offline(kind, churn, chunk_size, seed):
    network = make_network(seed)
    sequence = RequestSequence(make_events(network, seed), N_OBJECTS)
    trace = make_trace(seed) if churn else None
    offline = run_offline(kind, seed, sequence, trace, chunk_size)
    streamed = run_streamed(kind, seed, sequence, trace, chunk_size)
    assert full_record(streamed) == full_record(offline)


@pytest.mark.parametrize("seed", _seed_matrix())
def test_single_event_batches_equal_offline(seed):
    """The most hostile partition: every event its own micro-batch."""
    network = make_network(seed)
    sequence = RequestSequence(make_events(network, seed, n=60), N_OBJECTS)
    strategy = make_strategy("adaptive", seed, sequence)
    stream = EngineStream(strategy, sinks=make_sinks(), chunk_size=16)
    for event in sequence.events:
        stream.serve([event])
    streamed = stream.finish()
    offline = SimulationEngine(
        make_strategy("adaptive", seed, sequence),
        sinks=make_sinks(),
        chunk_size=16,
    ).run(sequence)
    assert full_record(streamed) == full_record(offline)


def test_attach_then_address_new_processor():
    """Refs minted by AttachLeaf are servable online, same as offline."""
    seed = 7
    network = make_network(seed)
    bus = network.buses[0]
    base_events = make_events(network, seed, n=80)
    new_ref = network.n_nodes  # the attached leaf's reference id
    events = base_events[:50] + [RequestEvent(new_ref, 0, READ)] + base_events[50:]
    sequence = RequestSequence(events, N_OBJECTS)
    trace = ChurnTrace([(30, AttachLeaf(bus))])

    offline = run_offline("adaptive", seed, sequence, trace, None)
    streamed = run_streamed("adaptive", seed, sequence, trace, None)
    assert full_record(streamed) == full_record(offline)
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
    assert full_record(stream(True)) == full_record(stream(False)) == full_record(offline)


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
