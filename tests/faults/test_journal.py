"""The crash-safe journal: torn tails, healing, deferred headers."""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.errors import InjectedFault, SimulationError
from repro.faults import FaultPlan, FaultRule
from repro.serve.recorder import (
    StreamRecorder,
    heal_journal,
    load_recording,
)
from repro.serve.batcher import build_session, resume_session
from repro.serve.loadgen import workload_from_spec


def write_session_journal(spec, path, n_events, mutations=(), sync=False):
    """Drive a real session against a recorder; returns the session."""
    recorder = StreamRecorder(path, sync=sync)
    session = build_session(spec, recorder=recorder)
    events, _ = workload_from_spec(spec)
    fed = 0
    for time, op in mutations:
        if time > fed:
            session.feed(events[fed:time])
            fed = time
        session.mutate(op)
    if fed < n_events:
        session.feed(events[fed:n_events])
    return session


class TestTornTrailingLine:
    def test_load_recording_skips_torn_tail_with_warning(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 6)
        intact = load_recording(path)
        text = path.read_text()
        path.write_text(text + '{"events": [[0, 1, "r"')  # crash mid-write
        with pytest.warns(UserWarning, match="torn line"):
            recording = load_recording(path)
        assert len(recording.events) == len(intact.events)

    def test_unterminated_final_line_counts_as_torn(self, spec, tmp_path):
        # the payload parses, but the newline never hit the disk: the
        # write was not durably complete
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 4)
        path.write_text(path.read_text() + '{"events": []}')  # no newline
        with pytest.warns(UserWarning, match="torn line"):
            load_recording(path)

    def test_mid_file_corruption_still_raises(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = build_session(spec, recorder=StreamRecorder(path))
        events, _ = workload_from_spec(spec)
        session.feed(events[:2])
        session.feed(events[2:4])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "{broken\n"
        path.write_text("".join(lines))
        with pytest.raises(SimulationError, match="corrupt journal line"):
            load_recording(path)


class TestHealJournal:
    def test_heals_torn_tail_in_place(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 5)
        intact = path.read_bytes()
        path.write_text(path.read_text() + '{"mutation": {"kin')
        heal = heal_journal(path)
        assert heal.truncated_torn_line and heal.repaired
        assert path.read_bytes() == intact

    def test_drops_trailing_aborted_footer(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = write_session_journal(spec, path, 5)
        intact = path.read_bytes()
        session.abort("connection lost")
        heal = heal_journal(path)
        assert heal.dropped_aborted_footer
        assert path.read_bytes() == intact  # a graceful abort is not a seal

    def test_sealed_journal_reported_and_untouched(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = write_session_journal(spec, path, 5)
        session.finish()
        before = path.read_bytes()
        heal = heal_journal(path)
        assert heal.sealed and not heal.repaired
        assert path.read_bytes() == before

    def test_counts_events_and_mutations(self, spec, tmp_path):
        from repro.serve.wire import mutation_to_dict
        from repro.sim.scenario import build_scenario

        built = build_scenario(spec)[0]
        op = mutation_to_dict(built.trace.events[0].mutation)
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 6, mutations=[(3, op)])
        heal = heal_journal(path)
        assert heal.n_events == 6
        assert heal.n_mutations == 1

    def test_missing_and_headerless_files_are_loud(self, tmp_path):
        with pytest.raises(SimulationError, match="no journal"):
            heal_journal(tmp_path / "nope.jsonl")
        torn_header = tmp_path / "torn.jsonl"
        torn_header.write_text('{"format": "repro.stream-recor')
        with pytest.raises(SimulationError, match="no intact header"):
            heal_journal(torn_header)


class TestRecorderModes:
    def test_header_is_deferred_until_first_item(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        recorder = StreamRecorder(path)
        build_session(spec, recorder=recorder)
        assert not path.exists()  # an abandoned session leaves no file
        assert not recorder.opened

    def test_abort_of_empty_session_still_writes_header(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = build_session(spec, recorder=StreamRecorder(path))
        session.abort("client disconnected before end")
        items = [json.loads(line) for line in path.read_text().splitlines()]
        assert items[0]["format"] == "repro.stream-recording/v2"
        assert items[1] == {"aborted": "client disconnected before end"}

    def test_crash_writes_no_footer(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = write_session_journal(spec, path, 3)
        session.crash()
        recording = load_recording(path)
        assert recording.summary is None and recording.aborted is None

    def test_sync_mode_fsyncs_each_line(self, spec, tmp_path, monkeypatch):
        import os as os_module

        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.serve.recorder.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 2, sync=True)
        assert synced  # every line hit the disk before the ack could

    def test_append_requires_existing_file_and_refuses_header(self, tmp_path):
        with pytest.raises(SimulationError, match="missing journal"):
            StreamRecorder(tmp_path / "nope.jsonl", append=True)
        path = tmp_path / "j.jsonl"
        path.write_text('{"format": "repro.stream-recording/v1"}\n')
        recorder = StreamRecorder(path, append=True)
        with pytest.raises(SimulationError, match="already has a header"):
            recorder.write_header(spec={}, strategy="s", chunk_size=None, n_objects=1)


class TestInjectedTornWrite:
    def test_torn_write_fault_leaves_healable_prefix(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        # hit 1 is the header+first-event flush; tear the 3rd line
        faults.install(
            FaultPlan(
                seed=0,
                rules=(FaultRule(site="recorder.write", kind="torn-write", at=(3,)),),
            )
        )
        session = build_session(spec, recorder=StreamRecorder(path))
        events, _ = workload_from_spec(spec)
        session.feed(events[:2])
        with pytest.raises(InjectedFault):
            session.feed(events[2:4])
        faults.clear()
        heal = heal_journal(path)
        assert heal.truncated_torn_line
        recording = load_recording(path)
        assert len(recording.events) == 2  # the durable prefix survived


class TestResumeSession:
    def test_resumed_session_equals_uninterrupted(self, spec, tmp_path):
        from repro.serve.wire import mutation_to_dict
        from repro.sim.scenario import build_scenario

        built = build_scenario(spec)[0]
        events, _ = workload_from_spec(spec)
        ops = [
            (int(tm.time), mutation_to_dict(tm.mutation))
            for tm in built.trace.events
        ]
        cut = len(events) // 2
        prefix_ops = [(t, op) for t, op in ops if t <= cut]
        suffix_ops = [(t, op) for t, op in ops if t > cut]

        # uninterrupted run
        clean = build_session(spec)
        fed = 0
        for t, op in ops:
            if t > fed:
                clean.feed(events[fed:t])
                fed = t
            clean.mutate(op)
        if fed < len(events):
            clean.feed(events[fed:])
        clean_summary = clean.finish()

        # crashed at `cut`, resumed from the journal, continued
        path = tmp_path / "j.jsonl"
        crashed = write_session_journal(spec, path, cut, mutations=prefix_ops)
        crashed.crash()
        resumed, position, n_mutations = resume_session(path)
        assert position == cut
        assert n_mutations == len(prefix_ops)
        fed = cut
        for t, op in suffix_ops:
            if t > fed:
                resumed.feed(events[fed:t])
                fed = t
            resumed.mutate(op)
        if fed < len(events):
            resumed.feed(events[fed:])
        resumed_summary = resumed.finish()

        assert resumed_summary == clean_summary  # ARCHITECTURE invariant 11
        # and the continued journal replays clean (invariant 10)
        from repro.serve.recorder import replay_recording

        replayed, served = replay_recording(path)
        assert served == resumed_summary
        assert replayed == served

    def test_sealed_journal_refuses_resume(self, spec, tmp_path):
        path = tmp_path / "j.jsonl"
        session = write_session_journal(spec, path, 3)
        session.finish()
        with pytest.raises(SimulationError, match="sealed"):
            resume_session(path)
