"""The crash-safe journal: torn tails, healing, deferred headers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import faults
from repro.errors import InjectedFault, SimulationError
from repro.faults import FaultPlan, FaultRule
from repro.network.mutation import SetBusBandwidth
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

    def test_heal_truncates_to_the_durable_prefix(self, spec, tmp_path, monkeypatch):
        """Healing cuts the file where the last kept item ends: the kept
        bytes stay exactly as written (here one item is not in the
        recorder's compact form), the file is never rewritten whole, and
        a tail torn inside a multi-byte character is still a torn tail."""
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 5)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = json.dumps(json.loads(lines[1])).encode() + b"\n"
        durable = b"".join(lines)
        torn = '{"aborted": "café"}'.encode()[:-3]  # cut inside the é
        path.write_bytes(durable + b'{"aborted": "lost"}\n' + torn)

        def rewrite(*args, **kwargs):
            raise OSError("a heal must not rewrite the whole journal")

        monkeypatch.setattr(Path, "write_text", rewrite)
        monkeypatch.setattr(Path, "write_bytes", rewrite)
        heal = heal_journal(path)
        assert heal.truncated_torn_line and heal.dropped_aborted_footer
        assert heal.n_events == 5
        assert path.read_bytes() == durable

    def test_missing_and_headerless_files_are_loud(self, tmp_path):
        with pytest.raises(SimulationError, match="no journal"):
            heal_journal(tmp_path / "nope.jsonl")
        torn_header = tmp_path / "torn.jsonl"
        torn_header.write_text('{"format": "repro.stream-recor')
        with pytest.raises(SimulationError, match="no intact header"):
            heal_journal(torn_header)


class TestStrictItems:
    """Journal items are decoded as strictly as wire rows, and each refusal
    names the item at load."""

    @staticmethod
    def journal_lines(spec, tmp_path):
        path = tmp_path / "j.jsonl"
        write_session_journal(spec, path, 6)
        return path, [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def write(path, items):
        path.write_text("".join(json.dumps(item) + "\n" for item in items))

    @pytest.mark.parametrize(
        "column, values",
        [
            ("procs", [1.7, True]),
            ("objs", ["2", 0]),
            ("writes", [1.9]),
            ("writes", [True]),
            ("writes", [1, 0]),  # not increasing
            ("writes", [0, 0]),  # a repeated position
            ("writes", [-1]),  # before the item
            ("writes", [2]),  # past the item's two events
            ("procs", [2**63, 3]),  # beyond int64
        ],
    )
    def test_malformed_column_is_refused(self, spec, tmp_path, column, values):
        path, items = self.journal_lines(spec, tmp_path)
        item = {"events": {"procs": [3, 4], "objs": [0, 1], "writes": [1]}}
        item["events"][column] = values
        self.write(path, items + [item])
        with pytest.raises(SimulationError, match="malformed recording events item"):
            load_recording(path)

    @pytest.mark.parametrize("n_objects", ["8", 8.0, True, None])
    def test_malformed_header_n_objects_is_refused(self, spec, tmp_path, n_objects):
        path, items = self.journal_lines(spec, tmp_path)
        items[0]["n_objects"] = n_objects
        self.write(path, items)
        with pytest.raises(SimulationError, match="malformed n_objects"):
            load_recording(path)

    @pytest.mark.parametrize("time", [5, 7, 6.0, "6", None])
    def test_mutation_time_is_the_events_before_it(self, spec, tmp_path, time):
        path, items = self.journal_lines(spec, tmp_path)
        op = {"kind": "set-bus-bandwidth", "bus": 0, "bandwidth": 2.0}
        self.write(path, items + [{"mutation": op, "time": 6}])
        assert load_recording(path).mutations == [(6, SetBusBandwidth(0, 2.0))]
        self.write(path, items + [{"mutation": op, "time": time}])
        with pytest.raises(SimulationError, match="not at time 6"):
            load_recording(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "template",
        [
            '{"mutation": {"kind": "set-bus-bandwidth", "bus": 0, "bandwidth": %s},'
            ' "time": 6}',
            '{"events": {"procs": [3, %s], "objs": [0, 1], "writes": []}}',
        ],
        ids=["bandwidth", "proc"],
    )
    @pytest.mark.parametrize("where", ["last", "after-header"])
    def test_non_finite_number_is_corruption_not_a_torn_tail(
        self, spec, tmp_path, token, template, where
    ):
        """``json.loads`` takes these tokens; a complete line holding one is
        refused by load and heal, never skipped or truncated."""
        path, items = self.journal_lines(spec, tmp_path)
        lines = [json.dumps(item) + "\n" for item in items]
        lines.insert(len(lines) if where == "last" else 1, template % token + "\n")
        path.write_text("".join(lines))
        journal = path.read_bytes()
        with pytest.raises(SimulationError, match="corrupt journal line"):
            load_recording(path)
        with pytest.raises(SimulationError, match="corrupt journal line"):
            heal_journal(path)
        assert path.read_bytes() == journal
        if where == "last":
            # without its newline the same line is a write cut short
            path.write_bytes(journal[:-1])
            with pytest.warns(UserWarning, match="torn line"):
                load_recording(path)
            assert heal_journal(path).truncated_torn_line

    def test_malformed_mutation_document_is_refused_at_load(self, spec, tmp_path):
        path, items = self.journal_lines(spec, tmp_path)
        op = {"kind": "detach-leaf", "processor": 3.9}
        self.write(path, items + [{"mutation": op, "time": 6}])
        with pytest.raises(SimulationError, match="malformed mutation document"):
            load_recording(path)


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
