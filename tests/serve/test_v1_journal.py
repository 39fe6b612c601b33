"""Journals in the v1 recording format still replay and resume.

``data/storm-small-v1.jsonl`` is the journal a ``repro.stream-recording/v1``
server wrote for ``repro serve --scenario storm --small --seed 0`` driven by
``repro loadgen --scenario storm --small --seed 0``: its events items are
``[proc, obj, "r"|"w"]`` rows.  A resumed v1 journal gets v2 column items
appended, and the mixed file must replay and resume exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.serve.batcher import MicroBatcher, resume_session
from repro.serve.loadgen import workload_from_spec
from repro.serve.recorder import heal_journal, load_recording, replay_recording
from repro.serve.wire import decode_message, encode_events, encode_message
from repro.sim.scenario import ScenarioSpec

V1_JOURNAL = Path(__file__).parent / "data" / "storm-small-v1.jsonl"
LINES = V1_JOURNAL.read_text(encoding="utf-8").splitlines(keepends=True)


def test_v1_journal_replays_to_its_recorded_summary():
    assert json.loads(LINES[0])["format"] == "repro.stream-recording/v1"
    replayed, recorded = replay_recording(V1_JOURNAL)
    assert recorded is not None
    assert replayed == recorded


def test_v1_journal_with_a_moved_mutation_is_refused_at_load(tmp_path):
    """A mutation item is journaled at the number of events before it;
    moving the first one from time 4 to 9 is refused at load, not deep in
    the replay."""
    lines = list(LINES)
    first = next(i for i, line in enumerate(lines) if '"mutation"' in line)
    item = json.loads(lines[first])
    assert item["time"] == 4
    item["time"] = 9
    lines[first] = json.dumps(item) + "\n"
    path = tmp_path / "moved.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(SimulationError, match="not at time 4"):
        load_recording(path)


@pytest.mark.parametrize("cut", range(1, len(LINES)))
def test_footer_stripped_v1_journal_resumes_and_seals(tmp_path, cut):
    """Keep the header and ``cut - 1`` items, resume at that watermark, send
    the rest of the stream through the batcher, seal: the footer is the
    original's byte for byte and the mixed v1/v2 file replays to it."""
    path = tmp_path / "session.jsonl"
    path.write_text("".join(LINES[:cut]), encoding="utf-8")
    heal = heal_journal(path)
    session, position, n_mutations = resume_session(path)
    assert (position, n_mutations) == (heal.n_events, heal.n_mutations)

    spec = ScenarioSpec.from_dict(json.loads(LINES[0])["spec"])
    events, mutations = workload_from_spec(spec)
    pending = list(mutations[n_mutations:])
    batcher = MicroBatcher(session, max_batch=3)
    replies = []
    message_id = 0
    while position < len(events):
        while pending and pending[0][0] <= position:
            message_id += 1
            replies += batcher.add({"type": "mutation", "id": message_id, "op": pending.pop(0)[1]})
        stop = min(position + 2, len(events))
        if pending:
            stop = min(stop, pending[0][0])
        message_id += 1
        rows = encode_events(events[position:stop])
        message = {"type": "requests", "id": message_id, "events": rows}
        replies += batcher.add(decode_message(encode_message(message)))
        position = stop
    for _, op in pending:
        message_id += 1
        replies += batcher.add({"type": "mutation", "id": message_id, "op": op})
    replies += batcher.add({"type": "end", "id": message_id + 1})

    resumed_lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert resumed_lines[-1] == LINES[-1]
    summary = replies[-1]["summary"]
    assert replay_recording(path) == (summary, summary)
    shapes = {type(json.loads(line)["events"]) for line in resumed_lines if '"events"' in line}
    if 0 < heal.n_events < len(events):
        assert shapes == {list, dict}  # v1 rows, then appended v2 columns
    assert len(load_recording(path).events) == len(events)
