"""ServeSession / MicroBatcher semantics (no sockets involved)."""

from __future__ import annotations

import json

import pytest

from repro.dynamic.online import EdgeCounterManager
from repro.dynamic.sequence import READ, WRITE, RequestEvent
from repro.errors import MutationError, SimulationError, WorkloadError
from repro.network.builders import balanced_tree
from repro.serve.batcher import MicroBatcher, ServeSession, build_session, resume_session
from repro.serve.recorder import StreamRecorder, heal_journal
from repro.sim.scenario import scenario_spec


def make_session(**kwargs):
    net = balanced_tree(2, 2, 2)
    return ServeSession(EdgeCounterManager(net, 4), n_objects=4, **kwargs)


def req(msg_id, *rows):
    return {"type": "requests", "id": msg_id, "events": list(rows)}


class TestServeSession:
    def test_feed_returns_live_metrics(self):
        session = make_session()
        ack = session.feed([RequestEvent(3, 0, READ), RequestEvent(4, 1, WRITE)])
        assert ack["position"] == 2
        assert ack["served"] == 2
        assert ack["dropped"] == 0
        assert ack["congestion"] >= 0.0

    def test_object_out_of_universe_is_rejected_atomically(self):
        session = make_session()
        with pytest.raises(WorkloadError):
            session.feed([RequestEvent(3, 9, READ)])
        assert session.position == 0

    def test_bus_node_reference_is_rejected_not_a_crash(self):
        # node 0 is the root bus: in range, but feeding it to the serving
        # kernels would index out of bounds -- the stream must be loud
        session = make_session()
        with pytest.raises(WorkloadError, match="bus node"):
            session.feed([RequestEvent(0, 0, READ)])
        assert session.position == 0

    def test_finish_summary_shape(self):
        session = make_session()
        session.feed([RequestEvent(3, 0, READ)])
        summary = session.finish()
        assert summary["n_events"] == 1
        assert summary["served"] == 1
        assert summary["n_mutations"] == 0
        assert "loads_sha256" in summary


class TestJournalHoldsOnlyAcceptedItems:
    """The write-ahead journal records a batch or mutation only after the
    engine has accepted it, so every journal replays and resumes."""

    @staticmethod
    def journaled_session(tmp_path):
        path = tmp_path / "j.jsonl"
        spec = scenario_spec("zipf", seed=0, small=True)
        return build_session(spec, recorder=StreamRecorder(path)), path

    @staticmethod
    def items(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_rejected_batch_is_not_journaled(self, tmp_path):
        session, path = self.journaled_session(tmp_path)
        session.feed([RequestEvent(3, 0, READ)])
        with pytest.raises(WorkloadError, match="bus node"):
            session.feed([RequestEvent(0, 0, READ)])  # node 0: the root bus
        events_items = [item for item in self.items(path) if "events" in item]
        assert len(events_items) == 1
        assert heal_journal(path).n_events == 1
        resumed, position, n_mutations = resume_session(path)
        assert (position, n_mutations) == (1, 0)
        assert resumed.position == 1

    def test_mutation_that_cannot_apply_is_rejected_before_journal(self, tmp_path):
        session, path = self.journaled_session(tmp_path)
        session.feed([RequestEvent(3, 0, READ)])
        with pytest.raises(MutationError):
            session.mutate({"kind": "detach-leaf", "processor": 0})
        assert not [item for item in self.items(path) if "mutation" in item]
        # the stream goes on as if the mutation never arrived
        assert session.feed([RequestEvent(3, 1, READ)])["position"] == 2
        _, position, n_mutations = resume_session(path)
        assert (position, n_mutations) == (2, 0)

    def test_queued_mutations_chain(self, tmp_path):
        # the second detach is checked against the network the first leaves
        session, path = self.journaled_session(tmp_path)
        processor = session.strategy.network.processors[-1]
        session.mutate({"kind": "detach-leaf", "processor": processor})
        with pytest.raises(MutationError):
            session.mutate({"kind": "detach-leaf", "processor": processor})
        assert len([item for item in self.items(path) if "mutation" in item]) == 1


class TestMicroBatcher:
    def test_requests_buffer_until_drain(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        assert batcher.add(req(1, [3, 0, "r"])) == []
        assert batcher.add(req(2, [4, 1, "w"])) == []
        assert batcher.buffered == 2
        ack = batcher.drain()
        assert ack["type"] == "ack"
        assert ack["id"] == 2  # covers both buffered messages
        assert ack["position"] == 2
        assert batcher.drain() is None

    def test_overflowing_batches_flush_in_max_batch_chunks(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=3)
        rows = [[3, 0, "r"]] * 7
        replies = batcher.add(req(1, *rows))
        assert [r["position"] for r in replies] == [3, 6]
        assert batcher.buffered == 1

    def test_mutation_is_a_barrier(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        batcher.add(req(1, [3, 0, "r"]))
        replies = batcher.add(
            {"type": "mutation", "id": 2, "op": {"kind": "detach-leaf",
                                                 "processor": 3}}
        )
        # buffered events drained first, then the mutation scheduled
        assert [r["type"] for r in replies] == ["ack", "ack"]
        assert replies[0]["position"] == 1
        assert replies[1]["scheduled"] is True

    def test_flush_acks_even_when_empty(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        (reply,) = batcher.add({"type": "flush", "id": 5})
        assert reply == {"type": "ack", "id": 5, "position": 0}

    def test_empty_requests_message_is_acked(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        (reply,) = batcher.add(req(1))
        assert reply == {"type": "ack", "id": 1, "position": 0}
        assert batcher.drain() is None
        # with events buffered, the next drain's ack carries the id instead
        assert batcher.add(req(2, [3, 0, "r"])) == []
        assert batcher.add(req(3)) == []
        ack = batcher.drain()
        assert (ack["id"], ack["position"]) == (3, 1)

    def test_end_drains_and_finishes(self):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        batcher.add(req(1, [3, 0, "r"], [4, 0, "r"]))
        replies = batcher.add({"type": "end", "id": 2})
        assert [r["type"] for r in replies] == ["ack", "end"]
        assert replies[1]["summary"]["n_events"] == 2
        assert batcher.finished
        with pytest.raises(SimulationError, match="already ended"):
            batcher.add(req(3, [3, 0, "r"]))

    @pytest.mark.parametrize(
        "message",
        [
            req(1, [3, 0, "r"], [3.7, 0, "r"]),
            req(1, [3, 2.9, "r"]),
            req(1, ["3", 0, "r"]),
            req(1, [True, 0, "r"]),
            req(1, [3, 0, "r"], [10**30, 0, "r"]),
            req(1, [3, 0, "r", 1]),
            req(1, [3, 0, "x"]),
            {"type": "requests", "id": 1},
            {"type": "requests", "id": 1, "events": "3,0,r"},
            {"type": "requests", "id": "one", "events": [[3, 0, "r"]]},
            {"type": "mutation", "id": 1},
        ],
        ids=[
            "float-proc", "float-obj", "string-id", "bool-id", "oversized-id",
            "long-row", "unknown-kind", "no-events", "events-not-a-list",
            "non-integer-id", "mutation-without-op",
        ],
    )
    def test_malformed_message_is_rejected_whole(self, message):
        session = make_session()
        batcher = MicroBatcher(session, max_batch=100)
        batcher.add(req(0, [4, 1, "w"]))
        with pytest.raises(SimulationError):
            batcher.add(message)
        assert batcher.buffered == 1  # nothing of the bad message buffered
        assert batcher.drain()["position"] == 1

    def test_unknown_message_type_is_loud(self):
        batcher = MicroBatcher(make_session(), max_batch=4)
        with pytest.raises(SimulationError, match="unknown message type"):
            batcher.add({"type": "teleport"})


class TestBuildSession:
    def test_spec_session_uses_spec_strategy_names(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        session = build_session(spec)
        info = session.session_info()
        assert info["scenario"] == "zipf"
        assert info["strategy"]  # the spec's first strategy label
        assert info["n_objects"] > 0

    def test_unknown_strategy_label_is_rejected(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        with pytest.raises(SimulationError, match="no strategy"):
            build_session(spec, strategy="does-not-exist")
