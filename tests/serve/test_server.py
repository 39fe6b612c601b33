"""End-to-end server tests over a loopback socket.

One daemon-thread server per test (port 0 = OS-assigned), the loadgen
client as the driver -- the same path the CI smoke job exercises.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import kernels
from repro.errors import SimulationError
from repro.serve import PlacementServer, ServerThread, replay_recording, wire
from repro.serve.loadgen import loadgen, workload_from_spec
from repro.serve.recorder import load_recording
from repro.serve.wire import encode_events, encode_message
from repro.sim.scenario import scenario_spec

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def spec():
    return scenario_spec("storm", seed=0, small=True)


def run_server(spec, **kwargs):
    kwargs.setdefault("max_sessions", 1)
    return ServerThread(PlacementServer(spec, **kwargs))


class TestServedStream:
    def test_loadgen_roundtrip_reports_summary_and_latency(self, spec):
        events, mutations = workload_from_spec(spec)
        with run_server(spec) as (host, port):
            stats = loadgen(host, port, events, mutations, batch=5)
        summary = stats["summary"]
        assert stats["n_events"] == len(events)
        assert summary["n_events"] == len(events)
        assert summary["n_mutations"] == len(mutations)
        assert summary["served"] + summary["dropped"] == len(events)
        assert stats["events_per_sec"] > 0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] >= 0

    def test_served_equals_replayed_from_recording(self, spec, tmp_path):
        events, mutations = workload_from_spec(spec)
        with run_server(spec, record_dir=tmp_path) as (host, port):
            stats = loadgen(host, port, events, mutations, batch=7)
        (recording,) = sorted(tmp_path.glob("session-*.jsonl"))
        replayed, served = replay_recording(recording)
        assert served == stats["summary"]
        assert replayed == served  # ARCHITECTURE invariant 10

    def test_repeat_streams_are_positionally_extended(self, spec, tmp_path):
        events, mutations = workload_from_spec(spec)
        with run_server(spec, record_dir=tmp_path) as (host, port):
            stats = loadgen(host, port, events, mutations, batch=11, repeat=3)
        assert stats["summary"]["n_events"] == 3 * len(events)
        replayed, served = replay_recording(
            sorted(tmp_path.glob("session-*.jsonl"))[0]
        )
        assert replayed == served

    def test_rate_limit_caps_throughput(self, spec):
        events, _ = workload_from_spec(spec)
        rate = 40.0
        with run_server(spec) as (host, port):
            stats = loadgen(host, port, events, rate=rate, batch=4)
        # pacing keeps the achieved rate near (and never far above) target
        assert stats["events_per_sec"] <= rate * 1.5


def _stream_messages(spec, batch=8):
    """The spec's events in ``batch``-event requests messages, each mutation
    at its time, then ``end``: the loadgen's stream, ids from 1."""
    events, mutations = workload_from_spec(spec)
    messages, pending, position = [], list(mutations), 0
    while position < len(events) or pending:
        if pending and pending[0][0] <= position:
            messages.append({"type": "mutation", "op": pending.pop(0)[1]})
            continue
        stop = min(position + batch, len(events), *(t for t, _ in pending[:1]))
        if stop == position:  # a mutation past the last event
            messages.append({"type": "mutation", "op": pending.pop(0)[1]})
            continue
        messages.append({"type": "requests", "events": encode_events(events[position:stop])})
        position = stop
    messages.append({"type": "end"})
    return [{**message, "id": index} for index, message in enumerate(messages, 1)]


def _compact(message) -> bytes:
    return encode_message(message)


def _pretty(message) -> bytes:
    """``indent=1`` on one line (its newlines made carriage returns), the
    members in reverse order plus an unknown one, and the first kind code
    escaped: a line the compiled scan declines."""
    document = {"note": "pretty", **dict(reversed(list(message.items())))}
    text = json.dumps(document, indent=1)
    for code in ('"w"', '"r"'):
        if code in text:
            text = text.replace(code, '"\\u%04x"' % ord(code[1]), 1)
            break
    return text.replace("\n", "\r").encode() + b"\n"


class TestLineShapes:
    @pytest.mark.skipif("cc" not in kernels.available_backends(), reason="no C compiler")
    def test_every_line_shape_is_served_alike(self, spec, tmp_path, monkeypatch):
        """One event stream in three closed-loop sessions: compact lines
        (the compiled scan), pretty lines (the JSON path) and compact lines
        under the numpy backend (the JSON path) get the same acks and
        summary, journal the same bytes, and each journal replays."""
        scans = []  # per scan call: whether the scan took the line

        def scan(line):
            columns = kernels.scan_requests(line)
            scans.append(columns is not None)
            return columns

        monkeypatch.setattr(wire, "scan_requests", scan)
        messages = _stream_messages(spec)
        n_requests = sum(message["type"] == "requests" for message in messages)

        async def drive(host, port, lines):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # session hello
            replies = []
            for line in lines:  # one message in flight
                writer.write(line)
                await writer.drain()
                replies.append(json.loads(await asyncio.wait_for(reader.readline(), 30)))
            writer.close()
            return replies

        sessions = {}
        for name, shape, backend in (
            ("compact", _compact, "cc"),
            ("pretty", _pretty, "cc"),
            ("numpy", _compact, "numpy"),
        ):
            scans.clear()
            with kernels.use_backend(backend):
                with run_server(spec, record_dir=tmp_path / name) as (host, port):
                    replies = asyncio.run(drive(host, port, [shape(m) for m in messages]))
            (journal,) = (tmp_path / name).glob("session-*.jsonl")
            sessions[name] = (replies, journal.read_bytes(), sum(scans))
            assert len(scans) == len(messages), name  # each line decoded once
            assert main(["replay-stream", str(journal), "--check"], stream=io.StringIO()) == 0
        assert [sessions[name][2] for name in sessions] == [n_requests, 0, 0]
        compact = sessions["compact"]
        assert compact[0][-1]["type"] == "end"
        assert len(compact[0]) == len(messages)
        for name in ("pretty", "numpy"):
            assert sessions[name][:2] == compact[:2], name


class TestServerEdges:
    def test_malformed_message_gets_error_reply(self, spec):
        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # session hello
            writer.write(b'{"type": "teleport", "id": 1}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            return reply

        with run_server(spec) as (host, port):
            reply = asyncio.run(drive(host, port))
        assert reply["type"] == "error"
        assert "teleport" in reply["message"]

    def test_empty_requests_message_is_acked(self, spec):
        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # session hello
            writer.write(b'{"type": "requests", "id": 1, "events": []}\n')
            await writer.drain()
            reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
            writer.write(b'{"type": "end", "id": 2}\n')
            await writer.drain()
            end = json.loads(await asyncio.wait_for(reader.readline(), 10))
            writer.close()
            return reply, end

        with run_server(spec) as (host, port):
            reply, end = asyncio.run(drive(host, port))
        assert reply == {"type": "ack", "id": 1, "position": 0}
        assert end["type"] == "end"
        assert end["summary"]["n_events"] == 0

    def test_disconnect_without_end_leaves_aborted_recording(self, spec, tmp_path):
        event = workload_from_spec(spec)[0][0]
        row = [event.processor, event.obj, "r"]

        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()
            message = {"type": "requests", "id": 1, "events": [row]}
            writer.write(json.dumps(message).encode() + b"\n")
            await writer.drain()
            await reader.readline()  # the ack
            writer.close()
            await writer.wait_closed()

        server = PlacementServer(spec, record_dir=tmp_path)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            asyncio.run(drive(host, port))
        finally:
            thread.stop()
        (path,) = tmp_path.glob("session-*.jsonl")
        recording = load_recording(path)
        assert not recording.complete
        assert recording.aborted is not None
        assert len(recording.events) == 1

    def test_stop_with_an_open_session_aborts_it_resumably(self, tmp_path):
        # a child process, so the check sees exactly what reaches stderr
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, __file__, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "Traceback" not in child.stderr, child.stderr
        assert "Exception in callback" not in child.stderr, child.stderr
        token = json.loads(child.stdout)["token"]
        journal = tmp_path / f"{token}.jsonl"
        assert json.loads(journal.read_text().splitlines()[-1]) == {
            "aborted": "server stopped"
        }

        async def resume(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # session hello
            writer.write(encode_message({"type": "resume", "token": token}))
            writer.write(encode_message({"type": "end", "id": 3}))
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 10))
                for _ in range(2)
            ]
            writer.close()
            return replies

        server = PlacementServer(scenario_spec("zipf", seed=0, small=True),
                                 record_dir=tmp_path)
        with ServerThread(server) as (host, port):
            resumed, end = asyncio.run(resume(host, port))
        assert resumed["type"] == "resumed" and resumed["position"] == 10
        assert end["type"] == "end" and end["summary"]["n_events"] == 10

    def test_loadgen_surfaces_server_errors(self, spec):
        events = [type(e)(processor=10_000, obj=e.obj, kind=e.kind)
                  for e in workload_from_spec(spec)[0][:1]]
        with run_server(spec) as (host, port):
            with pytest.raises(SimulationError, match="server reported"):
                loadgen(host, port, events, batch=1)

    def test_session_hello_carries_universe_sizes(self, spec):
        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            hello = json.loads(await reader.readline())
            writer.write(b'{"type": "end", "id": 1}\n')
            await writer.drain()
            end = json.loads(await reader.readline())
            writer.close()
            return hello, end

        with run_server(spec) as (host, port):
            hello, end = asyncio.run(drive(host, port))
        assert hello["type"] == "session"
        assert hello["scenario"] == "storm"
        assert hello["n_nodes"] > 0 and hello["n_objects"] > 0
        assert end["type"] == "end"
        assert end["summary"]["n_events"] == 0

    def test_oversized_id_gets_error_reply_and_aborted_journal(self, spec, tmp_path):
        event = workload_from_spec(spec)[0][0]
        good = {"type": "requests", "id": 1, "events": [[event.processor, event.obj, "r"]]}
        bad = {"type": "requests", "id": 2, "events": [[10**30, event.obj, "r"]]}

        async def drive(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # session hello
            replies = []
            for message in (good, bad):
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()
                replies.append(json.loads(await asyncio.wait_for(reader.readline(), 10)))
            writer.close()
            return replies

        with run_server(spec, record_dir=tmp_path) as (host, port):
            ack, error = asyncio.run(drive(host, port))
        assert ack["type"] == "ack" and ack["position"] == 1
        assert error["type"] == "error"
        assert "malformed event row" in error["message"]
        (path,) = tmp_path.glob("session-*.jsonl")
        items = [json.loads(line) for line in path.read_text().splitlines()]
        assert "aborted" in items[-1]
        assert sum("events" in item for item in items) == 1


def _stop_with_an_open_session(record_dir):
    """Open a journaled session, serve and flush 10 events, then stop the
    server while the client is still connected; prints the token."""
    spec = scenario_spec("zipf", seed=0, small=True)
    events = workload_from_spec(spec)[0][:10]
    rows = [[e.processor, e.obj, "w" if e.is_write else "r"] for e in events]
    thread = ServerThread(PlacementServer(spec, record_dir=record_dir))
    host, port = thread.start()

    async def drive():
        reader, writer = await asyncio.open_connection(host, port)
        hello = json.loads(await reader.readline())
        writer.write(encode_message({"type": "requests", "id": 1, "events": rows}))
        writer.write(encode_message({"type": "flush", "id": 2}))
        await writer.drain()
        ack = json.loads(await reader.readline())
        assert ack["position"] == 10, ack
        return hello["token"], writer

    loop = asyncio.new_event_loop()
    token, _writer = loop.run_until_complete(drive())
    thread.stop()
    assert not thread._thread.is_alive(), "stop() timed out"
    print(json.dumps({"token": token}))


if __name__ == "__main__":
    _stop_with_an_open_session(Path(sys.argv[1]))
