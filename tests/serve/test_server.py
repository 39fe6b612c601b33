"""End-to-end server tests over a loopback socket.

One daemon-thread server per test (port 0 = OS-assigned), the loadgen
client as the driver -- the same path the CI smoke job exercises.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import SimulationError
from repro.serve import PlacementServer, ServerThread, replay_recording
from repro.serve.loadgen import loadgen, workload_from_spec
from repro.serve.recorder import load_recording
from repro.sim.scenario import scenario_spec


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
