"""End-to-end crash/recovery over real sockets: invariant 11.

The chaos matrix runs the full serving stack (daemon-thread server,
loadgen client) under a seeded fault plan mixing connection drops,
engine crashes, torn journal writes and client-side read faults, and
asserts the recovered stream is *byte-identical* to an uninterrupted
run -- summary and replayed journal both.  The matrix serves each drawn
case of ``tests/fuzz.py`` (its spec's events and its whole trace, the
boundary mutations included; a trace-free case is served with boundary
mutations of its own) under a plan seeded by the case's seed, so
``REPRO_FUZZ_SEEDS`` widens it.
"""

from __future__ import annotations

import asyncio
import json
import warnings

from repro import faults
from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultRule
from repro.network.mutation import ChurnTrace
from repro.serve import PlacementServer, ServerThread, replay_recording
from repro.serve.loadgen import loadgen, workload_from_spec
from repro.serve.recorder import load_recording
from repro.serve.wire import encode_events, encode_message, mutation_to_dict
from tests.fuzz import boundary_mutations


def chaos_plan(seed: int) -> FaultPlan:
    """The standing chaos mix: every fault family the plane knows.

    The ``at=`` rules guarantee at least one mid-stream disconnect and
    one torn journal line per run regardless of seed; the ``prob`` rules
    reshuffle extra faults across the matrix.
    """
    return FaultPlan(
        seed=seed,
        rules=(
            FaultRule(site="server.ack-write", kind="drop", at=(3,)),
            FaultRule(site="server.ack-write", kind="drop", prob=0.02),
            FaultRule(site="recorder.write", kind="torn-write", at=(5,)),
            FaultRule(site="server.engine", kind="crash", prob=0.02),
            FaultRule(site="server.accept", kind="drop", prob=0.10),
            FaultRule(site="loadgen.recv", kind="drop", prob=0.02),
            FaultRule(site="loadgen.send", kind="drop", prob=0.01),
        ),
    )


def clean_baseline(spec, events, mutations, batch=8):
    """The uninterrupted run every recovered run must equal."""
    server = PlacementServer(spec, max_sessions=1)
    with ServerThread(server) as (host, port):
        return loadgen(host, port, events, mutations, batch=batch)["summary"]


class TestChaosMatrix:
    def test_recovered_equals_uninterrupted(self, case, tmp_path):
        spec, built = case.spec, case.built
        events = built.sequence.events
        # a mutation barrier forces an ack and a journal write, so the
        # plan's at= rules fire: a trace-free case gets boundary mutations
        trace = built.trace or ChurnTrace(boundary_mutations(built, case.seed, tie=4))
        mutations = [(tm.time, mutation_to_dict(tm.mutation)) for tm in trace]
        baseline = clean_baseline(spec, events, mutations)

        faults.install(chaos_plan(case.seed))
        server = PlacementServer(spec, record_dir=tmp_path, journal_sync=True)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            stats = loadgen(
                host,
                port,
                events,
                mutations,
                batch=8,
                timeout=10.0,
                retries=100,
                backoff_base=0.01,
                backoff_max=0.1,
                backoff_seed=case.seed,
            )
        finally:
            faults.clear()
            thread.stop()

        assert stats["reconnects"] >= 1  # the at= rules guarantee chaos
        # exactly-once, end to end: ARCHITECTURE invariant 11
        assert stats["summary"] == baseline

        complete = []
        for path in sorted(tmp_path.glob("session-*.jsonl")):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    recording = load_recording(path)
            except SimulationError:
                continue  # a journal the chaos killed before its header
            if recording.complete:
                complete.append(path)
        assert len(complete) == 1  # one logical session, one sealed journal
        replayed, served = replay_recording(complete[0])
        assert served == baseline
        assert replayed == served  # and invariant 10 still holds on top

    def test_chaos_runs_are_seed_deterministic(self, spec):
        # the same plan fires the same faults at the same hits: the
        # whole matrix is replayable from (plan seed, backoff seed)
        plan_a = chaos_plan(1)
        plan_b = FaultPlan.from_spec(chaos_plan(1).to_json())
        assert plan_a == plan_b
        fired_a = [
            rule.matches(hit, seed=plan_a.seed)
            for rule in plan_a.rules
            for hit in range(1, 100)
        ]
        fired_b = [
            rule.matches(hit, seed=plan_b.seed)
            for rule in plan_b.rules
            for hit in range(1, 100)
        ]
        assert fired_a == fired_b


class TestSealedJournal:
    def test_crash_that_ate_only_the_final_ack_resumes_to_summary(
        self, spec, tmp_path
    ):
        # drop the very first ack-write: with an empty stream that is the
        # end reply itself, so the journal seals but the client never
        # hears it -- resume must answer with the recorded summary, not
        # re-run anything
        faults.install(
            FaultPlan(
                seed=0,
                rules=(
                    FaultRule(site="server.ack-write", kind="drop", at=(1,)),
                ),
            )
        )
        server = PlacementServer(spec, record_dir=tmp_path)
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            stats = loadgen(
                host, port, [], retries=3, backoff_base=0.01, timeout=10.0
            )
        finally:
            faults.clear()
            thread.stop()
        assert stats["reconnects"] == 1
        assert stats["resumed"] == 0  # nothing was replayed
        assert stats["summary"]["n_events"] == 0
        (path,) = tmp_path.glob("session-*.jsonl")
        assert load_recording(path).summary == stats["summary"]
        assert server.sessions_resumed == 0


class TestServerRestart:
    def test_resume_survives_a_server_restart(self, spec, tmp_path):
        """Tokens are journal names: a *new* server process resumes them."""
        events, mutations = workload_from_spec(spec)
        baseline = clean_baseline(spec, events, mutations)
        cut = len(events) // 2

        async def drive_partial(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            hello = json.loads(await reader.readline())
            token = hello["token"]
            mid = mi = pos = 0
            while pos < cut:
                while mi < len(mutations) and mutations[mi][0] <= pos:
                    mid += 1
                    writer.write(
                        encode_message(
                            {
                                "type": "mutation",
                                "id": mid,
                                "op": mutations[mi][1],
                            }
                        )
                    )
                    mi += 1
                stop = min(pos + 8, cut)
                if mi < len(mutations):
                    stop = min(stop, mutations[mi][0])
                mid += 1
                writer.write(
                    encode_message(
                        {
                            "type": "requests",
                            "id": mid,
                            "events": encode_events(events[pos:stop]),
                        }
                    )
                )
                pos = stop
            mid += 1
            writer.write(encode_message({"type": "flush", "id": mid}))
            await writer.drain()
            while True:  # wait for the watermark to cover the prefix
                message = json.loads(await reader.readline())
                if message.get("type") == "ack" and message.get("position", -1) >= cut:
                    break
            writer.transport.abort()  # die without an end
            return token

        server_a = PlacementServer(spec, record_dir=tmp_path, journal_sync=True)
        thread_a = ServerThread(server_a)
        host, port = thread_a.start()
        try:
            token = asyncio.run(drive_partial(host, port))
        finally:
            thread_a.stop()
        assert (tmp_path / f"{token}.jsonl").exists()

        async def drive_resume(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # the fresh hello of the new server
            writer.write(encode_message({"type": "resume", "token": token}))
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert reply["type"] == "resumed", reply
            pos, mi, mid = int(reply["position"]), int(reply["n_mutations"]), 0
            while pos < len(events):
                while mi < len(mutations) and mutations[mi][0] <= pos:
                    mid += 1
                    writer.write(
                        encode_message(
                            {
                                "type": "mutation",
                                "id": mid,
                                "op": mutations[mi][1],
                            }
                        )
                    )
                    mi += 1
                stop = min(pos + 8, len(events))
                if mi < len(mutations):
                    stop = min(stop, mutations[mi][0])
                mid += 1
                writer.write(
                    encode_message(
                        {
                            "type": "requests",
                            "id": mid,
                            "events": encode_events(events[pos:stop]),
                        }
                    )
                )
                pos = stop
            while mi < len(mutations):
                mid += 1
                writer.write(
                    encode_message(
                        {"type": "mutation", "id": mid, "op": mutations[mi][1]}
                    )
                )
                mi += 1
            mid += 1
            writer.write(encode_message({"type": "end", "id": mid}))
            await writer.drain()
            while True:
                message = json.loads(await reader.readline())
                if message["type"] == "end":
                    writer.close()
                    return reply, message["summary"]
                assert message["type"] != "error", message

        server_b = PlacementServer(spec, record_dir=tmp_path, journal_sync=True)
        thread_b = ServerThread(server_b)
        host, port = thread_b.start()
        try:
            reply, summary = asyncio.run(drive_resume(host, port))
        finally:
            thread_b.stop()

        assert reply["position"] == cut
        assert server_b.sessions_resumed == 1
        assert summary == baseline  # invariant 11, across a restart
        # the fresh token the new server minted was never journaled, and
        # the minting skipped the existing journal instead of clobbering
        journals = sorted(path.name for path in tmp_path.glob("session-*.jsonl"))
        assert journals == [f"{token}.jsonl"]
        replayed, served = replay_recording(tmp_path / f"{token}.jsonl")
        assert served == summary
        assert replayed == served
