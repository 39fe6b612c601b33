"""Client side of the served workloads: spawn ``repro serve``, drive one
connection, read the server's CPU from /proc, verify the session.

A session runs, in order: a warm-up prefix (which ends set-up), a closed
loop of ``requests`` messages split into segments with exactly one message
in flight, and optionally an open loop at one fixed offered rate, then
``end``.  Messages are encoded before each segment's timing starts.  A
``requests`` message is never empty: the server acks only a micro-batch it
has served, so an empty message would never be acked and a closed-loop
client would wait forever.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import common

SERVER_ARGS = (
    "--strategy", "hindsight-static",
    "--batch-size", "1024",
    "--queue-size", "256",
    "--sessions", "1",
    "--host", "127.0.0.1",
    "--port", "0",
)
BATCH_SIZE = 1024
TIMEOUT_S = 120.0


class SessionError(RuntimeError):
    """The server replied with an error, broke the protocol or went away."""


class Session:
    """One spawned server process and the benchmark's one connection to it.

    ``spans_out`` starts the server through the tracing launcher, which
    writes the server's spans to that file when it exits.
    """

    def __init__(self, spec_path: Path, record_dir: Path, spans_out: Optional[Path] = None):
        launcher = [sys.executable, "-m", "repro.cli"]
        if spans_out is not None:
            launcher = [sys.executable, str(common.HERE / "serve_traced.py"), str(spans_out)]
        command = launcher + [
            "serve", "--spec", str(spec_path), "--record-dir", str(record_dir), *SERVER_ARGS
        ]
        self.record_dir = record_dir
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE, text=True,
            preexec_fn=common.pin_under_test,
        )
        self.sock: Optional[socket.socket] = None
        try:
            port = None
            for line in self.proc.stdout:
                if line.startswith("serving scenario"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            if port is None:
                raise SessionError("server exited before listening")
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self.sock.makefile("rb")
            hello = self._read()
            if hello.get("type") != "session":
                raise SessionError(f"expected a session hello, got {hello}")
        except BaseException:
            self.close()
            raise
        self.next_id = 0
        self.sent = 0  # request events sent
        self.acked = 0  # request events covered by acks

    # ------------------------------------------------------------------ #
    def _read(self) -> Dict:
        line = self._reader.readline()
        if not line:
            raise SessionError("server closed the connection")
        message = json.loads(line)
        if message.get("type") == "error":
            raise SessionError(f"server error: {message}")
        return message

    def _ack(self, message: Dict) -> int:
        """Check one ack; returns the message id it covers."""
        if message.get("type") != "ack":
            raise SessionError(f"expected an ack, got {message.get('type')}")
        self.acked = int(message["position"])
        return int(message["id"])

    def encode(self, events: List[list], size: int) -> List[Tuple[bytes, int]]:
        """``requests`` messages of up to ``size`` events, ids assigned in
        order; returns ``(line, number of events)`` pairs."""
        messages = []
        for start in range(0, len(events), size):
            chunk = events[start:start + size]
            if not chunk:
                raise ValueError("refusing to encode an empty requests message")
            self.next_id += 1
            payload = {"type": "requests", "id": self.next_id, "events": chunk}
            line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
            messages.append((line, len(chunk)))
        return messages

    def closed_loop(self, messages: List[Tuple[bytes, int]]) -> List[float]:
        """Send each message after the previous one is acked; returns RTTs (s)."""
        first = self.next_id - len(messages) + 1
        rtts = []
        for index, (message, n_events) in enumerate(messages):
            sent_at = time.perf_counter()
            self.sock.sendall(message)
            self.sent += n_events
            if self._ack(self._read()) != first + index or self.acked != self.sent:
                raise SessionError("closed-loop ack does not cover exactly the message sent")
            rtts.append(time.perf_counter() - sent_at)
        return rtts

    def open_loop(
        self, messages: List[Tuple[bytes, int]], size: int, rate: float
    ) -> Dict[str, object]:
        """Send on a fixed schedule of ``rate`` events/s regardless of acks.

        Each message's latency runs from its *intended* send time to the
        first ack covering it, so a stall also charges the wait it imposes
        on later messages.
        """
        first = self.next_id - len(messages) + 1
        interval = size / rate
        start = time.perf_counter() + 0.01
        intended = [start + i * interval for i in range(len(messages))]
        actual = [0.0] * len(messages)
        failure: List[BaseException] = []

        def sender() -> None:
            try:
                for i, (message, _) in enumerate(messages):
                    delay = intended[i] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    actual[i] = time.perf_counter()
                    self.sock.sendall(message)
            except OSError as exc:
                failure.append(exc)

        thread = threading.Thread(target=sender, name="open-loop-sender")
        thread.start()
        latencies: List[float] = []
        covered = 0
        try:
            while covered < len(messages):
                index = self._ack(self._read()) - first + 1
                now = time.perf_counter()
                latencies.extend(now - intended[i] for i in range(covered, index))
                covered = max(covered, index)
        except BaseException:
            self.sock.shutdown(socket.SHUT_RDWR)  # unblocks the sender
            raise
        finally:
            thread.join(TIMEOUT_S)
        if failure:
            raise SessionError(f"open-loop send failed: {failure[0]}")
        self.sent += sum(n_events for _, n_events in messages)
        if self.acked != self.sent:
            raise SessionError("open-loop acks do not cover every event sent")
        return {
            "latency_s": latencies,
            "late_s": [a - i for a, i in zip(actual, intended)],
            "drain_s": now - actual[-1],
        }

    def cpu_s(self) -> float:
        return common.proc_cpu_s(self.proc.pid)

    def peak_rss_mib(self) -> float:
        return common.proc_peak_rss_mib(self.proc.pid)

    def finish(self) -> Dict:
        """Seal the stream; returns the summary and waits for the server to exit."""
        self.next_id += 1
        self.sock.sendall(json.dumps({"type": "end", "id": self.next_id}).encode() + b"\n")
        while True:
            message = self._read()
            if message.get("type") == "end":
                summary = message["summary"]
                break
            self._ack(message)
        self.sock.close()
        self.proc.communicate(timeout=TIMEOUT_S)
        if self.proc.returncode != 0:
            raise SessionError(f"server exited with code {self.proc.returncode}")
        return summary

    def journal(self) -> Path:
        (path,) = sorted(self.record_dir.glob("*.jsonl"))
        return path

    def close(self) -> None:
        """Stop the server if it is still running and wait until it has."""
        if self.sock is not None:
            self.sock.close()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate(timeout=TIMEOUT_S)


def verify(summary: Dict, journal: Path, sent: int, acked: int) -> List[str]:
    """Failed checks of one sealed session (an empty list means it passed):
    acks cover every event, the summary accounts for every event, and the
    summary equals the offline replay of the session's own journal
    (served equals replayed)."""
    from repro.serve.recorder import replay_recording

    failures = []
    if acked != sent:
        failures.append(f"acks cover {acked} of {sent} events")
    if summary.get("n_events") != sent:
        failures.append(f"summary counts {summary.get('n_events')} events, {sent} were sent")
    if summary.get("served", -1) + summary.get("dropped", -1) != summary.get("n_events"):
        failures.append("summary: served + dropped != n_events")
    replayed, recorded = replay_recording(journal)
    if recorded != summary:
        failures.append("the journal's summary differs from the summary sent")
    if replayed != summary:
        failures.append("the offline replay of the journal differs from the served summary")
    return failures


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
WARMUP_EVENTS = {"full": 8192, "tiny": 256}
SEGMENT_EVENTS = {  # events per closed-loop segment, by message size
    "full": {32: 32768, 1024: 98304},
    "tiny": {32: 256, 1024: 2048},
}
# Fixed offered rate of the open loop: about 60% of what one server core
# sustains with 32-event messages (~40 us of server CPU per event).
OPEN_LOOP_RATE = {"full": 15000.0, "tiny": 2000.0}


class Plan:
    """Sizes and inputs of one served run."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, workdir: Path):
        from repro.sim.scenario import ScenarioSpec, build_scenario

        self.message_size = 32 if workload == "served-b32" else BATCH_SIZE
        self.size = size
        self.seed = seed
        self.workdir = workdir
        spec = common.served_spec(seed, size)
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(spec))
        network = build_scenario(ScenarioSpec.from_dict(spec))[0].network
        self.processors = list(network.processors)
        self.n_objects = spec["workload"]["args"]["n_objects"]
        self.warmup = WARMUP_EVENTS[size]
        self.segment = SEGMENT_EVENTS[size][self.message_size]
        self.n_segments = max(3, round(0.3 * seconds)) if size == "full" else 2
        self.open_loop = workload == "served-b32"
        size_s = 0.15 * seconds * OPEN_LOOP_RATE[size]
        self.open_events = self.message_size * max(1, int(size_s / self.message_size))
        self.sessions = 0

    def stream(self) -> common.EventStream:
        return common.EventStream(self.seed, self.processors, self.n_objects)

    def session(self, spans_out: Optional[Path] = None) -> Session:
        self.sessions += 1
        record_dir = self.workdir / f"journal-{self.sessions}"
        return Session(self.spec_path, record_dir, spans_out)


def setup_session(plan: Plan) -> Dict[str, object]:
    """A session that only sets up: spawn, build, warm-up, then ``end``."""
    session = plan.session()
    try:
        events = plan.stream()
        session.closed_loop(session.encode(events.take(plan.warmup), BATCH_SIZE))
        setup_s = session.cpu_s()
        summary = session.finish()
    finally:
        session.close()
    failures = []
    if session.acked != plan.warmup or summary.get("n_events") != plan.warmup:
        failures.append("set-up session: acks or summary do not cover the warm-up")
    return {"setup_s": setup_s, "summary": summary, "failures": failures}


def run_session(
    plan: Plan,
    spans_out: Optional[Path] = None,
    between_segments: Callable[[int], None] = lambda k: None,
) -> Dict[str, object]:
    """The main session: warm-up, closed-loop segments, open loop, end."""
    session = plan.session(spans_out)
    size = plan.message_size
    try:
        events = plan.stream()
        session.closed_loop(session.encode(events.take(plan.warmup), BATCH_SIZE))
        setup_s = session.cpu_s()
        closed_start = time.perf_counter()
        segment_us, rtts, closed_cpu = [], [], 0.0
        for k in range(plan.n_segments):
            messages = session.encode(events.take(plan.segment), size)
            before = session.cpu_s()
            rtts += session.closed_loop(messages)
            spent = session.cpu_s() - before
            segment_us.append(1e6 * spent / plan.segment)
            closed_cpu += spent
            between_segments(k)
        closed_window = (closed_start, time.perf_counter())
        open_stats = None
        if plan.open_loop:
            messages = session.encode(events.take(plan.open_events), size)
            open_stats = session.open_loop(messages, size, OPEN_LOOP_RATE[plan.size])
        peak_rss_mib = session.peak_rss_mib()
        summary = session.finish()
    finally:
        session.close()
    return {
        "setup_s": setup_s,
        "segment_us": segment_us,
        "closed_cpu_s": closed_cpu,
        "closed_events": plan.segment * plan.n_segments,
        "rtts": rtts,
        "open": open_stats,
        "peak_rss_mib": peak_rss_mib,
        "summary": summary,
        "sent": session.sent,
        "acked": session.acked,
        "journal": session.journal(),
        "closed_window": closed_window,
    }
