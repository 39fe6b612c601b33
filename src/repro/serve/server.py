"""The asyncio ingestion server behind ``repro serve``.

One TCP connection carries one session: a fresh strategy is materialised
from the server's scenario spec, the client streams request/churn
messages (:mod:`repro.serve.wire`), and placement acks with live sink
metrics stream back.

**Batching.**  A reader task parses lines into a *bounded*
:class:`asyncio.Queue`; the engine task takes one message, then
opportunistically drains whatever else is already queued before serving,
so micro-batches grow exactly when ingestion outruns the engine and
shrink to single messages when the stream is idle -- steady-state
throughput rides the same chunk fast path as the offline replay, with no
batching timers.

**Backpressure.**  When the queue is full the reader stops consuming the
socket (it is awaiting ``put``), so TCP flow control pushes back to the
client; the outbound side awaits ``drain`` after every ack burst.  An
overloaded server therefore slows its clients down instead of buffering
unboundedly.

**Recording.**  With a record directory configured, every session is
persisted as a ``repro.stream-recording/v1`` file while it is served;
:func:`repro.serve.recorder.replay_recording` re-runs it offline
(invariant 10: served equals replayed).

**Crash-safe sessions.**  Each session's recording doubles as a
write-ahead journal: items are journaled *before* the engine serves
them, so every acked position is covered by durable journal bytes.  The
session ``token`` in the hello names the journal; a client whose
connection died sends ``{"type": "resume", "token": ...}`` as its first
message and the server rebuilds the session by replaying the healed
journal through the engine stream (exact by invariant 10), replying
``{"type": "resumed", "position": P, "n_mutations": M}`` so the client
rewinds to the watermark and re-sends only unacked items -- exactly-once,
end to end (invariant 11).  Tokens survive server restarts: they are
journal file names, and fresh tokens never reuse an existing file.

**Graceful degradation.**  ``max_active`` sheds connections beyond the
limit with a structured ``{"type": "error", "code": "overloaded",
"retry_after": ...}`` instead of queueing them; SIGTERM (or
:meth:`PlacementServer.request_drain`) stops accepting new sessions and
lets active ones finish; an optional ``watchdog`` deadline bounds each
engine pass so a stalled engine task turns into a structured error
instead of a silent hang.  A stop (``max_sessions`` reached or
:meth:`PlacementServer.request_stop`) closes the connections of sessions
still open, which end like lost connections: ``aborted`` journal
footer, resumable token.
"""

from __future__ import annotations

import asyncio
import re
import signal
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import faults
from repro.errors import InjectedFault, ReproError, SimulationError
from repro.serve.batcher import MicroBatcher, build_session, resume_session
from repro.serve.recorder import StreamRecorder, heal_journal, load_recording
from repro.serve.wire import WIRE_FORMAT, decode_message, encode_message

__all__ = ["PlacementServer", "ServerThread"]

_TOKEN_RE = re.compile(r"^session-\d{4,}$")


def _coded(message: str, code: str) -> SimulationError:
    """A SimulationError carrying a structured wire error code."""
    exc = SimulationError(message)
    exc.code = code  # read by the error reply writer
    return exc


class PlacementServer:
    """Session factory + connection handler of the streaming service.

    Parameters
    ----------
    spec:
        The :class:`~repro.sim.scenario.ScenarioSpec` every session is
        materialised from (network, strategy construction, sink set).
    strategy:
        Strategy label to serve (default: the spec's first strategy).
    chunk_size:
        Engine chunk bound passed through to the session streams.
    batch_size:
        Upper bound on events per engine micro-batch.
    queue_size:
        Bound of the per-connection inbound message queue (the
        backpressure knob).
    record_dir:
        When set, one recording file per session is written here.  This
        is also what makes sessions resumable: no record dir, no journal,
        no resume.
    max_sessions:
        When set, :meth:`wait_done` returns after that many sessions
        have completed (the CI smoke mode).
    journal_sync:
        fsync every journal line before serving it (the write-ahead
        durability mode; acks then only ever cover durable bytes).
    watchdog:
        Optional deadline in seconds for one engine pass; exceeding it
        aborts the session with a structured ``watchdog`` error instead
        of hanging the connection.
    max_active:
        Optional bound on concurrently active sessions; connections
        beyond it are shed with ``code="overloaded"`` and a
        ``retry_after`` hint rather than queued.
    retry_after:
        The retry hint (seconds) sent with shed/draining errors.
    """

    def __init__(
        self,
        spec,
        strategy: Optional[str] = None,
        chunk_size: Optional[int] = None,
        batch_size: int = 1024,
        queue_size: int = 1024,
        record_dir=None,
        max_sessions: Optional[int] = None,
        journal_sync: bool = False,
        watchdog: Optional[float] = None,
        max_active: Optional[int] = None,
        retry_after: float = 0.5,
    ) -> None:
        self.spec = spec
        self.strategy = strategy
        self.chunk_size = chunk_size
        self.batch_size = int(batch_size)
        self.queue_size = int(queue_size)
        self.record_dir = Path(record_dir) if record_dir is not None else None
        self.max_sessions = max_sessions
        self.journal_sync = bool(journal_sync)
        self.watchdog = watchdog
        self.max_active = max_active
        self.retry_after = float(retry_after)
        self.sessions_served = 0
        self.sessions_resumed = 0
        self.sessions_shed = 0
        self.recordings: List[Path] = []
        self._counter = 0
        self._active = 0
        self._draining = False
        self._stopping = False
        self._done: Optional[asyncio.Event] = None
        #: connection handler task -> its writer, while the handler runs
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------ #
    def _done_event(self) -> asyncio.Event:
        if self._done is None:
            self._done = asyncio.Event()
        return self._done

    def request_stop(self) -> None:
        """Make :meth:`wait_done` return (thread-safe via call_soon)."""
        self._done_event().set()

    def request_drain(self) -> None:
        """Graceful shutdown: shed new connections, finish active ones.

        This is the SIGTERM handler.  Once the last active session
        completes (immediately, if none is active), the server stops.
        """
        self._draining = True
        if self._active == 0:
            self.request_stop()

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_done(self) -> None:
        """Block until the session quota is reached or stop is requested."""
        await self._done_event().wait()

    # ------------------------------------------------------------------ #
    def _next_token(self) -> str:
        """A fresh session token: a journal name no session ever used.

        Tokens are journal file stems, so they survive server restarts;
        after a restart over an old record dir the counter skips every
        name that already has a journal on disk instead of clobbering it.
        """
        while True:
            self._counter += 1
            token = f"session-{self._counter:04d}"
            if self.record_dir is None:
                return token
            if not (self.record_dir / f"{token}.jsonl").exists():
                return token

    def _make_recorder(self, token: str) -> Optional[StreamRecorder]:
        if self.record_dir is None:
            return None
        path = self.record_dir / f"{token}.jsonl"
        self.recordings.append(path)
        return StreamRecorder(path, sync=self.journal_sync)

    # ------------------------------------------------------------------ #
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one session (asyncio.start_server callback)."""
        state: Dict[str, object] = {"session": None}
        accepted = False
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            fault = faults.fault_point("server.accept")
            if fault is not None:
                # sever the connection before any handshake: the client
                # sees an abrupt reset, exactly like a dying frontend
                writer.transport.abort()
                return
            if self._draining or (
                self.max_active is not None and self._active >= self.max_active
            ):
                code = "draining" if self._draining else "overloaded"
                self.sessions_shed += 1
                writer.write(
                    encode_message(
                        {
                            "type": "error",
                            "code": code,
                            "retry_after": self.retry_after,
                            "message": (
                                f"server is {code}; "
                                f"retry after {self.retry_after}s"
                            ),
                        }
                    )
                )
                await writer.drain()
                return
            self._active += 1
            accepted = True
            token = self._next_token()
            session = build_session(
                self.spec,
                strategy=self.strategy,
                chunk_size=self.chunk_size,
                recorder=self._make_recorder(token),
            )
            state["session"] = session
            state["token"] = token
            info: Dict[str, object] = {
                "type": "session",
                "format": WIRE_FORMAT,
                "batch_size": self.batch_size,
                "token": token,
                "journal": self.record_dir is not None,
            }
            info.update(session.session_info())
            writer.write(encode_message(info))
            await writer.drain()
            await self._serve_stream(state, reader, writer)
        except InjectedFault:
            # simulated process death: no footer, no error reply, the
            # journal stays exactly as a killed process would leave it
            session = state["session"]
            if session is not None:
                session.crash()
            try:
                writer.transport.abort()
            except (ConnectionError, RuntimeError):
                pass
        except ReproError as exc:
            session = state["session"]
            if session is not None:
                session.abort(str(exc))
            payload: Dict[str, object] = {"type": "error", "message": str(exc)}
            code = getattr(exc, "code", None)
            if code is not None:
                payload["code"] = code
            try:
                writer.write(encode_message(payload))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except ConnectionError:
            session = state["session"]
            if session is not None:
                session.abort("server stopped" if self._stopping else "connection lost")
        finally:
            self._connections.pop(task, None)
            if accepted:
                self._active -= 1
                if self._draining and self._active == 0:
                    self.request_stop()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, asyncio.CancelledError):
                # loop teardown can cancel the close handshake; the
                # session is already complete, so finish quietly
                pass

    def _count_completed(self) -> None:
        """One stream completed *and its client heard the summary*.

        A crash that eats the final reply leaves the journal sealed but
        the session uncounted; the count happens when the client resumes
        and the recorded summary is delivered instead -- so a
        ``max_sessions`` server never exits while its last client is
        still owed an answer.
        """
        self.sessions_served += 1
        if (
            self.max_sessions is not None
            and self.sessions_served >= self.max_sessions
        ):
            self.request_stop()

    # ------------------------------------------------------------------ #
    def _switch_to_resume(self, state: Dict, message: Dict) -> Dict:
        """Swap the fresh session for one rebuilt from a journal.

        Returns the reply to send: ``resumed`` with the watermark, or --
        when the journal turns out to be sealed because the crash ate
        only the final ack -- the recorded ``end`` summary itself, which
        closes the exactly-once loop without re-running anything.
        """
        if self.record_dir is None:
            raise _coded(
                "server keeps no journals (no record dir); resume unavailable",
                "no-journal",
            )
        token = str(message.get("token", ""))
        path = self.record_dir / f"{token}.jsonl"
        if not _TOKEN_RE.match(token) or not path.exists():
            raise _coded(f"unknown session token {token!r}", "unknown-token")
        fresh = state["session"]
        if (
            fresh is not None
            and fresh.recorder is not None
            and not fresh.recorder.opened
        ):
            # the eagerly built session never journaled anything; drop
            # its never-created recording from the listing
            try:
                self.recordings.remove(fresh.recorder.path)
            except ValueError:
                pass
        try:
            heal = heal_journal(path)
        except SimulationError as exc:
            # e.g. the crash tore the header line itself: nothing in the
            # journal was ever durable, so the token is as good as unknown
            # and a client that saw no acks restarts fresh, exactly-once
            raise _coded(
                f"journal for {token!r} is unrecoverable: {exc}",
                "unknown-token",
            ) from exc
        if heal.sealed:
            recording = load_recording(path)
            state["sealed"] = True
            return {"type": "end", "token": token, "summary": recording.summary}
        session, position, n_mutations = resume_session(
            path, sync=self.journal_sync
        )
        state["session"] = session
        state["token"] = token
        state["batcher"] = MicroBatcher(session, max_batch=self.batch_size)
        self.sessions_resumed += 1
        if path not in self.recordings:
            self.recordings.append(path)
        return {
            "type": "resumed",
            "token": token,
            "position": position,
            "n_mutations": n_mutations,
        }

    async def _serve_stream(self, state: Dict, reader, writer) -> None:
        queue: asyncio.Queue = asyncio.Queue(self.queue_size)
        state["batcher"] = MicroBatcher(
            state["session"], max_batch=self.batch_size
        )

        async def read_loop() -> None:
            while True:
                line = await reader.readline()
                await queue.put(line if line else None)
                if not line:
                    return

        async def engine_pass(item) -> Tuple[List[Dict], bool]:
            """One engine iteration: the item plus whatever is queued."""
            fault = faults.fault_point("server.engine")
            if fault is not None:
                if fault.kind == "stall":
                    # the scenario the watchdog deadline exists to catch
                    await asyncio.sleep(fault.seconds)
                else:
                    faults.raise_fault(fault)
            batcher = state["batcher"]
            replies: List[Dict] = []
            eof = False
            # opportunistic micro-batching: also serve whatever is
            # already queued, so batches grow exactly under load
            while True:
                if item is None:
                    eof = True
                    break
                replies.extend(batcher.add(decode_message(item)))
                if batcher.finished:
                    break
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if not batcher.finished:
                drained = batcher.drain()
                if drained is not None:
                    replies.append(drained)
            return replies, eof

        reader_task = asyncio.create_task(read_loop())
        first = True
        try:
            eof = False
            while not (state["batcher"].finished or eof):
                item = await queue.get()
                if first:
                    first = False
                    if item is not None:
                        message = decode_message(item)
                        if message.get("type") == "resume":
                            reply = self._switch_to_resume(state, message)
                            writer.write(encode_message(reply))
                            await writer.drain()
                            if state.get("sealed"):
                                # the stream completed on a connection
                                # whose final reply never arrived, so it
                                # was never counted: its completion is
                                # *this* delivery of the recorded summary
                                self._count_completed()
                                return
                            continue
                if self.watchdog is not None:
                    try:
                        replies, eof = await asyncio.wait_for(
                            engine_pass(item), self.watchdog
                        )
                    except asyncio.TimeoutError:
                        raise _coded(
                            f"engine watchdog: one engine pass exceeded "
                            f"{self.watchdog}s; session aborted",
                            "watchdog",
                        ) from None
                else:
                    replies, eof = await engine_pass(item)
                for reply in replies:
                    data = encode_message(reply)
                    fault = faults.fault_point("server.ack-write")
                    if fault is not None:
                        if fault.kind == "slow-write":
                            # partial write, a pause, then the rest: the
                            # slow-peer / fragmented-write simulation
                            writer.write(data[: len(data) // 2])
                            await writer.drain()
                            await asyncio.sleep(fault.seconds)
                            writer.write(data[len(data) // 2 :])
                            continue
                        faults.raise_fault(fault)
                    writer.write(data)
                if replies:
                    await writer.drain()
            if eof and not state["batcher"].finished:
                state["session"].abort(
                    "server stopped" if self._stopping
                    else "client disconnected before end"
                )
            if state["batcher"].finished:
                self._count_completed()
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass

    async def _end_open_sessions(self) -> None:
        """End every session whose client is still connected at stop.

        Each ends the way a lost connection ends: its connection is
        closed, its handler reads EOF and writes the ``aborted`` footer
        (``heal_journal`` drops it, so the token resumes), then returns.
        Waiting for the handlers leaves the loop teardown no handler task
        to cancel (Python 3.11 and 3.12 log a cancelled one as an
        unhandled exception) and no open connection (which
        ``Server.wait_closed`` waits for from 3.12.1 on).
        """
        self._stopping = True
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        if handlers:
            await asyncio.wait(handlers)

    # ------------------------------------------------------------------ #
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0, ready=None
    ) -> Tuple[str, int]:
        """Listen, serve until done/stopped, then shut the listener down.

        ``ready`` (optional callable) receives the bound ``(host, port)``
        once the listener is up -- the CLI prints it, tests capture it.
        Installs a SIGTERM handler (where the platform and thread allow
        it) that drains: active sessions finish, new ones are shed.
        Returns the bound address.
        """
        server = await asyncio.start_server(self.handle, host, port)
        bound = server.sockets[0].getsockname()[:2]
        if ready is not None:
            ready(bound)
        loop = asyncio.get_running_loop()
        sigterm_installed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            sigterm_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            # not the main thread (ServerThread) or no signal support:
            # draining stays available via request_drain()
            pass
        try:
            async with server:
                await self.wait_done()
                server.close()  # accept nothing while the open sessions end
                await self._end_open_sessions()
        finally:
            if sigterm_installed:
                loop.remove_signal_handler(signal.SIGTERM)
        return bound


class ServerThread:
    """Run a :class:`PlacementServer` on a daemon thread (tests, loadgen).

    ``start()`` blocks until the listener is bound and returns the
    ``(host, port)`` address; ``stop()`` requests shutdown and joins.
    """

    def __init__(
        self, server: PlacementServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.server.serve(
                self.host,
                self.port,
                ready=lambda bound: (
                    setattr(self, "address", tuple(bound)),
                    self._ready.set(),
                ),
            )

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.address is None:
            raise RuntimeError("server did not bind within 30s")
        return self.address

    def drain(self) -> None:
        """Thread-safe graceful drain (the SIGTERM path, callable here)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already closed

    def stop(self, timeout: float = 10) -> None:
        if self._loop is not None and self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
            self._thread.join(timeout=timeout)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
