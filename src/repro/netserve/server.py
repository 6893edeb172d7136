"""The asyncio network front-end over a :class:`DatabaseServer`.

One :class:`NetServer` binds one listening socket and speaks the
framed protocol of :mod:`repro.netserve.protocol` to any number of
concurrent connections.  The asyncio event loop owns all socket I/O;
database work runs on a small thread pool (the engine itself is
blocking), so ten thousand idle or parked connections cost file
descriptors, not threads.

**Sessions.**  A connection's first request must be ``open_session``;
the subject named there is the connection's identity for its whole
life, so every later query or script is served through the paper's
access control for that one ``logged(s)``.

**Backpressure**, in rungs (the *ladder* -- cheapest first):

1. *Per-connection pipeline depth*: at most ``max_pipeline`` requests
   from one connection run at once; the reader coroutine itself holds
   the next frame until a slot frees, so TCP flow control pushes back
   on a client that pipelines faster than it drains responses.
2. *Pause reads when saturated*: when the underlying server's
   admission budget is full, every connection stops *reading* --
   requests queue in kernel buffers on the client's side of the pipe
   instead of as parsed frames in server memory (counted as
   ``net_reads_paused``).
3. *Admission itself*: requests that do get through still pass the
   :class:`~repro.serving.admission.AdmissionController`, so a
   ``shed`` policy answers :class:`~repro.errors.OverloadError`
   frames rather than queueing unboundedly.

**Deadlines.**  A request's ``deadline_ms`` becomes the
:class:`~repro.serving.retry.Deadline` the serving layer already
enforces everywhere (admission queue, lock waits, mid-script
checkpoints) -- the client's budget rides all the way down.

**Group commit.**  Every ``execute`` request goes through a
:class:`~repro.serving.group.GroupCommitter`: concurrently arriving
scripts from different connections batch into one WAL fsync, and
``max_batch=1`` gives one fsync per commit through the same path --
the path an in-process :meth:`DatabaseServer.execute` takes too.  The
window is demand plus a constant cap, not a setting: the frame loop
counts each decoded ``execute`` frame as *coming*
(:meth:`~repro.serving.group.GroupCommitter.expect`) before its
dispatch task exists, and a leader waits only while a counted write
has not joined yet (at most 2 ms) -- so a lone write seals at once,
and frames decoded from one read are one group.  A connection whose
last request was a write is counted from that write's acknowledgement
on: a client that waits for each ack answers it with its next request,
so the writers one group acknowledged form the next group whole even
when their requests arrive spread over the cap (its first frame of
another kind, or a hang-up, stops counting it).
Each reply is the summary taken under the write lock when its member
committed, so it carries that commit's own version.
The front end drives the committer's one retry schedule
(:meth:`~repro.serving.group.GroupCommitter.schedule`): only the
group's *leader* occupies a pool thread; followers park on an asyncio
future resolved by a ticket callback, which is what lets a thousand
concurrent writers ride a pool of a few threads, and a raced member's
backoff sleeps on the event loop -- never inside a group.  The
schedule parses the script text once, before its first submit, so on
the event loop, where the frame's JSON was decoded too: a script that
does not parse fails only its own request and never reaches the
circuit breaker, and the commit logs the text as received.  Parsing
on a pool thread instead would cost an executor hop per write (+13 %
``op_p50_ms`` on ``write_group``, E29); the price of not paying it is
that a very large script holds the loop while it parses.

The ``net-mid-frame`` kill-point (:mod:`repro.faults`) makes
the server crash half-way through writing a response frame -- the
torn-frame case clients must treat exactly like a crashed ack:
outcome unknown.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set

from ..errors import ProtocolError
from ..serving.group import CommitTicket, GroupCommitter
from ..serving.server import DatabaseServer
from ..faults import InjectedFault, kill_point
from ..xmltree import serialize
from ..xpath.values import is_node_set
from .framing import DEFAULT_MAX_FRAME, FrameDecoder, encode_frame
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    error_response,
    ok_response,
    wire_number,
)

__all__ = ["NetServer", "NetServerHandle", "serve_in_thread"]

logger = logging.getLogger("repro.netserve")

#: How much to ask the transport for per read.
_READ_CHUNK = 64 * 1024

#: How long a saturated server naps before re-checking admission.
_PAUSE_POLL = 0.001


class _Connection:
    """Per-connection protocol state."""

    __slots__ = ("user", "tasks", "closing", "acked")

    def __init__(self) -> None:
        self.user: Optional[str] = None
        self.tasks: Set[asyncio.Task] = set()
        self.closing = False
        # One coming-write token per write acknowledged since this
        # connection last sent a frame: its next write, counted early.
        self.acked: List[Any] = []

    def forget_acked(self) -> None:
        """The client sent something else, or left: stop expecting."""
        for coming in self.acked:
            coming.release()
        self.acked.clear()


class NetServer:
    """A framed-protocol listener over one :class:`DatabaseServer`.

    Args:
        server: the governed server every request runs through.
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
        max_batch: the group committer's size ceiling (see
            :class:`GroupCommitter`; its window is demand plus a
            constant 2 ms cap, not a setting).
        max_frame: per-frame byte ceiling, both directions.
        max_pipeline: in-flight requests allowed per connection.
        executor_workers: pool threads for blocking database work.
    """

    def __init__(
        self,
        server: DatabaseServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 128,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_pipeline: int = 32,
        executor_workers: int = 8,
    ) -> None:
        if max_pipeline < 1:
            raise ValueError("max_pipeline must be >= 1")
        if executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        self._server = server
        self._host = host
        self._port = port
        self._group = GroupCommitter(server, max_batch=max_batch)
        self._max_frame = max_frame
        self._max_pipeline = max_pipeline
        self._executor_workers = executor_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._listener: Optional[asyncio.base_events.Server] = None
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._counters_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "connections_opened": 0,
            "connections_closed": 0,
            "frames_in": 0,
            "frames_out": 0,
            "protocol_errors": 0,
            "reads_paused": 0,  # pause-loop naps taken while saturated
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def server(self) -> DatabaseServer:
        return self._server

    @property
    def group(self) -> GroupCommitter:
        """The commit batcher every ``execute`` goes through."""
        return self._group

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved once :meth:`start` has run)."""
        return self._port

    async def start(self) -> None:
        """Bind the listener; resolves :attr:`port` when it was 0."""
        if self._listener is not None:
            raise RuntimeError("NetServer is already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="netserve",
        )
        self._listener = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        self._port = self._listener.sockets[0].getsockname()[1]
        logger.info("netserve listening on %s:%d", self._host, self._port)

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (starting if needed)."""
        if self._listener is None:
            await self.start()
        async with self._listener:
            await self._listener.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, hang up live connections, drain handlers,
        and shut the worker pool down."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for writer in list(self._writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(
                *list(self._handlers), return_exceptions=True
            )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def stats(self) -> Dict[str, int]:
        """The front-end's own counters (a snapshot)."""
        with self._counters_lock:
            return dict(self._counters)

    def _count(self, key: str, by: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += by

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection()
        decoder = FrameDecoder(self._max_frame)
        slots = asyncio.Semaphore(self._max_pipeline)
        send_lock = asyncio.Lock()
        self._count("connections_opened")
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            while not conn.closing:
                await self._pause_while_saturated()
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # The stream offset is gone: one final error frame,
                    # then hang up -- never leave the client hanging.
                    await self._fail_connection(writer, send_lock, None, exc)
                    return
                for frame in frames:
                    self._count("frames_in")
                    await slots.acquire()  # bounded pipeline depth
                    # A decoded write is coming: a leader waits for it
                    # (counted since its predecessor's ack, if any).
                    coming = None
                    if frame.get("op") == "execute":
                        coming = (
                            conn.acked.pop() if conn.acked
                            else self._group.expect()
                        )
                    elif conn.acked:
                        conn.forget_acked()
                    task = asyncio.get_running_loop().create_task(
                        self._dispatch(
                            conn, frame, writer, send_lock, slots, coming
                        )
                    )
                    conn.tasks.add(task)
                    task.add_done_callback(conn.tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer vanished; in-flight work still answers below
        finally:
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            conn.forget_acked()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            self._count("connections_closed")

    async def _pause_while_saturated(self) -> None:
        """Rung 2 of the ladder: stop reading while admission is full."""
        admission = self._server.admission
        limit = admission.limit
        if limit is None:
            return
        while admission.in_flight >= limit:
            self._count("reads_paused")
            await asyncio.sleep(_PAUSE_POLL)

    async def _dispatch(
        self, conn, frame, writer, send_lock, slots, coming
    ) -> None:
        request_id: Optional[int] = None
        try:
            try:
                request_id = self._request_id(frame)
                result = await self._respond(conn, frame, coming)
            finally:
                if coming is not None:  # a no-op once it joined a group
                    coming.release()
            response = ok_response(request_id, result)
        except ProtocolError as exc:
            await self._fail_connection(writer, send_lock, request_id, exc)
            return
        except Exception as exc:  # noqa: BLE001 -- relayed, never fatal
            response = error_response(request_id, exc)
        finally:
            slots.release()
        await self._send(writer, send_lock, response)
        if conn.closing:
            writer.close()
        elif coming is not None:
            # A client that waits for each ack answers it with its next
            # request: count that write from now (the cap bounds a guess
            # that does not come true).
            conn.acked.append(self._group.expect())

    def _request_id(self, frame: Dict[str, Any]) -> int:
        request_id = frame.get("id")
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            raise ProtocolError(
                f"request id must be an integer, got {request_id!r}"
            )
        return request_id

    async def _fail_connection(self, writer, send_lock, request_id, exc):
        self._count("protocol_errors")
        try:
            await self._send(
                writer, send_lock, error_response(request_id, exc)
            )
        except Exception:  # noqa: BLE001 -- already tearing down
            pass
        writer.close()

    async def _send(self, writer, send_lock, response: Dict[str, Any]):
        payload = encode_frame(response, self._max_frame)
        async with send_lock:
            try:
                kill_point("net-mid-frame", bytes=len(payload))
            except InjectedFault:
                # Crash mid-frame: half the bytes hit the wire, then
                # the connection dies -- the client sees a torn frame
                # and must treat the request's outcome as unknown.
                writer.write(payload[: max(1, len(payload) // 2)])
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                writer.close()
                return
            writer.write(payload)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return
        self._count("frames_out")

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _respond(
        self, conn: _Connection, frame: Dict[str, Any], coming
    ) -> Any:
        op = frame.get("op")
        if op not in OPS:
            raise ProtocolError(f"unknown operation {op!r}")
        deadline = self._budget(frame)
        if op == "open_session":
            return await self._open_session(conn, frame)
        if op == "close":
            conn.closing = True
            return {"closed": True}
        if conn.user is None:
            raise ProtocolError(f"{op!r} before open_session")
        user = conn.user
        if op == "stats":
            stats = await self._blocking(self._server.stats)
            stats.update(
                {f"net_{k}": v for k, v in self.stats().items()}
            )
            return stats
        if op == "execute":
            return await self._execute(user, frame, deadline, coming)
        if op == "query":
            path = self._field(frame, "path")
            return await self._blocking(
                self._server.serve, user,
                lambda s: _wire_value(s, s.query(path)),
                deadline, "query",
            )
        if op == "select":
            path = self._field(frame, "path")
            return await self._blocking(
                self._server.serve, user,
                lambda s: {"nodes": _wire_nodes(s, s.select(path))},
                deadline, "select",
            )
        # read_xml
        indent = frame.get("indent")
        if indent is not None and not isinstance(indent, str):
            raise ProtocolError("indent must be a string")
        xml = await self._blocking(
            self._server.read_xml, user, indent, deadline
        )
        return {"xml": xml}

    async def _open_session(self, conn, frame) -> Dict[str, Any]:
        if conn.user is not None:
            raise ProtocolError("session is already open")
        user = self._field(frame, "user")
        await self._blocking(self._server.session, user)
        conn.user = user
        return {
            "user": user,
            "version": self._server.database.version,
            "protocol": PROTOCOL_VERSION,
        }

    async def _execute(self, user, frame, deadline, coming) -> Dict[str, Any]:
        script = self._field(frame, "script")
        strict = frame.get("strict", False)
        if not isinstance(strict, bool):
            raise ProtocolError("strict must be a boolean")
        idem = frame.get("idempotency_key")
        if idem is not None and (not isinstance(idem, str) or not idem):
            raise ProtocolError(
                "idempotency_key must be a non-empty string"
            )
        result = await self._commit(
            user, script, strict, deadline, idem, coming
        )
        # The summary was taken under the write lock at commit time (or
        # is the original acknowledgement, for a ledger replay): the
        # live version may already include later members of the group.
        reply = dict(result.summary)
        reply["deduped"] = getattr(result, "deduped", False)
        return reply

    async def _commit(self, user, script, strict, budget, idem, coming):
        """Drive :meth:`GroupCommitter.schedule` on the event loop:
        lead on a pool thread, follow on an awaited ticket callback,
        sleep each backoff here."""
        group = self._group
        for step in group.schedule(
            user, script, strict, budget, idem, coming
        ):
            if not isinstance(step, CommitTicket):
                await asyncio.sleep(step)
            elif step.leader:
                await self._blocking(group.drive, step)
            else:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        _settled(step), step.deadline.timeout()
                    )
        return step.result

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _budget(self, frame: Dict[str, Any]) -> Optional[float]:
        value = frame.get("deadline_ms")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("deadline_ms must be a number")
        if value <= 0:
            raise ProtocolError("deadline_ms must be > 0")
        return float(value) / 1000.0

    def _field(self, frame: Dict[str, Any], name: str) -> str:
        value = frame.get(name)
        if not isinstance(value, str) or not value:
            raise ProtocolError(
                f"{frame.get('op')!r} requires a non-empty string "
                f"{name!r} field"
            )
        return value

    async def _blocking(self, fn, *args):
        if self._pool is None:
            raise RuntimeError("NetServer is not started")
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, lambda: fn(*args)
        )


def _settled(ticket: CommitTicket) -> "asyncio.Future":
    """A future on the running loop, resolved when ``ticket`` is (the
    ticket's callback fires on the leader's thread)."""
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    def settle(_ticket: CommitTicket) -> None:
        loop.call_soon_threadsafe(
            lambda: future.done() or future.set_result(None)
        )

    ticket.add_done_callback(settle)
    return future


def _wire_value(session, value) -> Dict[str, Any]:
    """One XPath value as its typed wire form (under the read lock)."""
    if is_node_set(value):
        return {"type": "node-set", "nodes": _wire_nodes(session, value)}
    if isinstance(value, bool):
        return {"type": "boolean", "value": value}
    if isinstance(value, (int, float)):
        return {"type": "number", "value": wire_number(float(value))}
    return {"type": "string", "value": str(value)}


def _wire_nodes(session, nodes) -> list:
    doc = session.view().doc
    return [serialize(doc, nid) for nid in nodes]


# ----------------------------------------------------------------------
# hosting helpers
# ----------------------------------------------------------------------
class NetServerHandle:
    """A :class:`NetServer` running on its own event-loop thread.

    For tests and the synchronous CLI: the caller gets a live
    ``host:port`` without owning an event loop.  :meth:`stop` shuts
    the listener, the pool and the loop down, in that order.
    """

    def __init__(self, net: NetServer, loop, thread) -> None:
        self.net = net
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.net.host

    @property
    def port(self) -> int:
        return self.net.port

    def stop(self, timeout: float = 10.0) -> None:
        """Close the server and join its loop thread (idempotent)."""
        if self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.net.aclose(), self._loop
        )
        try:
            future.result(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "NetServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(server: DatabaseServer, **options: Any) -> NetServerHandle:
    """Start a :class:`NetServer` on a daemon event-loop thread and
    return once it is accepting connections."""
    net = NetServer(server, **options)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(net.start())
        except BaseException as exc:  # noqa: BLE001 -- reported to caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="netserve-loop", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return NetServerHandle(net, loop, thread)
