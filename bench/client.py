"""The load generator: closed-loop lanes over real sockets.

Closed loop because a connection is one authenticated subject (the
paper's ``logged(s)``) whose application waits for each reply: a lane
sends a slot's next request only when that slot's previous reply has
arrived.  ``write_group`` keeps several slots in flight per connection,
which the one-call-at-a-time :class:`~repro.netserve.NetClient` cannot
do, so persistent lanes speak the wire protocol through its public
pieces (``encode_frame`` / ``FrameDecoder`` / ``request`` /
``unwrap_response``).  Cold logins (``session_churn``) use
:class:`NetClient` itself.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import NetworkError, ProtocolError, RemoteError
from repro.netserve import FrameDecoder, NetClient, encode_frame
from repro.netserve.protocol import request, unwrap_response

from .workloads import Lane, Op

#: Socket timeout: far above any op here, so a hung server fails the
#: run instead of hanging the benchmark.
TIMEOUT = 60.0

_FIELD = {"query": "path", "select": "path", "execute": "script"}


@dataclass
class Sample:
    """One completed op as the client saw it."""

    kind: str
    shape: str
    seconds: float
    ok: bool
    done: float  # perf_counter at the reply


def request_frame(rid: int, op: Op) -> Dict[str, Any]:
    """The request frame that carries ``op`` (not for ``open`` ops)."""
    return request(rid, op.wire_op, **{_FIELD[op.wire_op]: op.arg})


class PersistentLane:
    """One long-lived connection running one op stream per slot."""

    def __init__(self, host: str, port: int, lane: Lane) -> None:
        self._lane = lane
        self._decoder = FrameDecoder()
        self._next_id = 0
        self._sock = socket.create_connection((host, port), TIMEOUT)
        # Pipelined small frames must not wait on Nagle for the ack of
        # the frame before them (the server's asyncio side already
        # sets TCP_NODELAY).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send(request(0, "open_session", user=lane.user))
        unwrap_response(self._receive()[0])

    def _send(self, frame: Dict[str, Any]) -> None:
        self._sock.sendall(encode_frame(frame))

    def _receive(self) -> List[Dict[str, Any]]:
        while True:
            data = self._sock.recv(64 * 1024)
            if not data:
                raise NetworkError("server closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                return frames

    def run(
        self, *, stop_at: Optional[float] = None,
        per_stream: Optional[int] = None,
    ) -> List[Sample]:
        """Drive every slot until ``stop_at`` (perf_counter seconds) or
        for ``per_stream`` ops each, then drain what is in flight."""
        samples: List[Sample] = []
        in_flight: Dict[int, Tuple[int, Op, float]] = {}
        sent = [0] * len(self._lane.streams)

        def send_next(slot: int) -> None:
            if per_stream is not None and sent[slot] >= per_stream:
                return
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            op = next(self._lane.streams[slot])
            self._next_id += 1
            in_flight[self._next_id] = (slot, op, time.perf_counter())
            sent[slot] += 1
            self._send(request_frame(self._next_id, op))

        for slot in range(len(self._lane.streams)):
            send_next(slot)
        while in_flight:
            for frame in self._receive():
                done = time.perf_counter()
                slot, op, started = in_flight.pop(frame["id"])
                try:
                    ok = op.check(unwrap_response(frame))
                except RemoteError:
                    ok = False
                samples.append(
                    Sample(op.kind, op.shape, done - started, ok, done))
                send_next(slot)
        return samples

    def close(self) -> None:
        try:
            self._send(request(self._next_id + 1, "close"))
        except OSError:
            pass
        self._sock.close()


class ChurnLane:
    """Cold logins, one connection each: connect, ``open_session``,
    ``select /patients/*``, close.  The sample spans connect to the
    first correct view reply."""

    def __init__(self, host: str, port: int, lane: Lane) -> None:
        self._address = (host, port)
        self._stream: Iterator[Op] = lane.streams[0]

    def run(self, *, per_stream: Optional[int] = None,
            stop_at: Optional[float] = None) -> List[Sample]:
        """The stream's next ``per_stream`` logins (all that are left
        when None); a login workload has no use for ``stop_at``."""
        samples: List[Sample] = []
        for op in itertools.islice(self._stream, per_stream):
            started = time.perf_counter()
            try:
                with NetClient(*self._address, timeout=TIMEOUT) as client:
                    client.open_session(op.arg)
                    nodes = client.select("/patients/*")
                    done = time.perf_counter()
                ok = op.check(nodes)
            except (NetworkError, ProtocolError, RemoteError):
                done, ok = time.perf_counter(), False
            samples.append(
                Sample(op.kind, op.shape, done - started, ok, done))
        return samples

    def close(self) -> None:
        pass


def open_lanes(host: str, port: int, lanes: List[Lane]) -> list:
    """Connect every lane (persistent ones also log in)."""
    return [
        (ChurnLane if lane.user is None else PersistentLane)(host, port, lane)
        for lane in lanes
    ]


def run_parallel(calls: List[Callable[[], Any]], timeout: float) -> List[Any]:
    """Run each call on its own thread; results in order.  A call that
    raised re-raises here, and so does one still running at
    ``timeout`` -- a lane never fails silently."""
    results: List[Any] = [None] * len(calls)
    errors: List[Optional[BaseException]] = [None] * len(calls)

    def work(index: int) -> None:
        try:
            results[index] = calls[index]()
        except BaseException as exc:  # noqa: BLE001 -- re-raised below
            errors[index] = exc

    threads = [
        threading.Thread(target=work, args=(index,), daemon=True)
        for index in range(len(calls))
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            raise TimeoutError(f"a lane was still running after {timeout}s")
    for error in errors:
        if error is not None:
            raise error
    return results
