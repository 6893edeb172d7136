"""Clients for the framed network protocol.

Two shapes, one wire format:

- :class:`NetClient` -- a plain blocking socket client.  One
  request/response at a time; what the tests and scripts use.
- :class:`AsyncNetClient` -- the asyncio twin, for callers that hold
  thousands of concurrent connections in one process (the E25
  benchmark drives 10k connections from a single event loop).

Both relay server-side failures as
:class:`~repro.errors.RemoteError` with the server's exception class
name in :attr:`~repro.errors.RemoteError.kind` -- branch on it the way
in-process callers branch on exception class::

    with NetClient(host, port) as client:
        client.open_session("laporte")
        try:
            client.execute(script)
        except RemoteError as exc:
            if exc.kind == "AccessDenied":
                ...

A torn or refused connection raises
:class:`~repro.errors.NetworkError`: any request in flight at that
moment has an *unknown* outcome (the server may have committed before
the ack was lost), exactly like a process crash between commit and
reply.

The unknown-outcome hole is what ``idempotency_key`` closes: re-send
the *same* script under the *same* key and the primary's exactly-once
ledger answers repeats with the original acknowledgement instead of
applying twice -- across retries, reconnects, and even a failover to a
freshly promoted primary.  :func:`execute_with_failover` packages the
loop: one key, a ring of candidate endpoints, re-sent until somebody
currently holding the primary role acknowledges.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, List, Optional

from ..errors import NetworkError, RemoteError
from .framing import DEFAULT_MAX_FRAME, FrameDecoder, encode_frame
from .protocol import request, unwrap_response

__all__ = ["AsyncNetClient", "NetClient", "execute_with_failover"]

#: Error kinds worth re-sending to another endpoint: the request never
#: committed *here*, but another node may hold (or take) the primary
#: role.  Anything else is the operation's own verdict -- relayed.
_FAILOVER_KINDS = frozenset(
    {"StaleEpochError", "CircuitOpenError", "WalWriteError"}
)


class NetClient:
    """A blocking client for one connection to a :class:`NetServer`.

    Args:
        host / port: the listener (as printed by ``repro serve``).
        timeout: socket timeout in seconds for connect and each
            receive; None blocks indefinitely.
        max_frame: per-frame byte ceiling (must be at least the
            server's for large view reads).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout)
        self._sock.settimeout(timeout)
        self._decoder = FrameDecoder(max_frame)
        self._max_frame = max_frame
        self._inbox: List[Dict[str, Any]] = []
        self._next_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # wire plumbing
    # ------------------------------------------------------------------
    def _call(self, op: str, **fields: Any) -> Any:
        if self._closed:
            raise NetworkError("client is closed")
        self._next_id += 1
        rid = self._next_id
        try:
            self._sock.sendall(
                encode_frame(request(rid, op, **fields), self._max_frame)
            )
            response = self._receive(rid)
        except (OSError, socket.timeout) as exc:
            self.close()
            raise NetworkError(
                f"connection lost during {op!r}: {exc} "
                f"(outcome of the request is unknown)"
            ) from exc
        return unwrap_response(response)

    def _receive(self, rid: int) -> Dict[str, Any]:
        while True:
            for index, frame in enumerate(self._inbox):
                if frame.get("id") == rid:
                    return self._inbox.pop(index)
            data = self._sock.recv(64 * 1024)
            if not data:
                raise OSError("server closed the connection mid-response")
            self._inbox.extend(self._decoder.feed(data))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def open_session(self, user: str) -> Dict[str, Any]:
        """Authenticate the connection; must be the first call."""
        return self._call("open_session", user=user)

    def query(
        self, path: str, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Evaluate XPath on the session's view; a typed wire value."""
        return self._call("query", path=path, deadline_ms=deadline_ms)

    def select(
        self, path: str, deadline_ms: Optional[float] = None
    ) -> List[str]:
        """The matched nodes, each serialized as XML."""
        return self._call("select", path=path, deadline_ms=deadline_ms)[
            "nodes"
        ]

    def read_xml(
        self,
        indent: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> str:
        """The session's whole authorized view as XML."""
        return self._call(
            "read_xml", indent=indent, deadline_ms=deadline_ms
        )["xml"]

    def execute(
        self,
        script: str,
        strict: bool = False,
        deadline_ms: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply an XUpdate script; returns the commit summary.  The
        result frame arrives only after the commit is durable (group-
        fsynced when the server batches).  With ``idempotency_key``
        set, a re-send of the same key is answered from the server's
        exactly-once ledger (``"deduped": true`` in the summary)
        instead of being applied again."""
        return self._call(
            "execute",
            script=script,
            strict=strict,
            deadline_ms=deadline_ms,
            idempotency_key=idempotency_key,
        )

    def stats(self) -> Dict[str, Any]:
        """The server's serving ledger plus ``net_*`` counters."""
        return self._call("stats")

    def close(self) -> None:
        """Say goodbye (best effort) and drop the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(
                encode_frame(
                    request(self._next_id + 1, "close"), self._max_frame
                )
            )
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncNetClient:
    """The asyncio twin of :class:`NetClient` (one connection, calls
    awaited one at a time per connection -- hold many client objects
    to hold many connections)."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder(max_frame)
        self._max_frame = max_frame
        self._inbox: List[Dict[str, Any]] = []
        self._next_id = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, *, max_frame: int = DEFAULT_MAX_FRAME
    ) -> "AsyncNetClient":
        client = cls(max_frame)
        client._reader, client._writer = await asyncio.open_connection(
            host, port
        )
        return client

    async def _call(self, op: str, **fields: Any) -> Any:
        if self._writer is None:
            raise NetworkError("client is not connected")
        self._next_id += 1
        rid = self._next_id
        try:
            self._writer.write(
                encode_frame(request(rid, op, **fields), self._max_frame)
            )
            await self._writer.drain()
            response = await self._receive(rid)
        except (OSError, asyncio.IncompleteReadError) as exc:
            await self.close()
            raise NetworkError(
                f"connection lost during {op!r}: {exc} "
                f"(outcome of the request is unknown)"
            ) from exc
        return unwrap_response(response)

    async def _receive(self, rid: int) -> Dict[str, Any]:
        while True:
            for index, frame in enumerate(self._inbox):
                if frame.get("id") == rid:
                    return self._inbox.pop(index)
            data = await self._reader.read(64 * 1024)
            if not data:
                raise OSError("server closed the connection mid-response")
            self._inbox.extend(self._decoder.feed(data))

    async def open_session(self, user: str) -> Dict[str, Any]:
        """Authenticate this connection as ``user`` (first call only)."""
        return await self._call("open_session", user=user)

    async def query(
        self, path: str, deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Evaluate ``path`` on the view; returns the typed wire value."""
        return await self._call("query", path=path, deadline_ms=deadline_ms)

    async def select(
        self, path: str, deadline_ms: Optional[float] = None
    ) -> List[str]:
        """The nodes ``path`` selects on the view, serialized."""
        result = await self._call(
            "select", path=path, deadline_ms=deadline_ms
        )
        return result["nodes"]

    async def read_xml(
        self,
        indent: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> str:
        """The session's authorized view, serialized."""
        result = await self._call(
            "read_xml", indent=indent, deadline_ms=deadline_ms
        )
        return result["xml"]

    async def execute(
        self,
        script: str,
        strict: bool = False,
        deadline_ms: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply an XUpdate script; acknowledged means durable.  A
        re-send under the same ``idempotency_key`` is answered from
        the exactly-once ledger, never applied twice."""
        return await self._call(
            "execute",
            script=script,
            strict=strict,
            deadline_ms=deadline_ms,
            idempotency_key=idempotency_key,
        )

    async def stats(self) -> Dict[str, Any]:
        """The server ledger plus the front-end's ``net_*`` counters."""
        return await self._call("stats")

    async def close(self) -> None:
        """Close the connection (best-effort ``close`` op first)."""
        writer, self._writer = self._writer, None
        if writer is None:
            return
        try:
            writer.write(
                encode_frame(
                    request(self._next_id + 1, "close"), self._max_frame
                )
            )
            await writer.drain()
        except (OSError, ConnectionError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


def execute_with_failover(
    endpoints,
    user: str,
    script: str,
    *,
    idempotency_key: str,
    strict: bool = False,
    deadline_ms: Optional[float] = None,
    timeout: Optional[float] = None,
    rounds: int = 2,
) -> Dict[str, Any]:
    """Send one write, at most once applied, across a failing-over
    cluster.

    Walks the candidate ``endpoints`` (an iterable of ``(host, port)``
    pairs) re-sending the *same* script under the *same*
    ``idempotency_key`` until one endpoint -- whoever currently holds
    the primary role -- acknowledges.  Because every send carries the
    key, the loop is safe against the unknown-outcome hole: if the old
    primary committed but died before the ack reached us, the re-send
    (to it after restart, or to its promoted successor, whose ledger
    was rebuilt from the shipped log) is answered with the original
    summary and ``"deduped": true``.

    Re-sent on: :class:`~repro.errors.NetworkError` (connection
    refused/torn -- outcome unknown) and the relayed kinds in which the
    endpoint *refused to be primary* (``StaleEpochError``,
    ``CircuitOpenError``, ``WalWriteError``).  Every other failure --
    ``AccessDenied``, a parse error, a deadline -- is the request's own
    verdict and is raised immediately.

    Args:
        endpoints: candidate ``(host, port)`` pairs, tried in order.
        user: subject to open the session as.
        script: the XUpdate script.
        idempotency_key: required -- without it a retry could apply
            the script twice, which is the bug this helper exists to
            prevent.
        strict / deadline_ms: as :meth:`NetClient.execute`.
        timeout: per-connection socket timeout.
        rounds: full passes over the endpoint list before giving up.

    Raises:
        NetworkError: no endpoint acknowledged in ``rounds`` passes.
        RemoteError: an endpoint failed the request on its merits.
    """
    if not idempotency_key:
        raise ValueError("idempotency_key must be a non-empty string")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    ring = list(endpoints)
    if not ring:
        raise ValueError("endpoints must name at least one (host, port)")
    failures: List[str] = []
    for _ in range(rounds):
        for host, port in ring:
            try:
                with NetClient(host, port, timeout=timeout) as client:
                    client.open_session(user)
                    return client.execute(
                        script,
                        strict=strict,
                        deadline_ms=deadline_ms,
                        idempotency_key=idempotency_key,
                    )
            except NetworkError as exc:
                failures.append(f"{host}:{port}: {exc}")
            except RemoteError as exc:
                if exc.kind not in _FAILOVER_KINDS:
                    raise
                failures.append(f"{host}:{port}: {exc.kind}")
    raise NetworkError(
        f"no endpoint acknowledged after {rounds} round(s) over "
        f"{len(ring)} endpoint(s): " + "; ".join(failures[-len(ring):])
    )
