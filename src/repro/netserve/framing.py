"""Length-prefixed JSON framing for the wire protocol.

One frame is a 4-byte big-endian unsigned length prefix followed by
exactly that many bytes of UTF-8 JSON encoding one object.  TCP gives
a byte stream, not messages: the prefix is what turns arbitrary
``recv`` splits and coalesces back into whole requests, and
:class:`FrameDecoder` is the incremental state machine that does it --
feed it whatever chunks arrive, get back whole decoded frames.

The length prefix is also the protection against hostile or broken
peers: a prefix announcing more than ``max_frame`` bytes is rejected
*before* any of those bytes are buffered
(:class:`~repro.errors.FrameTooLarge`), so a bad peer cannot balloon
the server's memory, and a frame whose bytes are not valid UTF-8 JSON
of one object raises :class:`~repro.errors.ProtocolError` instead of
wedging the decoder.  So does a body whose JSON escapes spell a lone
surrogate (``"\\ud800"``): ``json.loads`` accepts it, but the string
has no UTF-8 encoding, so nothing downstream -- the write-ahead log
stores request text verbatim -- could ever encode it again.  Both are
unrecoverable for the connection -- the
stream offset can no longer be trusted -- which is why the server
answers with one final error frame and closes.
"""

from __future__ import annotations

import json
import re
import struct
from typing import Any, Dict, List

from ..errors import FrameTooLarge, ProtocolError

__all__ = ["DEFAULT_MAX_FRAME", "HEADER", "FrameDecoder", "encode_frame"]

#: Default ceiling on one frame's JSON body, in bytes.  Big enough for
#: any realistic document serialization; small enough that a corrupt
#: or hostile length prefix cannot make the peer buffer gigabytes.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix.
HEADER = struct.Struct(">I")

#: A JSON escape in the surrogate range.  Raw surrogate bytes already
#: fail the UTF-8 decode; only an escape can smuggle one in, so a body
#: without a match needs no further check.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def encode_frame(
    payload: Dict[str, Any], max_frame: int = DEFAULT_MAX_FRAME
) -> bytes:
    """One JSON object as a length-prefixed wire frame.

    Raises:
        FrameTooLarge: the encoded body exceeds ``max_frame`` -- the
            frame the peer would refuse is never sent.
        ProtocolError: the payload is not JSON-encodable.
    """
    try:
        body = json.dumps(
            payload, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame payload is not JSON-encodable: {exc}")
    if len(body) > max_frame:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte "
            f"maximum",
            announced=len(body),
            limit=max_frame,
        )
    return HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunk stream.

    Feed raw bytes exactly as the transport delivers them -- split
    mid-prefix, mid-body, or with several frames coalesced into one
    chunk -- and collect whole decoded objects:

        decoder = FrameDecoder()
        for chunk in stream:
            for frame in decoder.feed(chunk):
                handle(frame)

    A decoder that raised is poisoned: the stream offset is
    untrustworthy after a violation, so every later :meth:`feed`
    re-raises the same error rather than resynchronizing on garbage.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be >= 1")
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._error: "ProtocolError | None" = None
        #: Whole frames decoded over this decoder's lifetime.
        self.frames_decoded = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Buffer ``data`` and return every frame it completes.

        Raises:
            FrameTooLarge: a length prefix announced a body beyond
                ``max_frame`` (raised before buffering the body).
            ProtocolError: a complete body was not one UTF-8 JSON
                object, its strings hold a lone surrogate, or the
                decoder already failed earlier.
        """
        if self._error is not None:
            raise self._error
        self._buffer += data
        frames: List[Dict[str, Any]] = []
        try:
            while True:
                if len(self._buffer) < HEADER.size:
                    break
                (length,) = HEADER.unpack_from(self._buffer)
                if length > self.max_frame:
                    raise FrameTooLarge(
                        f"peer announced a {length}-byte frame; this "
                        f"side accepts at most {self.max_frame}",
                        announced=length,
                        limit=self.max_frame,
                    )
                if len(self._buffer) < HEADER.size + length:
                    break
                body = bytes(self._buffer[HEADER.size:HEADER.size + length])
                del self._buffer[:HEADER.size + length]
                frames.append(self._decode(body))
        except ProtocolError as exc:
            self._error = exc
            raise
        return frames

    def _decode(self, body: bytes) -> Dict[str, Any]:
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                f"frame body is not UTF-8 JSON: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise ProtocolError(
                f"frame must encode a JSON object, got {type(obj).__name__}"
            )
        if _SURROGATE_ESCAPE.search(body):
            # A match may still be a valid pair (or an escaped
            # backslash): the exact check is whether the object's
            # text has a UTF-8 encoding at all.
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ProtocolError(
                    f"frame body holds a lone surrogate: {exc}"
                ) from exc
        self.frames_decoded += 1
        return obj
