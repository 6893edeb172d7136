"""The write-ahead log's on-disk codec: one encoder, one reader.

Everything that knows the segment byte format lives here.  A segment
starts with the magic line ``REPROWAL1\\n`` and holds a sequence of
length-prefixed, checksummed frames::

    [4 bytes big-endian payload length]
    [4 bytes big-endian CRC-32 of the payload]
    [payload: UTF-8 JSON object carrying at least ``lsn`` and ``kind``]

:func:`encode_frame` writes that shape; :class:`FrameReader` reads it
back from any byte offset and, when it cannot continue, says *why* with
a typed :class:`TornTail` verdict.  The reader only reports -- what a
verdict *means* is its consumer's decision:

================================  ==============  ================  ==========
verdict kind                      dead log (scan  live follower     scrubber
                                  recover, open)  (``WalStream``)
================================  ==============  ================  ==========
``unreadable``                    never cut away  ``WalStreamGap``  read error
``magic`` ``short-header``        tail rule       in flight: stop,  tail rule
``length`` ``truncated`` ``crc``                  retry next poll
``payload``
``lsn``, or any verdict *behind*  tail rule       ``WalStreamGap``  tail rule
the follower's cursor
================================  ==============  ================  ==========

The tail rule (:func:`repro.wal.log.quarantine_non_tail`): damage in the
last segment with no intact frame behind it (:meth:`TornTail.resync`
finds none) is what a crash mid-append leaves -- truncated on
reopen/repair, benign to the scrubber.  Damage with an intact frame
behind it, or in a non-last segment, cannot come from a crash: the
segment is quarantined and repaired from a peer, never truncated.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..faults import faults

__all__ = ["MAGIC", "FrameReader", "TornTail", "WalRecord", "encode_frame"]

MAGIC = b"REPROWAL1\n"
_HEADER = struct.Struct(">II")
_MAX_RECORD = 1 << 28  # 256 MiB: anything larger is a corrupt length


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record.

    Attributes:
        lsn: the record's log sequence number.
        kind: record kind (see :mod:`repro.wal.log`).
        payload: the full decoded JSON object (``lsn``/``kind``
            included).
        segment: path of the segment file holding the record.
        offset: byte offset of the record's header in the segment.
        length: total on-disk size (header + payload).
    """

    lsn: int
    kind: str
    payload: Dict[str, Any]
    segment: str
    offset: int
    length: int

    @property
    def epoch(self) -> int:
        """The fencing epoch the record was written under (0 for
        records that predate epochs -- the compat default)."""
        return int(self.payload.get("epoch", 0))


@dataclass(frozen=True)
class TornTail:
    """Where -- and why -- the usable log ends early: the reader's
    verdict.

    Attributes:
        segment: segment file holding the damage.
        offset: byte offset of the first unusable byte.
        reason: human-readable diagnosis (short read, CRC mismatch,
            lsn discontinuity, ...).
        dropped_bytes: bytes from ``offset`` to the end of that
            segment.
        dropped_segments: later segment files (unreachable once the
            log is cut here).
        kind: the machine-readable diagnosis consumers branch on:
            ``unreadable``, ``magic``, ``short-header``, ``length``,
            ``truncated``, ``crc``, ``payload`` or ``lsn``.
    """

    segment: str
    offset: int
    reason: str
    dropped_bytes: int
    dropped_segments: Tuple[str, ...] = ()
    kind: str = ""

    def __str__(self) -> str:
        extra = (
            f" (+{len(self.dropped_segments)} later segment(s))"
            if self.dropped_segments
            else ""
        )
        return (
            f"torn tail at {os.path.basename(self.segment)}:{self.offset}: "
            f"{self.reason}; {self.dropped_bytes} byte(s) dropped{extra}"
        )

    def resync(self) -> Optional[WalRecord]:
        """The first intact frame past the damage, or None.

        Finding one proves the damage is *not* the end of what was
        ever written (a crash cannot write valid frames after the
        point where it died).  Every payload is a JSON object, so the
        search jumps between ``{`` bytes; for a genuine torn tail only
        the short in-flight remainder is read.

        Only the ``dropped_bytes`` the verdict was drawn from are
        searched.  On the live tail the damage is usually the writer's
        half-written record; whatever the writer appends after the
        reader's read -- the rest of that record, then more records --
        lies past them, and must not be taken for intact frames behind
        corruption.

        Raises:
            OSError: the segment cannot be read now.
        """
        base = max(self.offset + 1, len(MAGIC))
        with faults.open(self.segment, "rb") as handle:
            handle.seek(base)
            data = handle.read(max(0, self.offset + self.dropped_bytes - base))
        brace = data.find(b"{", _HEADER.size)
        while brace != -1:
            frame = _frame_at(data, brace - _HEADER.size, self.segment, base)
            if isinstance(frame, WalRecord) and frame.lsn > 0:
                return frame
            brace = data.find(b"{", brace + 1)
        return None


def encode_frame(payload: Dict[str, Any]) -> Tuple[bytes, bytes]:
    """``(header, body)`` for one record: the body is the compact JSON
    payload, the header its length and CRC-32."""
    body = json.dumps(
        payload, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF), body


def _frame_at(
    data: bytes, pos: int, segment: str, base: int,
    expect_lsn: Optional[int] = None,
) -> Union[WalRecord, Tuple[str, str]]:
    """Decode the frame whose header starts at ``data[pos]``.

    Returns the record, or ``(kind, reason)`` naming the first check
    that failed.  ``base`` is the segment offset of ``data[0]``;
    ``expect_lsn`` (when given) is the lsn continuity demands.
    """
    left = len(data) - pos
    if left < _HEADER.size:
        return "short-header", f"short record header ({left} byte(s))"
    length, crc = _HEADER.unpack_from(data, pos)
    if length > _MAX_RECORD:
        return "length", f"implausible record length {length}"
    start = pos + _HEADER.size
    if len(data) - start < length:
        return "truncated", (
            f"record payload truncated ({len(data) - start} of {length} "
            f"byte(s))"
        )
    body = data[start:start + length]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return "crc", "CRC mismatch"
    try:
        payload = json.loads(body.decode("utf-8"))
        lsn = int(payload["lsn"])
        kind = str(payload["kind"])
    except Exception as exc:
        return "payload", f"undecodable payload ({exc})"
    if expect_lsn is not None and lsn != expect_lsn:
        return "lsn", f"lsn discontinuity (found {lsn}, expected {expect_lsn})"
    return WalRecord(
        lsn, kind, payload, segment, base + pos, _HEADER.size + length
    )


class FrameReader:
    """Iterate the records of one segment from a byte offset.

    Iteration reads only the bytes from ``offset`` to the end of the
    segment (one ``read`` through the fault seam), decodes lazily,
    and never raises on damage: when it stops, :attr:`damage` holds the
    verdict (None = clean end of segment).

    Args:
        segment: the segment file.
        offset: where to start; 0 verifies the magic first, anything
            else must be a frame boundary a previous read reported.
        expect_lsn: lsn the first record must carry (None skips the
            continuity check for the first record).

    Attributes:
        offset: the boundary after the last record yielded (or after
            the magic) -- where a later read resumes.
        damage: why iteration stopped early, once it has.
    """

    def __init__(
        self, segment: str, offset: int = 0, expect_lsn: Optional[int] = None
    ) -> None:
        self.segment = segment
        self.offset = offset
        self.damage: Optional[TornTail] = None
        self._expect = expect_lsn

    def _stop(self, kind: str, reason: str, offset: int, size: int) -> None:
        self.damage = TornTail(
            self.segment, offset, reason, max(0, size - offset), kind=kind
        )

    def __iter__(self) -> Iterator[WalRecord]:
        base = self.offset
        try:
            with faults.open(self.segment, "rb") as handle:
                on_disk = os.fstat(handle.fileno()).st_size
                handle.seek(base)
                data = handle.read()
        except OSError as exc:
            # EIO degrades like damage at offset 0; whether that raises,
            # truncates or just counts is the consumer's policy.
            self._stop("unreadable", f"segment unreadable ({exc})", 0, 0)
            return
        if on_disk < base:
            self._stop(
                "truncated",
                f"segment ends at {on_disk}, before offset {base}",
                on_disk, on_disk,
            )
            return
        size = base + len(data)
        pos = 0
        if base == 0:
            if not data.startswith(MAGIC):
                self._stop("magic", "bad segment magic", 0, size)
                return
            pos = self.offset = len(MAGIC)
        while pos < len(data):
            frame = _frame_at(data, pos, self.segment, base, self._expect)
            if not isinstance(frame, WalRecord):
                self._stop(*frame, base + pos, size)
                return
            pos += frame.length
            self.offset = base + pos
            self._expect = frame.lsn + 1
            yield frame
