"""The write-ahead log: durable, replayable commit records.

The paper's update semantics makes ``dbnew`` a deterministic function
of ``db`` and the committed XUpdate script (formulae (2)-(9)), so a
commit is durable as soon as a *description* of it is -- there is no
need to write page images.  One :class:`WriteAheadLog` owns a directory
of segment files; the database's commit point appends one record per
commit **before** installing the new document, and crash recovery
(:mod:`repro.wal.recover`) replays the committed prefix through the
real secure executor path.

Record kinds
------------

The segment byte format -- magic, length/CRC frames, and what each
kind of damage means to each consumer -- is :mod:`repro.wal.frame`'s
alone.  Every payload carries a global, strictly increasing ``lsn``
and a ``kind``:

=================  ====================================================
``update``         a session commit: post-commit ``version``, ``user``,
                   the committed ``script`` (XUpdate XML), ``strict``
``admin``          an unsecured administrative commit: ``version``,
                   ``script``
``state``          fallback for commits with no XUpdate spelling: the
                   full post-commit snapshot (``data``)
``subjects``       a subject-hierarchy mutation: ``op`` + ``args``
``policy``         a policy mutation: ``op`` + ``args``
``checkpoint``     a snapshot boundary: ``version`` + snapshot filename
=================  ====================================================

The torn-tail rule, and how a live follower and the scrubber read the
same damage instead, is tabulated once in :mod:`repro.wal.frame`.

Fencing epochs: a log opened with ``epoch=N > 0`` stamps ``"epoch": N``
into every record it appends, and its checkpoint snapshots carry the
epoch in their filename (``checkpoint-<lsn>-<version>-e<epoch>.xml``).
Records and checkpoints written before this field existed -- or by the
implicit pre-failover epoch 0 -- simply omit it and load as epoch 0
everywhere (``payload.get("epoch", 0)``), so old logs replay
unchanged.  The epoch is monotone per directory: opening with an epoch
below what the directory already holds is refused.  See
:mod:`repro.replication.supervisor` for who bumps it and why.

Fsync policy: ``"always"`` fsyncs every append (a commit acknowledged
is a commit recovered); ``"os"`` never fsyncs (the OS page cache
decides -- segment rotations and checkpoints still fsync).  Batching
is not a policy: a served commit reaches the log through group commit
(:mod:`repro.serving.group`), whose :meth:`WriteAheadLog.group` window
defers each member's fsync to the group's one :meth:`sync_group`.

Kill-points consulted (:mod:`repro.faults`): ``wal-before-append``
before any byte of a record is written, ``wal-mid-record`` tearing the
record's one write in half (a torn tail), ``wal-before-fsync`` once the
record is fully written but not yet durable, and
``checkpoint-mid-snapshot`` tearing a checkpoint snapshot's write.  All
segment and quarantine-marker I/O goes through the same seam.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    WalCorruptionError,
    WalStreamGap,
    WalWriteError,
    classify_disk_error,
)
from ..faults import faults, kill_point
from ..storage import (
    _fsync_directory,
    _write_atomically,
    dump_database,
    dump_state,
)
from ..xupdate.serializer import XUpdateSerializeError, dump_xupdate
from .frame import MAGIC, FrameReader, TornTail, WalRecord, encode_frame

__all__ = [
    "Checkpoint",
    "DamageClass",
    "QUARANTINE_SUFFIX",
    "ScanResult",
    "TornTail",
    "WalRecord",
    "WalStream",
    "WriteAheadLog",
    "classify_damage",
    "list_checkpoints",
    "quarantine_non_tail",
    "quarantine_reason",
    "quarantine_segment",
    "quarantined_segments",
    "scan_directory",
    "scan_segment",
    "tail_lsn",
    "truncate_torn_tail",
]

_SEGMENT_RE = re.compile(r"^segment-(\d{10})\.wal$")
_CHECKPOINT_RE = re.compile(
    r"^checkpoint-(\d{10})-(\d{10})(?:-e(\d+))?\.xml$"
)

#: Sidecar marker a quarantined segment carries: ``<segment>.quarantined``
#: holding the diagnosis.  A quarantined segment is never replayed, never
#: streamed past, and blocks re-opening the log for writing until
#: anti-entropy repair (or an operator) clears it.
QUARANTINE_SUFFIX = ".quarantined"


@dataclass(frozen=True)
class Checkpoint:
    """One checkpoint snapshot on disk.

    Attributes:
        lsn: every record with a larger lsn post-dates the snapshot.
        version: the database version the snapshot captures.
        path: the snapshot file (a ``<securedb>`` dump with integrity
            header).
        epoch: the fencing epoch the snapshot was cut under (0 for
            old-format filenames without the ``-e<epoch>`` suffix).
    """

    lsn: int
    version: int
    path: str
    epoch: int = 0


@dataclass
class ScanResult:
    """Everything a read-only pass over a log directory found.

    Attributes:
        records: the usable records, in lsn order.
        torn: where the usable log ends early, or None when every
            segment read cleanly to its end.
        segments: segment file paths, in lsn order.
    """

    records: List[WalRecord] = field(default_factory=list)
    torn: Optional[TornTail] = None
    segments: List[str] = field(default_factory=list)

    @property
    def last_lsn(self) -> int:
        """The last usable record's lsn (0 for an empty log)."""
        return self.records[-1].lsn if self.records else 0


# ---------------------------------------------------------------------------
# read side
# ---------------------------------------------------------------------------
def scan_segment(
    path: str, expect_lsn: Optional[int] = None
) -> Tuple[List[WalRecord], Optional[TornTail]]:
    """Decode one segment file; never raises on damage.

    Args:
        path: the segment file.
        expect_lsn: lsn the first record must carry (None skips the
            continuity check for the first record).

    Returns:
        ``(records, torn)``: the records readable in order, and the
        reader's verdict if the segment did not end cleanly (damage is
        *reported*, not raised -- strictness is the caller's policy
        decision).
    """
    reader = FrameReader(path, 0, expect_lsn)
    return list(reader), reader.damage


@dataclass(frozen=True)
class DamageClass:
    """The tail rule's reading of a :class:`TornTail` (see
    :mod:`repro.wal.frame`).

    Attributes:
        tail: True when the damage is consistent with a crash
            mid-append (nothing decodable follows) -- safe to
            truncate.  False means non-tail corruption: quarantine and
            repair, never truncate.
        resync_offset: (non-tail only) byte offset of the first intact
            record found past the damage, 0 when none was located
            (e.g. the damage spans later whole segments).
        resync_lsn: (non-tail only) that record's lsn, 0 when none.
    """

    tail: bool
    resync_offset: int = 0
    resync_lsn: int = 0


def classify_damage(torn: TornTail) -> DamageClass:
    """Distinguish a crash's torn tail from non-tail corruption.

    The dead-log reading of a verdict: an intact frame past the damage
    (:meth:`TornTail.resync`) proves the damage is *not* the end of
    what was ever written, so the torn-tail rule must not truncate
    there.  Damage that drops whole later segments is non-tail by
    definition, and a segment that cannot be read proves nothing either
    way -- non-tail, so nobody truncates damage they cannot see.
    """
    if torn.dropped_segments or torn.kind == "unreadable":
        return DamageClass(tail=False)
    try:
        intact = torn.resync()
    except OSError:
        return DamageClass(tail=False)
    if intact is None:
        return DamageClass(tail=True)
    return DamageClass(
        tail=False, resync_offset=intact.offset, resync_lsn=intact.lsn
    )


def quarantine_non_tail(torn: TornTail) -> str:
    """Apply the tail rule to a verdict: ``""`` for a crash's torn tail
    (the caller may truncate it); otherwise the segment is quarantined
    -- no writer truncates it, no stream serves it -- and the returned
    diagnosis says what proves the damage is not a tail."""
    damage = classify_damage(torn)
    if damage.tail:
        return ""
    if damage.resync_lsn:
        why = (
            f"non-tail corruption: an intact record (lsn "
            f"{damage.resync_lsn}) follows at offset {damage.resync_offset}"
        )
    elif torn.dropped_segments:
        why = "non-tail corruption: damage in a non-last segment"
    else:
        why = "non-tail corruption: the segment cannot be read"
    quarantine_segment(torn.segment, f"{torn} ({why})")
    return why


def truncate_torn_tail(torn: TornTail) -> None:
    """Make the torn-tail rule physical truth: cut the last segment at
    the verdict's offset (a segment torn at byte 0 is removed), so the
    directory re-opens for appending.  Only for damage
    :func:`classify_damage` calls a tail -- which never has later
    segments behind it."""
    if torn.offset == 0:
        with contextlib.suppress(OSError):
            os.unlink(torn.segment)
    else:
        with faults.open(torn.segment, "r+b") as handle:
            handle.truncate(torn.offset)
            handle.flush()
            faults.fsync(handle)


def quarantine_segment(path: str, reason: str) -> str:
    """Mark a segment as corrupt with a sidecar file; returns its path.

    The marker (``<segment>.quarantined``) holds the human-readable
    diagnosis.  Quarantining is idempotent -- re-quarantining appends
    nothing and keeps the first diagnosis.
    """
    marker = path + QUARANTINE_SUFFIX
    if not os.path.exists(marker):
        with faults.open(marker, "w", encoding="utf-8") as handle:
            handle.write(reason.rstrip("\n") + "\n")
            handle.flush()
            with contextlib.suppress(OSError):
                faults.fsync(handle)
        _fsync_directory(os.path.dirname(marker) or ".")
    return marker


def quarantine_reason(path: str) -> Optional[str]:
    """The diagnosis a segment was quarantined with, or None when it
    carries no marker.  A marker that exists but cannot be read still
    quarantines the segment."""
    marker = path + QUARANTINE_SUFFIX
    try:
        with faults.open(marker, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except FileNotFoundError:
        return None
    except OSError as exc:
        return f"quarantine marker unreadable ({exc})"


def quarantined_segments(directory: str) -> List[str]:
    """Segment paths in ``directory`` carrying a quarantine marker."""
    out = []
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if name.endswith(QUARANTINE_SUFFIX):
            segment = os.path.join(directory, name[: -len(QUARANTINE_SUFFIX)])
            if _SEGMENT_RE.match(os.path.basename(segment)):
                out.append(segment)
    return out


def _segment_files(directory: str) -> List[Tuple[int, str]]:
    """``(first_lsn, path)`` for every segment file, in lsn order."""
    out: List[Tuple[int, str]] = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            out.append((int(match.group(1)), os.path.join(directory, name)))
    return sorted(out)


def scan_directory(directory: str) -> ScanResult:
    """Read every record the log directory holds, in lsn order.

    Applies the torn-tail rule across segments: the first unreadable
    record ends the usable log, and any later segment files are
    reported as dropped in the :class:`TornTail` rather than read.
    """
    result = ScanResult()
    files = _segment_files(directory)
    result.segments = [path for _lsn, path in files]
    expect: Optional[int] = None
    for index, (first_lsn, path) in enumerate(files):
        if expect is not None and first_lsn != expect:
            result.torn = TornTail(
                path,
                0,
                f"segment starts at lsn {first_lsn}, expected {expect}",
                os.path.getsize(path),
                tuple(p for _l, p in files[index + 1:]),
                kind="lsn",
            )
            return result
        records, torn = scan_segment(path, expect_lsn=expect)
        result.records.extend(records)
        expect = records[-1].lsn + 1 if records else (expect or first_lsn)
        if torn is not None:
            result.torn = replace(
                torn,
                dropped_segments=tuple(p for _l, p in files[index + 1:]),
            )
            return result
    return result


def tail_lsn(directory: str) -> int:
    """The last usable lsn on disk (0 for an empty log), learned from
    the newest segment alone and without keeping a record: a segment's
    filename carries its first lsn, so nothing older needs decoding."""
    files = _segment_files(directory)
    if not files:
        return 0
    first_lsn, path = files[-1]
    last = first_lsn - 1
    for record in FrameReader(path, 0, first_lsn):
        last = record.lsn
    return last


def list_checkpoints(directory: str) -> List[Checkpoint]:
    """Every checkpoint snapshot in the directory, oldest first."""
    out: List[Checkpoint] = []
    if not os.path.isdir(directory):
        return out
    for name in os.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            out.append(
                Checkpoint(
                    int(match.group(1)),
                    int(match.group(2)),
                    os.path.join(directory, name),
                    int(match.group(3) or 0),
                )
            )
    return sorted(out, key=lambda c: c.lsn)


# ---------------------------------------------------------------------------
# following (replication feed)
# ---------------------------------------------------------------------------
class WalStream:
    """A resumable cursor over a live log directory, for followers.

    Where :func:`scan_directory` reads a *dead* log once, a stream
    tails a directory another process (or thread) is still appending
    to: :meth:`poll` returns every record past the cursor that is
    fully durable on disk right now, and the cursor advances so the
    next poll picks up where this one stopped.  An undecodable tail is
    *in flight* here, not damage (the live-follower column of
    :mod:`repro.wal.frame`'s table): the stream stops in front of it
    and retries on the next poll.

    Segment rotation is followed transparently.  Checkpoint retention
    is the one thing a follower cannot survive incrementally: when the
    segment holding the cursor's next lsn has been pruned away (the
    follower lagged behind the retention window) or the history behind
    the cursor was rewritten, :meth:`poll` raises
    :class:`~repro.errors.WalStreamGap` and the follower must re-seed
    from the newest checkpoint (:meth:`repro.replication.Replica.catch_up`).

    Kill-point consulted: ``stream-truncated`` at the top of every
    poll -- the chaos lane uses it to simulate the feed being cut out
    from under a replica.

    Args:
        directory: the log directory to follow.
        from_lsn: deliver records *after* this lsn (0 follows from the
            beginning of the retained log).
    """

    def __init__(self, directory: str, from_lsn: int = 0) -> None:
        if from_lsn < 0:
            raise ValueError("from_lsn must be >= 0")
        self._directory = os.path.abspath(directory)
        self._next_lsn = from_lsn + 1
        self._segment: Optional[str] = None
        self._offset = 0
        self._in_flight: Optional[TornTail] = None

    @property
    def directory(self) -> str:
        """The log directory being followed."""
        return self._directory

    @property
    def next_lsn(self) -> int:
        """The lsn the next delivered record will carry."""
        return self._next_lsn

    @property
    def in_flight(self) -> Optional[TornTail]:
        """The undecodable tail the last poll stopped in front of, or
        None when it ended at a clean end-of-log."""
        return self._in_flight

    def poll(self, max_records: Optional[int] = None) -> List[WalRecord]:
        """Every durable record past the cursor, in lsn order.

        Returns an empty list when the follower is caught up (or the
        only bytes past the cursor are an in-flight append).  The
        cursor advances past everything returned.

        Args:
            max_records: stop after this many records (None reads to
                the current end of log); the rest stay for later polls.

        Raises:
            WalStreamGap: the cursor's position is no longer on disk
                (pruned by checkpoint retention, or rewritten); the
                follower must re-seed from a checkpoint.
            InjectedFault: the ``stream-truncated`` kill-point fired.
        """
        kill_point("stream-truncated", next_lsn=self._next_lsn)
        out: List[WalRecord] = []
        self._in_flight = None
        while max_records is None or len(out) < max_records:
            files = _segment_files(self._directory)
            if not files:
                if self._next_lsn > 1:
                    raise self._gap("log vanished under the stream")
                break  # nothing written yet
            candidates = [
                (first, path) for first, path in files
                if first <= self._next_lsn
            ]
            if not candidates:
                raise self._gap(
                    f"lsn {self._next_lsn} pruned away (oldest retained "
                    f"segment starts at {files[0][0]})"
                )
            first_lsn, path = candidates[-1]
            if path != self._segment:
                self._segment, self._offset = path, 0
            self._drain_segment(first_lsn, out, max_records)
            if self._in_flight is not None:
                break  # stopped in front of an in-flight append
            successor = next(
                (p for f, p in files if f == self._next_lsn and p != path),
                None,
            )
            if successor is None:
                break  # caught up at the live tail
            self._segment, self._offset = successor, 0
        return out

    def _gap(self, why: str) -> WalStreamGap:
        """The cursor's position is gone: a gap naming the lsn needed
        and the retention horizon re-listed now, so the follower knows
        where to re-seed."""
        try:
            files = _segment_files(self._directory)
        except OSError:
            files = []
        return WalStreamGap(
            f"{self._directory}: {why} (needed lsn {self._next_lsn})",
            next_lsn=self._next_lsn,
            oldest_available=files[0][0] if files else 0,
        )

    def _drain_segment(
        self, first_lsn: int, out: List[WalRecord], max_records: Optional[int]
    ) -> None:
        """Deliver records at the cursor until end-of-segment, damage,
        or ``max_records``, then read the reader's verdict as a live
        follower does."""
        path = self._segment
        if os.path.exists(path + QUARANTINE_SUFFIX):
            # Scrub found non-tail corruption here: a follower must
            # never replay past (or out of) a quarantined segment.
            raise self._gap(
                f"{os.path.basename(path)} is quarantined "
                f"({quarantine_reason(path) or 'corruption detected'})"
            )
        reader = FrameReader(
            path,
            self._offset,
            first_lsn if self._offset <= len(MAGIC) else self._next_lsn,
        )
        for record in reader:
            if record.lsn >= self._next_lsn:
                out.append(record)
                self._next_lsn = record.lsn + 1
            self._offset = reader.offset
            if max_records is not None and len(out) >= max_records:
                return
        damage = reader.damage
        if damage is None:
            self._offset = reader.offset  # past an empty segment's magic
        elif (
            damage.kind in ("unreadable", "lsn")
            or damage.offset < self._offset
        ):
            # Pruned between the listing and the open, rewritten, or
            # truncated behind the cursor by a crashed writer: history
            # we stand on is gone, so incremental progress is
            # impossible -- re-seed from a checkpoint.
            raise self._gap(
                f"{os.path.basename(path)}: {damage.reason} under the "
                f"stream cursor at offset {self._offset}"
            )
        else:
            # A half-flushed append (or one the writer's crash will
            # truncate): stop in front of it, retry on the next poll.
            self._in_flight = damage


# ---------------------------------------------------------------------------
# write side
# ---------------------------------------------------------------------------
class WriteAheadLog:
    """An append-only, checksummed log of committed database changes.

    Args:
        directory: the log directory (created if missing).  Opening an
            existing directory resumes after its last usable record; a
            torn tail left by a crash is truncated first (and counted
            in :attr:`stats` as ``torn_tail_repaired``).
        fsync: durability policy -- ``"always"`` (default) or
            ``"os"`` (see the module docstring).
        segment_bytes: rotate to a fresh segment file once the current
            one grows past this size.
        retain_checkpoints: how many checkpoint generations
            :meth:`checkpoint` keeps; older snapshots and the segments
            only they need are deleted.
        epoch: the fencing epoch to write under.  None (default)
            adopts whatever the directory already holds (0 for a fresh
            or pre-epoch log); an explicit epoch must be >= the
            directory's, and every appended record and checkpoint is
            stamped with it.  Promotion opens the new primary's log
            with the bumped epoch; see
            :class:`repro.replication.FailoverSupervisor`.

    A log is bound to a database with
    :meth:`SecureXMLDatabase.attach_wal`, after which every commit
    appends its record *before* the new document is installed, and
    subject/policy mutations are captured through the hierarchies'
    mutation listeners.  All methods are thread-safe.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "always",
        segment_bytes: int = 4 << 20,
        retain_checkpoints: int = 2,
        epoch: Optional[int] = None,
    ) -> None:
        if fsync not in ("always", "os"):
            raise ValueError(
                f"unknown fsync policy {fsync!r} (expected 'always' or 'os')"
            )
        if retain_checkpoints < 1:
            raise ValueError("retain_checkpoints must be >= 1")
        if epoch is not None and epoch < 0:
            raise ValueError("epoch must be >= 0")
        self._requested_epoch = epoch
        self._directory = os.path.abspath(directory)
        self._policy = fsync
        self._segment_bytes = segment_bytes
        self._retain = retain_checkpoints
        self._lock = threading.RLock()
        self._handle = None
        self._failed: Optional[str] = None
        self._failed_disk = None  # the DiskError that poisoned the log
        self._fenced = False
        self._pending = 0
        self._bound_db = None
        self._group_threads: set = set()
        self._annotations: Dict[int, Dict[str, Any]] = {}
        self._stats: Dict[str, int] = {
            "appends": 0,
            "fsyncs": 0,
            "grouped_appends": 0,
            "group_syncs": 0,
            "rotations": 0,
            "checkpoints": 0,
            "state_fallbacks": 0,
            "torn_tail_repaired": 0,
        }
        os.makedirs(self._directory, exist_ok=True)
        self._open_tail()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _open_tail(self) -> None:
        """Find the end of the usable log and position for appending."""
        quarantined = quarantined_segments(self._directory)
        if quarantined:
            names = ", ".join(os.path.basename(p) for p in quarantined)
            raise WalCorruptionError(
                f"{self._directory}: quarantined segment(s) present "
                f"({names}); repair from a healthy peer "
                f"(repro.replication.repair_from_peer) before reopening "
                f"the log for writing"
            )
        scan = scan_directory(self._directory)
        self._lsn = scan.last_lsn
        disk_epoch = max(
            [0]
            + [record.epoch for record in scan.records]
            + [c.epoch for c in list_checkpoints(self._directory)]
        )
        if self._requested_epoch is None:
            self._epoch = disk_epoch
        elif self._requested_epoch < disk_epoch:
            raise ValueError(
                f"{self._directory}: requested epoch "
                f"{self._requested_epoch} is below epoch {disk_epoch} "
                f"already on disk (epochs only move forward)"
            )
        else:
            self._epoch = self._requested_epoch
        if scan.torn is not None:
            if scan.torn.dropped_segments or scan.torn.offset == 0:
                raise WalCorruptionError(
                    f"{self._directory}: {scan.torn}; this is mid-log damage "
                    f"-- run repro.wal.recover(..., repair=True) before "
                    f"reopening the log for writing"
                )
            why = quarantine_non_tail(scan.torn)
            if why:
                # Truncating would silently drop the readable commits
                # behind the damage -- demand repair instead.
                raise WalCorruptionError(
                    f"{self._directory}: {scan.torn}; {why} -- the segment "
                    f"is quarantined; repair from a healthy peer before "
                    f"reopening the log for writing"
                )
            # A torn tail in the last segment is the normal signature of
            # a crash mid-append: cut it off and continue after the
            # committed prefix.
            truncate_torn_tail(scan.torn)
            self._stats["torn_tail_repaired"] += 1
        if scan.segments:
            current = scan.segments[-1]
            self._handle = faults.open(current, "ab")
            self._segment_path = current
        else:
            self._start_segment(1)

    def _start_segment(self, first_lsn: int) -> None:
        path = os.path.join(
            self._directory, f"segment-{first_lsn:010d}.wal"
        )
        handle = faults.open(path, "ab")
        if handle.tell() == 0:
            handle.write(MAGIC)
            handle.flush()
            faults.fsync(handle)
        self._handle = handle
        self._segment_path = path
        _fsync_directory(self._directory)

    def close(self) -> None:
        """Flush, fsync and close the current segment."""
        with self._lock:
            if self._handle is None:
                return
            with contextlib.suppress(OSError, ValueError):
                self._handle.flush()
                faults.fsync(self._handle)
            with contextlib.suppress(OSError):
                self._handle.close()
            self._handle = None

    def reopen(self) -> None:
        """Recover a failed writer in place (ISSUE 10).

        Closes the current handle, truncates any torn tail the failed
        append left on disk, and resumes after the committed prefix --
        the disk-full recovery rung: after ``ENOSPC`` poisoned the
        writer and a checkpoint reclaimed space, the server reopens the
        log and retries the shed write instead of degrading to
        snapshot-only durability.

        Appends still pending an fsync are made durable first; when
        that fsync fails the reopen is refused rather than dropping
        them.

        Raises:
            WalWriteError: the log was *fenced*, not failed -- a higher
                epoch exists elsewhere and no reopen may resurrect it --
                or pending appends could not be made durable.
            WalCorruptionError: the directory holds non-tail corruption
                or quarantined segments; repair first.  Like any other
                failure to find the tail, it leaves the log failed.
        """
        with self._lock:
            if self._fenced:
                raise WalWriteError(
                    f"log at {self._directory} is fenced ({self._failed}); "
                    f"a fenced log never resumes appending"
                )
            if self._pending and self._handle is not None:
                # Unsynced appends -- another thread's open commit
                # group, say -- ride this fsync.  close() would swallow
                # its failure and the reset below would forget them, so
                # that group's sync_group() would find nothing pending
                # and acknowledge records the disk may have dropped.
                # Refuse instead; the log stays failed and the group's
                # sync refuses too.
                try:
                    self._handle.flush()
                    faults.fsync(self._handle)
                except (OSError, ValueError) as exc:
                    raise self._poison(
                        "fsync of pending appends", exc, "fsync"
                    ) from exc
            self.close()
            disk = self._failed_disk
            self._failed = None
            self._failed_disk = None
            self._pending = 0
            try:
                self._open_tail()
            except Exception as exc:
                # No handle: stay failed, classified by the refusal
                # itself when the disk refused the reopen, else by the
                # fault the caller reopens after (a full disk whose
                # segment the scan cannot open reads as damage), so
                # every later append still reports that disk fault.
                self._poison("reopen", exc, "open")
                if self._failed_disk is None:
                    self._failed_disk = disk
                raise

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        """The log directory."""
        return self._directory

    @property
    def lsn(self) -> int:
        """The last appended record's lsn (0 when the log is empty)."""
        return self._lsn

    @property
    def fsync_policy(self) -> str:
        """The active durability policy."""
        return self._policy

    @property
    def failed(self) -> Optional[str]:
        """Why the log refuses appends, or None while healthy."""
        return self._failed

    @property
    def epoch(self) -> int:
        """The fencing epoch stamped into appended records (0 = the
        implicit pre-failover epoch, stamped as an absent field)."""
        return self._epoch

    def fence(self, epoch: int) -> None:
        """Refuse all further appends: a higher epoch exists elsewhere.

        Called on a deposed primary's log when a promotion to ``epoch``
        is observed.  Every later append raises
        :class:`~repro.errors.WalWriteError` naming the fencing epoch;
        the log's on-disk state is untouched (re-opening reads the
        committed prefix as usual).  Idempotent; fencing at an epoch at
        or below the log's own is refused (that would be fencing the
        current primary with its own epoch).
        """
        with self._lock:
            if epoch <= self._epoch:
                raise ValueError(
                    f"cannot fence epoch {self._epoch} log with epoch "
                    f"{epoch} (fencing epoch must be higher)"
                )
            self._fenced = True
            self._failed = (
                f"fenced: epoch {epoch} supersedes this log's epoch "
                f"{self._epoch}"
            )

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: appends, fsyncs, grouped_appends,
        group_syncs, rotations, checkpoints, state_fallbacks,
        torn_tail_repaired."""
        with self._lock:
            return dict(self._stats)

    # ------------------------------------------------------------------
    # following
    # ------------------------------------------------------------------
    def stream(self, from_lsn: int = 0) -> "WalStream":
        """A :class:`WalStream` following this log's directory.

        The stream reads the segment files directly (no shared state
        with the writer beyond the filesystem), so it behaves the same
        whether the follower runs in this process or another one;
        replicas normally construct :class:`WalStream` against the
        directory path instead.

        Args:
            from_lsn: deliver records after this lsn (0 = everything
                retained).
        """
        return WalStream(self._directory, from_lsn)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, payload: Dict[str, Any]) -> int:
        """Append one record; returns its lsn.

        The payload must be JSON-serializable; ``lsn`` is assigned
        here.  Under fsync policy ``always`` the record is durable when
        this returns; under ``os`` (or inside a :meth:`group` window) it
        may still be in flight (see :meth:`sync`).

        Raises:
            WalWriteError: the log previously failed (torn in-memory
                state) or the filesystem refused the write/fsync;
                nothing may be appended afterwards until the log is
                re-opened.
            InjectedFault: an armed ``wal-*`` kill-point fired
                (crash simulation; the log behaves exactly as a real
                crash at that instant would leave it).
        """
        with self._lock:
            return self._append_locked(payload)

    def _refusal(self) -> WalWriteError:
        """The error a failed log answers every append and sync with.
        A refusal caused by a disk error keeps carrying that
        classification: every commit the poisoned log turns away is
        still a disk-sick signal for the serving layer."""
        return WalWriteError(
            f"write-ahead log at {self._directory} is failed "
            f"({self._failed}); re-open it to resume after the "
            f"committed prefix",
            disk=self._failed_disk,
        )

    def _append_locked(self, payload: Dict[str, Any]) -> int:
        if self._failed is not None:
            raise self._refusal()
        lsn = self._lsn + 1
        kind = payload.get("kind", "?")
        kill_point("wal-before-append", lsn=lsn, kind=kind)
        record = dict(payload)
        record["lsn"] = lsn
        if self._epoch:
            # Epoch 0 is stamped as an absent field so pre-epoch logs
            # and post-epoch logs that never failed over stay
            # byte-compatible; readers use payload.get("epoch", 0).
            record["epoch"] = self._epoch
        frame = b"".join(encode_frame(record))
        handle = self._handle
        if handle is None:
            raise WalWriteError(f"log at {self._directory} is closed")
        # From the first header byte to the last payload byte the
        # on-disk tail is torn; only a completed write clears the mark.
        self._failed = f"append of lsn {lsn} did not complete"
        try:
            handle.write(frame, point="wal-mid-record")
            handle.flush()
        except (OSError, ValueError) as exc:
            raise self._poison(
                f"append of lsn {lsn} mid-record", exc, "append"
            ) from exc
        self._failed = None
        self._failed_disk = None
        self._lsn = lsn
        self._stats["appends"] += 1
        self._pending += 1
        kill_point("wal-before-fsync", lsn=lsn, kind=kind)
        self._maybe_fsync()
        if handle.tell() >= self._segment_bytes:
            self._rotate_locked()
        return lsn

    def _maybe_fsync(self) -> None:
        if self._group_threads and threading.get_ident() in self._group_threads:
            # Inside a group-commit window: this append's fsync is the
            # group's problem (one sync_group() covers every member),
            # whatever the configured policy says.
            self._stats["grouped_appends"] += 1
            return
        if self._policy == "always":
            self._fsync_now()

    def _poison(self, what: str, exc: Exception, op: str) -> WalWriteError:
        """Stop trusting the writer after the disk refused ``what``, and
        build the error to raise.  An ``OSError`` is classified (full
        vs failing device) and keeps riding every later refusal; a
        ``ValueError`` is a closed handle."""
        self._failed = f"{what} failed: {exc}"
        self._failed_disk = (
            classify_disk_error(exc, path=self._segment_path, op=op)
            if isinstance(exc, OSError) else None
        )
        return WalWriteError(
            f"{what} at {self._segment_path} failed: {exc}",
            disk=self._failed_disk,
        )

    def _fsync_now(self) -> None:
        try:
            faults.fsync(self._handle)
        except (OSError, ValueError) as exc:
            # After a failed fsync the kernel may have dropped the dirty
            # pages; the only safe stance is to stop trusting the tail.
            raise self._poison("fsync", exc, "fsync") from exc
        self._pending = 0
        self._stats["fsyncs"] += 1

    def _sync_locked(self) -> bool:
        if not self._pending:
            return False
        if self._failed is not None:
            # Pending appends on a poisoned (or since closed) log may
            # already be lost; a later fsync that succeeds proves
            # nothing about them.
            raise self._refusal()
        if self._handle is None:
            return False
        self._handle.flush()
        self._fsync_now()
        return True

    def sync(self) -> None:
        """Force any pending appends to stable storage.

        Raises:
            WalWriteError: the fsync failed (the log is failed
                afterwards).
        """
        with self._lock:
            self._sync_locked()

    # ------------------------------------------------------------------
    # group commit
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def group(self):
        """A group-commit window, scoped to the calling thread.

        While the block is open, every record *this thread* appends --
        directly or through the commit hook deep inside
        ``Session.execute`` -- skips its per-record fsync, whatever the
        configured policy (counted as ``grouped_appends``).  The caller
        must finish with :meth:`sync_group` before acknowledging any of
        the grouped commits: that is the single fsync amortized over
        the whole group.  Appends from *other* threads are unaffected
        (they keep the configured policy), so a group leader batching
        on behalf of parked followers never weakens an unrelated
        writer's durability.
        """
        ident = threading.get_ident()
        with self._lock:
            self._group_threads.add(ident)
        try:
            yield self
        finally:
            with self._lock:
                self._group_threads.discard(ident)

    @contextlib.contextmanager
    def annotate(self, **fields: Any):
        """Merge ``fields`` into commit payloads logged by this thread.

        Scoped exactly like :meth:`group`: while the block is open,
        every commit record *this thread* appends through
        :meth:`log_commit` -- however deep inside ``Session.execute``
        the commit point sits -- carries the extra fields.  The serving
        layer uses this to thread a client idempotency key (``idem``)
        into the committed record so replicas and recovery rebuild the
        dedup table from the log alone.  Reserved payload keys
        (``lsn``, ``kind``, ``epoch``, ``version``) are refused.
        """
        for key in fields:
            if key in ("lsn", "kind", "epoch", "version"):
                raise ValueError(f"annotation may not set reserved key {key!r}")
        ident = threading.get_ident()
        with self._lock:
            self._annotations[ident] = dict(fields)
        try:
            yield self
        finally:
            with self._lock:
                self._annotations.pop(ident, None)

    def sync_group(self) -> bool:
        """The group's one fsync: force every deferred append durable.

        Honours the fsync policy: under ``"os"`` the group's appends are
        left to the OS like any other append and no fsync is issued,
        but a failed log still refuses the group.

        Returns:
            True when an fsync was actually issued (False under ``"os"``
            or when nothing was pending -- e.g. a rotation already
            synced the batch).

        Raises:
            WalWriteError: the fsync failed, or the log failed before
                it (the log is failed afterwards; none of the group may
                be acknowledged).
        """
        with self._lock:
            if self._policy != "always":
                if self._pending and self._failed is not None:
                    raise self._refusal()
                return False
            synced = self._sync_locked()
            self._stats["group_syncs"] += synced
            return synced

    def _rotate_locked(self) -> None:
        try:
            self._handle.flush()
            faults.fsync(self._handle)
            self._handle.close()
            self._pending = 0
            self._start_segment(self._lsn + 1)
        except OSError as exc:
            # The outgoing segment's fsync covers any appends still
            # pending (a commit group's); a rotation that cannot make
            # them durable, or cannot open/seed the next segment, leaves
            # no trustworthy writer -- poison it like a failed fsync.
            raise self._poison(
                f"segment rotation at lsn {self._lsn}", exc, "rotate"
            ) from exc
        self._stats["rotations"] += 1

    # ------------------------------------------------------------------
    # the commit hook
    # ------------------------------------------------------------------
    def log_commit(
        self,
        version: int,
        document,
        subjects,
        policy,
        changes,
        origin,
    ) -> int:
        """Append the record for one commit; called by the database's
        commit point (under its commit lock) *before* the install.

        A replayable origin (a session or admin script) is logged as
        its XUpdate text: the text it was parsed from when it has one
        (a served write logs what the client sent, never re-encoded),
        otherwise :func:`dump_xupdate`'s round-trip-verified
        serialization of the operation objects; anything else -- a
        direct ``commit()`` of a document, an operation with no XUpdate
        spelling -- falls back to a full ``state`` snapshot record
        (counted in :attr:`stats` as ``state_fallbacks``).

        Raises:
            WalWriteError: the record could not be made durable; the
                caller must *not* install the commit.
        """
        payload = self._commit_payload(
            version, document, subjects, policy, changes, origin
        )
        with self._lock:
            extra = self._annotations.get(threading.get_ident())
            if extra:
                payload.update(extra)
            return self._append_locked(payload)

    def _commit_payload(
        self, version, document, subjects, policy, changes, origin
    ) -> Dict[str, Any]:
        if origin is not None and origin.kind in ("update", "admin"):
            try:
                script = dump_xupdate(origin.operation)
            except XUpdateSerializeError:
                pass  # fall through to the state snapshot
            else:
                payload: Dict[str, Any] = {
                    "kind": origin.kind,
                    "version": version,
                    "script": script,
                }
                if origin.kind == "update":
                    payload["user"] = origin.user
                    payload["strict"] = bool(origin.strict)
                if changes is not None and not changes.conservative:
                    payload["touched"] = len(changes.touched_roots())
                return payload
        with self._lock:
            self._stats["state_fallbacks"] += 1
        return {
            "kind": "state",
            "version": version,
            "data": dump_state(document, subjects, policy),
        }

    # ------------------------------------------------------------------
    # binding to a database
    # ------------------------------------------------------------------
    def bind(self, database) -> None:
        """Subscribe to the database's subject/policy mutation streams.

        Called by :meth:`SecureXMLDatabase.attach_wal`; commits are
        captured separately through :meth:`log_commit`.
        """
        if self._bound_db is not None:
            raise ValueError("log already bound to a database")
        self._bound_db = database
        database.subjects.subscribe(self._on_subjects)
        database.policy.subscribe(self._on_policy)

    def unbind(self) -> None:
        """Undo :meth:`bind` (idempotent)."""
        database, self._bound_db = self._bound_db, None
        if database is None:
            return
        database.subjects.unsubscribe(self._on_subjects)
        database.policy.unsubscribe(self._on_policy)

    def _on_subjects(self, op: str, *args) -> None:
        self.append({"kind": "subjects", "op": op, "args": list(args)})

    def _on_policy(self, op: str, *args) -> None:
        self.append({"kind": "policy", "op": op, "args": list(args)})

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, database) -> str:
        """Write a snapshot of ``database``, rotate, and prune.

        The snapshot (a :func:`repro.storage.dump_database` file with
        integrity header, named ``checkpoint-<lsn>-<version>.xml``,
        with an ``-e<epoch>`` suffix once the log's fencing epoch is
        nonzero) bounds recovery work: replay starts from the newest
        loadable snapshot.  After the snapshot the segment is rotated and
        retention applied -- the newest ``retain_checkpoints``
        snapshots survive, along with every segment needed to replay
        from the *oldest* surviving one.

        Takes the database's commit lock: the snapshot is a frozen
        (version, document, subjects, policy) cut with no commit half
        included.  Callers must not already hold that lock.

        Returns:
            The snapshot file path.
        """
        with database._commit_lock:  # freeze the commit point
            with self._lock:
                self.sync()  # the log must cover everything pre-snapshot
                lsn, version = self._lsn, database.version
                payload = dump_database(database) + "\n"
                suffix = f"-e{self._epoch}" if self._epoch else ""
                path = os.path.join(
                    self._directory,
                    f"checkpoint-{lsn:010d}-{version:010d}{suffix}.xml",
                )
                _write_atomically(
                    payload, path, backup=False,
                    point="checkpoint-mid-snapshot", op="checkpoint",
                )
                self._rotate_locked()
                self._append_locked(
                    {
                        "kind": "checkpoint",
                        "version": version,
                        "snapshot": os.path.basename(path),
                    }
                )
                self.sync()
                self._stats["checkpoints"] += 1
                self._prune_locked()
        return path

    def _prune_locked(self) -> None:
        checkpoints = list_checkpoints(self._directory)
        for stale in checkpoints[:-self._retain]:
            with contextlib.suppress(OSError):
                os.unlink(stale.path)
        kept = checkpoints[-self._retain:]
        if not kept:
            return
        keep_from_lsn = kept[0].lsn
        files = _segment_files(self._directory)
        for index, (_first, path) in enumerate(files[:-1]):
            next_first = files[index + 1][0]
            if next_first <= keep_from_lsn + 1 and path != self._segment_path:
                with contextlib.suppress(OSError):
                    os.unlink(path)

