"""Online integrity scrubbing: find bit rot before recovery trips on it.

Crash recovery (PR 5) and replica divergence quarantine (PR 7) only
examine data when something *asks* for it -- a reboot, a poll.  Silent
corruption at rest (a flipped bit in a WAL segment, a damaged
checkpoint snapshot) sits undetected until the worst possible moment:
the recovery that needed the bytes.  A :class:`Scrubber` walks the log
directory **online** -- record checksums, segment structure, checkpoint
integrity headers -- on a resumable cursor with a per-step byte budget,
holding no database lock across I/O, so a serving primary can verify
its own disk in the background.

What scrub concludes about damage it finds (the scrubber column of
:mod:`repro.wal.frame`'s verdict table):

- A damaged WAL segment is either the live writer's tail -- benign, the
  torn-tail rule owns it -- or **non-tail corruption**, which is
  quarantined (sidecar marker, see :data:`repro.wal.QUARANTINE_SUFFIX`)
  until anti-entropy repair
  (:func:`repro.replication.repair_from_peer`) replaces it from a
  healthy peer.
- A checkpoint whose integrity header is missing, or (deep mode) whose
  recomputed SHA-256 disagrees with the recorded one, is reported;
  recovery's newest-first fallback already skips it, and repair
  replaces it.
- An ``EIO`` reading a segment is reported (``read_errors``) but does
  not quarantine: a failing *read* proves the device is sick, not that
  the bytes are wrong -- the failure detector owns sick disks.

:class:`repro.serving.DatabaseServer` runs a scrubber as an optional
background pass (``scrub_interval``) and surfaces the counters under
``stats()["scrub"]``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from .faults import faults
from .storage import _check_integrity, snapshot_digest
from .wal.frame import FrameReader
from .wal.log import (
    Checkpoint,
    _segment_files,
    list_checkpoints,
    quarantine_non_tail,
    quarantine_reason,
)

__all__ = [
    "ScrubFinding",
    "ScrubReport",
    "Scrubber",
    "scrub_directory",
]


@dataclass(frozen=True)
class ScrubFinding:
    """One problem a scrub pass surfaced.

    Attributes:
        path: the file holding the problem.
        kind: ``"wal-segment"`` or ``"checkpoint"``.
        reason: human-readable diagnosis.
        offset: byte offset of the damage (0 when whole-file).
        quarantined: True when scrub quarantined the segment (non-tail
            corruption, proven by an intact record past the damage).
        benign: True for damage the torn-tail rule owns (an in-flight
            or crash-torn live tail) -- reported for visibility, no
            action needed.
    """

    path: str
    kind: str
    reason: str
    offset: int = 0
    quarantined: bool = False
    benign: bool = False

    def __str__(self) -> str:
        flag = (
            "QUARANTINED" if self.quarantined
            else ("benign" if self.benign else "found")
        )
        return (
            f"[{flag}] {self.kind} {os.path.basename(self.path)}"
            f":{self.offset}: {self.reason}"
        )


@dataclass
class ScrubReport:
    """What one scrub step (or full pass) verified and found.

    Attributes:
        findings: every problem surfaced, in scan order.
        records_verified: WAL records whose CRC and structure checked
            out during this report's scope.
        bytes_verified: bytes read and verified.
        segments_verified: segments that read cleanly end to end.
        checkpoints_verified: checkpoint snapshots whose integrity
            check passed.
        pass_completed: True when this step finished a full pass over
            the directory (the cursor wrapped).
    """

    findings: List[ScrubFinding] = field(default_factory=list)
    records_verified: int = 0
    bytes_verified: int = 0
    segments_verified: int = 0
    checkpoints_verified: int = 0
    pass_completed: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing needing action was found (benign tail
        findings do not count -- the torn-tail rule owns those)."""
        return all(finding.benign for finding in self.findings)

    @property
    def quarantined(self) -> List[ScrubFinding]:
        """The findings that quarantined a segment."""
        return [f for f in self.findings if f.quarantined]


class Scrubber:
    """Incremental integrity verification over one log directory.

    The cursor advances segment by segment under a per-step byte
    budget; when every segment has been verified the checkpoints are
    checked and the pass completes (``last_full_pass`` timestamp, the
    cursor rewinds).  Segments pruned between steps are simply skipped
    -- retention moving the horizon is not damage.

    All file I/O happens outside any database lock (the scrubber reads
    the directory exactly like a follower does), so a background scrub
    never blocks the serving path.  :meth:`step` is serialized with an
    internal lock; counters are cumulative across steps.

    Args:
        directory: the WAL directory to verify.
        budget_bytes: default per-step byte budget (None = unbounded,
            every step is a full pass).
        deep: also recompute every checkpoint snapshot's SHA-256
            (instead of only checking the header's presence) -- more
            I/O, catches rot inside snapshot bodies.
        clock: time source for ``last_full_pass`` (injectable).
    """

    def __init__(
        self,
        directory: str,
        *,
        budget_bytes: Optional[int] = None,
        deep: bool = False,
        clock=time.time,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive (or None)")
        self._directory = os.path.abspath(directory)
        self._budget = budget_bytes
        self._deep = deep
        self._clock = clock
        self._lock = threading.Lock()
        self._cursor: Optional[str] = None  # last verified segment path
        self._counters: Dict[str, Any] = {
            "steps": 0,
            "passes": 0,
            "last_full_pass": 0.0,
            "records_verified": 0,
            "bytes_verified": 0,
            "segments_verified": 0,
            "segments_quarantined": 0,
            "checkpoints_verified": 0,
            "checkpoint_failures": 0,
            "read_errors": 0,
            "findings": 0,
        }

    @property
    def directory(self) -> str:
        """The directory being scrubbed."""
        return self._directory

    @property
    def counters(self) -> Dict[str, Any]:
        """Cumulative counters (records_verified, segments_quarantined,
        last_full_pass, ...), copied."""
        with self._lock:
            return dict(self._counters)

    def run(self) -> ScrubReport:
        """One full pass over the directory, budget ignored."""
        return self.step(budget_bytes=0)

    def step(self, budget_bytes: Optional[int] = None) -> ScrubReport:
        """Verify up to ``budget_bytes`` (default: the constructor's
        budget; 0 = unbounded) and return what this step covered.

        The cursor resumes where the previous step stopped; a step that
        reaches the end of the directory also verifies the checkpoints
        and marks the pass complete.
        """
        budget = self._budget if budget_bytes is None else (
            None if budget_bytes == 0 else budget_bytes
        )
        with self._lock:
            report = ScrubReport()
            self._counters["steps"] += 1
            files = _segment_files(self._directory)
            pending = [
                (first, path) for first, path in files
                if self._cursor is None
                or os.path.basename(path) > os.path.basename(self._cursor)
            ]
            spent = 0
            for first_lsn, path in pending:
                if budget is not None and spent >= budget:
                    self._fold(report)
                    return report  # budget exhausted; resume next step
                later = tuple(p for first, p in files if first > first_lsn)
                spent += self._verify_segment(path, first_lsn, later, report)
                self._cursor = path
            for checkpoint in list_checkpoints(self._directory):
                spent += self._verify_checkpoint(checkpoint, report)
            report.pass_completed = True
            self._cursor = None
            self._counters["passes"] += 1
            self._counters["last_full_pass"] = self._clock()
            self._fold(report)
            return report

    def _fold(self, report: ScrubReport) -> None:
        self._counters["records_verified"] += report.records_verified
        self._counters["bytes_verified"] += report.bytes_verified
        self._counters["segments_verified"] += report.segments_verified
        self._counters["checkpoints_verified"] += report.checkpoints_verified
        self._counters["findings"] += len(report.findings)
        self._counters["segments_quarantined"] += len(report.quarantined)

    def _verify_segment(
        self, path: str, first_lsn: int, later: tuple, report: ScrubReport
    ) -> int:
        """CRC-verify one segment (``later`` = the segment files behind
        it); returns the bytes it cost."""
        existing = quarantine_reason(path)
        if existing is not None:
            report.findings.append(
                ScrubFinding(
                    path, "wal-segment",
                    f"already quarantined: {existing}",
                    quarantined=True,
                )
            )
            return 0
        try:
            size = os.path.getsize(path)
        except OSError:
            return 0  # pruned between the listing and now
        reader = FrameReader(path, 0, first_lsn)
        report.records_verified += sum(1 for _record in reader)
        report.bytes_verified += size
        torn = reader.damage
        if torn is None:
            report.segments_verified += 1
            return size
        if torn.kind == "unreadable":
            # A failing read proves the device is sick, not the bytes:
            # report, let the failure detector own the disk, re-check
            # on the next pass.
            self._counters["read_errors"] += 1
            report.findings.append(
                ScrubFinding(path, "wal-segment", torn.reason, torn.offset)
            )
            return 0
        # The tail rule: damage in the last segment with nothing intact
        # behind it is the live writer's in-flight append or a crash's
        # torn tail -- benign, or every mid-append race with the writer
        # would false-positive.  Anything else is quarantined.
        why = quarantine_non_tail(replace(torn, dropped_segments=later))
        report.findings.append(
            ScrubFinding(
                path, "wal-segment",
                f"{torn.reason} ({why})" if why else torn.reason,
                torn.offset, quarantined=bool(why), benign=not why,
            )
        )
        return size

    def _verify_checkpoint(
        self, checkpoint: Checkpoint, report: ScrubReport
    ) -> int:
        """Verify one snapshot's integrity header; returns bytes read."""
        cost, failure = 256, None  # shallow: the header line only
        if not self._deep:
            if snapshot_digest(checkpoint.path) is None:
                cost, failure = 0, "missing or unreadable integrity header"
        else:
            try:
                with faults.open(
                    checkpoint.path, "r", encoding="utf-8"
                ) as handle:
                    text = handle.read()
            except OSError as exc:
                self._counters["read_errors"] += 1
                report.findings.append(
                    ScrubFinding(
                        checkpoint.path, "checkpoint", f"unreadable ({exc})"
                    )
                )
                return 0
            cost = len(text)
            report.bytes_verified += cost
            recorded, actual, _body = _check_integrity(text)
            if recorded is None:
                failure = "no integrity header"
            elif actual != recorded:
                failure = (
                    f"sha256 mismatch (recorded {recorded[:12]}..., "
                    f"actual {actual[:12]}...)"
                )
        if failure is None:
            report.checkpoints_verified += 1
        else:
            self._counters["checkpoint_failures"] += 1
            report.findings.append(
                ScrubFinding(checkpoint.path, "checkpoint", failure)
            )
        return cost


def scrub_directory(
    directory: str, *, deep: bool = False
) -> ScrubReport:
    """One full scrub pass over ``directory`` (the CLI's entry point)."""
    return Scrubber(directory, deep=deep).run()
