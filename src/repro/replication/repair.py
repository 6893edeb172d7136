"""Anti-entropy repair: replace quarantined damage from a healthy peer.

Scrub (:mod:`repro.scrub`) and recovery quarantine non-tail corruption
-- they refuse to replay, stream, or append past it, but they cannot
*fix* it: the damaged bytes are gone from this disk.  The bytes are
not gone from the cluster, though.  WAL-shipping replication keeps
byte-identical copies of every acknowledged commit on the peers, so
repair is a copy, not a reconstruction:

1. **Verify the peer is healthy**: a deep scrub of the peer's
   directory (every record CRC, every checkpoint SHA-256) must come
   back clean -- repairing from a rotten peer would just spread the
   rot.
2. **Stage**: copy the peer's checkpoints and WAL segments into a
   staging directory *inside* the damaged directory (same filesystem,
   so the install step is pure rename).
3. **Verify the staged copy**: recover it and require the recovered
   state digest to equal the peer's own -- a copy damaged in flight
   (or a disk fault during staging) is detected before anything is
   swapped, and the staged recovery's fencing epoch is the epoch the
   repaired node rejoins at.
4. **Swap**: move the damaged directory's segments, checkpoints and
   quarantine markers aside into a ``damaged.<n>`` subdirectory (kept
   for forensics, invisible to the segment/checkpoint listings), move
   the staged files in, and fsync the directory.

A repair that fails before the swap discards staging and leaves the
damaged directory exactly as it was; a disk error *during* the swap
leaves every displaced file intact in the forensic subdirectory, so
nothing is ever lost to a failed repair.  After a
successful repair the directory recovers cleanly and a re-opened
:class:`~repro.wal.WriteAheadLog` resumes appending at the peer's
epoch.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import RepairError
from ..faults import faults
from ..scrub import Scrubber
from ..storage import _fsync_directory, state_digest
from ..wal.log import (
    QUARANTINE_SUFFIX,
    _segment_files,
    list_checkpoints,
)
from ..wal.recover import recover

__all__ = ["RepairReport", "repair_from_peer"]

_STAGING = ".repair-staging"
_DAMAGED = "damaged"


@dataclass
class RepairReport:
    """What one :func:`repair_from_peer` run copied and replaced.

    Attributes:
        directory: the repaired (formerly damaged) directory.
        peer: the healthy directory the bytes came from.
        segments_copied: WAL segment files installed from the peer.
        checkpoints_copied: checkpoint snapshots installed.
        bytes_copied: total bytes fetched from the peer.
        moved_aside: local files (segments, checkpoints, quarantine
            markers) moved into the forensic ``damaged.<n>`` subdir.
        damaged_dir: that subdirectory's path ('' when the damaged
            directory had nothing to move).
        state_verified: True when the staged copy's recovered state
            digest was checked against the peer's own.
        digest: the recovered state digest after repair.
        epoch: the fencing epoch the repaired node rejoins at (the
            highest epoch in the copied log).
        last_lsn: the last lsn the repaired directory replays to.
    """

    directory: str
    peer: str
    segments_copied: int = 0
    checkpoints_copied: int = 0
    bytes_copied: int = 0
    moved_aside: List[str] = field(default_factory=list)
    damaged_dir: str = ""
    state_verified: bool = False
    digest: str = ""
    epoch: int = 0
    last_lsn: int = 0


def _digest(database) -> str:
    return state_digest(database.document, database.subjects, database.policy)


def _require_clean(directory: str, what: str, reason: str) -> None:
    """Deep-scrub ``directory`` (every record CRC, every checkpoint
    digest); any non-benign finding is a :class:`RepairError`."""
    scrub = Scrubber(directory, deep=True).run()
    if not scrub.clean:
        raise RepairError(
            f"{what} is damaged, refusing to use it: "
            + "; ".join(str(f) for f in scrub.findings if not f.benign),
            reason=reason,
        )


def _recover(directory: str, what: str, reason: str):
    try:
        return recover(directory)
    except Exception as exc:
        raise RepairError(
            f"{what} does not recover: {exc}", reason=reason
        ) from exc


def _copy_file(source: str, target: str) -> int:
    """Copy one file through the fault seam; returns bytes copied."""
    with faults.open(source, "rb") as src:
        data = src.read()
    with faults.open(target, "wb") as dst:
        dst.write(data)
        dst.flush()
        faults.fsync(dst)
    return len(data)


def _local_artifacts(directory: str) -> List[str]:
    """The damaged directory's replaceable files: segments, their
    quarantine markers, and checkpoint snapshots."""
    artifacts: List[str] = []
    for _lsn, path in _segment_files(directory):
        artifacts.append(path)
        marker = path + QUARANTINE_SUFFIX
        if os.path.exists(marker):
            artifacts.append(marker)
    for checkpoint in list_checkpoints(directory):
        artifacts.append(checkpoint.path)
    return artifacts


def repair_from_peer(
    directory: str,
    peer_directory: str,
    *,
    verify_state: bool = True,
) -> RepairReport:
    """Replace ``directory``'s log with a verified copy of the peer's.

    Args:
        directory: the damaged log directory (quarantined segments,
            rotten checkpoints -- or empty: repair doubles as a full
            re-seed).
        peer_directory: a healthy peer's log directory.
        verify_state: also recover the *peer* and require the staged
            copy to replay to the identical state digest.  Exact for a
            quiescent peer (the normal case: repair runs while the
            damaged node is out of rotation); pass False when the peer
            is taking writes mid-copy, where the deep scrub of the
            staged bytes is the integrity check.

    Returns:
        A :class:`RepairReport`; after it returns the directory
        recovers cleanly and may be re-opened for appending.

    Raises:
        RepairError: the peer is damaged, the staged copy failed
            verification, or the swap hit a disk error.  Failures
            before the swap leave the directory unchanged; a mid-swap
            disk error leaves displaced files in the forensic subdir.
    """
    directory = os.path.abspath(directory)
    peer_directory = os.path.abspath(peer_directory)
    if directory == peer_directory:
        raise RepairError(
            "a directory cannot repair from itself", reason="self-repair"
        )
    report = RepairReport(directory=directory, peer=peer_directory)

    # 1. The peer must be healthy -- every record CRC, every checkpoint
    #    digest.  (Benign tail damage on a live peer is acceptable: the
    #    torn-tail rule owns it and recovery will cut it.)
    peer = f"peer {peer_directory}"
    _require_clean(peer_directory, peer, "peer-damaged")
    expected_digest: Optional[str] = None
    if verify_state:
        expected_digest = _digest(
            _recover(peer_directory, peer, "peer-damaged").database
        )

    # 2. Stage the copy on the damaged node's own filesystem.
    staging = os.path.join(directory, _STAGING)
    if os.path.isdir(staging):
        shutil.rmtree(staging)
    os.makedirs(staging)
    try:
        sources: List[str] = [
            path for _lsn, path in _segment_files(peer_directory)
        ]
        report.segments_copied = len(sources)
        checkpoints = list_checkpoints(peer_directory)
        report.checkpoints_copied = len(checkpoints)
        sources.extend(c.path for c in checkpoints)
        try:
            for source in sources:
                target = os.path.join(staging, os.path.basename(source))
                report.bytes_copied += _copy_file(source, target)
        except OSError as exc:
            raise RepairError(
                f"copying from peer failed: {exc}", reason="copy-failed"
            ) from exc

        # 3. The staged bytes must themselves scrub clean and recover
        #    to the peer's state.
        staged = "staged copy (disk fault during staging?)"
        _require_clean(staging, staged, "stage-damaged")
        staged_result = _recover(staging, staged, "stage-damaged")
        report.digest = _digest(staged_result.database)
        report.epoch = staged_result.epoch
        report.last_lsn = staged_result.last_lsn
        if expected_digest is not None:
            report.state_verified = True
            if report.digest != expected_digest:
                raise RepairError(
                    f"staged copy recovers to digest {report.digest[:12]}..."
                    f" but the peer stands at {expected_digest[:12]}...",
                    reason="stage-mismatch",
                )

        # 4. Swap: damaged files aside, staged files in, fsync the dir.
        aside = _local_artifacts(directory)
        damaged_dir = ""
        if aside:
            suffix = 0
            damaged_dir = os.path.join(directory, _DAMAGED)
            while os.path.exists(damaged_dir):
                suffix += 1
                damaged_dir = os.path.join(directory, f"{_DAMAGED}.{suffix}")
            os.makedirs(damaged_dir)
        try:
            for path in aside:
                os.replace(
                    path, os.path.join(damaged_dir, os.path.basename(path))
                )
                report.moved_aside.append(os.path.basename(path))
            report.damaged_dir = damaged_dir
            for name in sorted(os.listdir(staging)):
                os.replace(
                    os.path.join(staging, name), os.path.join(directory, name)
                )
            _fsync_directory(directory)
        except OSError as exc:
            raise RepairError(
                f"installing the repaired files failed: {exc}",
                reason="install-failed",
            ) from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return report
