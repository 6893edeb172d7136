"""Durability: write-ahead logging, checkpointing, crash recovery.

The paper's update semantics makes the post-update theory ``dbnew`` a
deterministic function of ``db`` and the committed XUpdate script
(formulae (2)-(9)), so this subsystem logs commits *logically*: one
checksummed record carrying the script (or, for commits with no XUpdate
spelling, the full state), appended and optionally fsynced before the
new document is installed.  Recovery loads the newest checkpoint
snapshot, truncates the torn tail a crash left (reported, never
replayed), and replays the committed prefix through the real secure
executor path -- so the recovered database matches a from-scratch build
of the same commits: document, version, policy, and every user's
authorized view.

Typical lifecycle::

    from repro.wal import WriteAheadLog, recover

    wal = WriteAheadLog("db.wal", fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)            # cover the pre-attach state
    ...                           # commits are now write-ahead durable

    # after a crash:
    result = recover("db.wal", repair=True)
    db = result.database
    db.attach_wal(WriteAheadLog("db.wal"))

See DESIGN.md section 10 for the record format, the fsync policies and
the torn-tail rule.
"""

from .frame import FrameReader
from .log import (
    Checkpoint,
    DamageClass,
    QUARANTINE_SUFFIX,
    ScanResult,
    TornTail,
    WalRecord,
    WalStream,
    WriteAheadLog,
    classify_damage,
    list_checkpoints,
    quarantine_reason,
    quarantine_segment,
    quarantined_segments,
    scan_directory,
    scan_segment,
    tail_lsn,
)
from .recover import (
    RecoveryResult,
    apply_record,
    load_newest_checkpoint,
    recover,
)

__all__ = [
    "Checkpoint",
    "DamageClass",
    "FrameReader",
    "QUARANTINE_SUFFIX",
    "RecoveryResult",
    "ScanResult",
    "TornTail",
    "WalRecord",
    "WalStream",
    "WriteAheadLog",
    "apply_record",
    "classify_damage",
    "list_checkpoints",
    "load_newest_checkpoint",
    "quarantine_reason",
    "quarantine_segment",
    "quarantined_segments",
    "recover",
    "scan_directory",
    "scan_segment",
    "tail_lsn",
]
