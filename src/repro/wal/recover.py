"""Crash recovery: checkpoint + committed log prefix -> the database.

:func:`recover` restores the database a crash interrupted: it loads the
newest loadable checkpoint snapshot, scans the segments, cuts off the
torn tail (the artifact of the crash -- reported, never replayed), and
replays the committed records in lsn order **through the real update
machinery**: a logged session script re-executes via
:meth:`Session.execute` (the secured path of axioms 18-25), an
administrative script via :meth:`SecureXMLDatabase.admin_update`, and
subject/policy events re-dispatch onto the live hierarchy.  Because the
paper makes ``dbnew`` a deterministic function of ``db`` and the script
(formulae (2)-(9)), the replayed database is *equal* -- document,
version, policy, and every user's authorized view -- to one that
applied the same committed prefix from scratch.

The recovery invariant, checked record by record: replaying a commit
record must land the database exactly on the version the record was
stamped with.  A mismatch means the log and the snapshot disagree;
strict mode raises :class:`~repro.errors.RecoveryError`, the default
lenient mode stops at the last consistent point and reports through the
:class:`~repro.storage.LoadReport`.

Fencing epochs ride the same invariant: records stamped with an epoch
(see :mod:`repro.wal.log`) must never regress mid-log -- a record whose
epoch is *below* the highest one already replayed is a deposed
primary's leftover and is treated exactly like a version-stamp
divergence (strict raises, lenient stops in front of it).  Records and
checkpoints written before epochs existed carry no epoch field and load
as epoch 0 on both paths, so old logs replay unchanged.  Recovery also
rebuilds the exactly-once dedup ledger: every replayed ``update``
record carrying an ``idem`` annotation contributes its
(key -> commit summary) entry to :attr:`RecoveryResult.dedup`.

Every document recovery loads -- checkpoint snapshot or bootstrap
``state`` record -- takes the default persistent Dewey numbering
(:class:`~repro.xmltree.PersistentDeweyScheme`); the durability stack
has no scheme argument, so a recovered, replicated or promoted
database always numbers its nodes the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import RecoveryError, WalCorruptionError
from ..storage import LoadReport, load_database, load_from_file
from ..xupdate.parser import parse_xupdate
from .log import (
    Checkpoint,
    TornTail,
    WalRecord,
    list_checkpoints,
    quarantine_non_tail,
    quarantined_segments,
    scan_directory,
    truncate_torn_tail,
)

__all__ = [
    "RecoveryResult",
    "apply_record",
    "load_newest_checkpoint",
    "recover",
]


@dataclass
class RecoveryResult:
    """What :func:`recover` rebuilt and how it got there.

    Attributes:
        database: the recovered database (no write-ahead log attached;
            attach a re-opened one to resume durable operation).
        checkpoint: the snapshot replay started from, or None when the
            log bootstrapped from a full-state record instead.
        replayed: commit records (``update`` / ``admin`` / ``state``)
            actually replayed on top of the starting point.
        last_lsn: lsn of the last record applied (0 when nothing was).
        torn: the torn tail that ended the usable log, or None when
            every segment read cleanly.
        report: everything lenient recovery dropped or repaired
            (checkpoints that failed to load, the torn tail, a replay
            stop); ``report.clean`` means the log replayed fully.
        epoch: the highest fencing epoch observed across the starting
            checkpoint and every replayed record (0 for pre-epoch
            logs).
        dedup: the exactly-once ledger rebuilt from the log --
            idempotency key -> the commit summary of the ``update`` or
            ``admin`` record that carried it (insertion order = replay
            order).
    """

    database: object
    checkpoint: Optional[Checkpoint] = None
    replayed: int = 0
    last_lsn: int = 0
    torn: Optional[TornTail] = None
    report: LoadReport = field(default_factory=LoadReport)
    epoch: int = 0
    dedup: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def version(self) -> int:
        """The recovered database's version."""
        return self.database.version


def recover(
    directory: str,
    *,
    strict: bool = False,
    repair: bool = False,
) -> RecoveryResult:
    """Rebuild the database from a write-ahead-log directory.

    Args:
        directory: the log directory (segments + checkpoint snapshots).
        strict: raise instead of degrade -- a torn tail becomes
            :class:`WalCorruptionError`, an unloadable newest
            checkpoint or a replay divergence becomes
            :class:`RecoveryError`.  The default lenient mode recovers
            the longest consistent committed prefix and reports what it
            dropped.
        repair: physically truncate the torn tail (and delete
            unreachable later segments) so the directory can be
            re-opened for appending.  Lenient-mode only; the scan
            itself never needs it.

    Returns:
        A :class:`RecoveryResult`; its database has *no* log attached.

    Raises:
        RecoveryError: nothing recoverable in the directory (no
            loadable checkpoint and no bootstrap ``state`` record), or
            any degradation in strict mode.
        WalCorruptionError: strict mode, torn or corrupt log.
    """
    result = RecoveryResult(database=None)
    result.report.source = directory
    if not os.path.isdir(directory):
        raise RecoveryError(f"{directory} is not a directory")

    quarantined = set(quarantined_segments(directory))
    if quarantined and strict:
        names = ", ".join(sorted(os.path.basename(p) for p in quarantined))
        raise WalCorruptionError(
            f"{directory}: quarantined segment(s) present ({names}); "
            f"strict recovery refuses to replay past quarantined damage "
            f"-- repair from a healthy peer first"
        )

    scan = scan_directory(directory)
    result.torn = scan.torn
    non_tail = ""
    if scan.torn is not None:
        # The torn-tail rule must not swallow non-tail corruption (bit
        # rot, a flipped length field, dropped segments).
        non_tail = quarantine_non_tail(scan.torn)
        if non_tail:
            quarantined.add(scan.torn.segment)
        detail = f"; {non_tail} -- segment quarantined" if non_tail else ""
        if strict:
            raise WalCorruptionError(f"{directory}: {scan.torn}{detail}")
        result.report.add(
            "wal",
            f"{scan.torn}{detail}"
            + (", replay stops at the damage" if non_tail else ""),
        )

    checkpoint, database = load_newest_checkpoint(
        directory, strict=strict, report=result.report
    )
    result.checkpoint = checkpoint
    start_lsn = checkpoint.lsn if checkpoint is not None else 0
    result.epoch = checkpoint.epoch if checkpoint is not None else 0

    def remember(applied: WalRecord, summary: Dict[str, Any]) -> None:
        key = applied.payload.get("idem")
        if key is not None:
            result.dedup[str(key)] = summary

    def stop(message: str, cause: Optional[Exception] = None) -> None:
        """The replay cannot go past this record: strict mode raises,
        lenient mode reports and keeps the last consistent point."""
        if strict:
            raise RecoveryError(message) from cause
        result.report.add("wal", message + "; stopping here")

    for record in scan.records:
        if record.lsn <= start_lsn:
            continue
        if record.segment in quarantined:
            result.report.add(
                "wal",
                f"segment {os.path.basename(record.segment)} is "
                f"quarantined; stopping before lsn {record.lsn}",
            )
            break
        # Epoch regression is the fencing invariant's version of a bad
        # version stamp: a record from a lower epoch after a higher one
        # is a deposed primary's leftover, never part of the committed
        # history.  (Records without the field predate epochs and load
        # as epoch 0 -- a regression only exists once something newer
        # was already seen.)
        if record.epoch < result.epoch:
            stop(
                f"lsn {record.lsn} carries stale epoch {record.epoch} "
                f"after epoch {result.epoch} was observed"
            )
            break
        result.epoch = record.epoch
        # The recovery invariant, checked *before* applying: a replayed
        # commit bumps the version by exactly one (a state record sets
        # it outright), so a record whose stamp is not the successor of
        # the current version disagrees with the log it sits in.  The
        # divergent record is never applied -- lenient mode stops at the
        # last consistent point, strict mode raises.
        stamped = int(record.payload.get("version", 0))
        if (
            record.kind in ("update", "admin")
            and database is not None
            and stamped != database.version + 1
        ):
            stop(
                f"lsn {record.lsn} is stamped version {stamped}, but "
                f"the database stands at {database.version}"
            )
            break
        try:
            database = apply_record(database, record, result_sink=remember)
        except Exception as exc:
            stop(
                f"replay of lsn {record.lsn} ({record.kind}) failed: {exc}",
                exc,
            )
            break
        if record.kind in ("update", "admin", "state"):
            result.replayed += 1
            if database.version != stamped:
                stop(
                    f"replay of lsn {record.lsn} left the database at "
                    f"version {database.version}, but the record is "
                    f"stamped {stamped}"
                )
                break
        result.last_lsn = record.lsn

    if database is None:
        raise RecoveryError(
            f"{directory} holds no loadable checkpoint and no bootstrap "
            f"state record; nothing to recover"
        )
    if repair and scan.torn is not None:
        if non_tail:
            # Truncating non-tail damage would destroy the intact
            # committed records behind it; repair here means
            # anti-entropy from a healthy peer, never the saw.
            result.report.add(
                "wal",
                "non-tail corruption is quarantined, not truncated; "
                "repair it from a healthy peer "
                "(repro.replication.repair_from_peer)",
            )
        else:
            truncate_torn_tail(scan.torn)
            result.report.add("wal", "torn tail physically truncated (repair)")
    result.database = database
    return result


# ---------------------------------------------------------------------------
# starting point
# ---------------------------------------------------------------------------
def load_newest_checkpoint(
    directory: str,
    *,
    strict: bool = False,
    report: Optional[LoadReport] = None,
):
    """The newest loadable checkpoint as ``(Checkpoint, database)``.

    Walks the directory's checkpoint snapshots newest-first and returns
    the first that loads (with its version counter restored), falling
    back through older generations when a newer snapshot is corrupt.
    Returns ``(None, None)`` when no snapshot loads at all -- recovery
    then bootstraps from a full-state log record if one exists.

    This is both :func:`recover`'s starting point and the replication
    catch-up protocol's re-seed step
    (:meth:`repro.replication.Replica.catch_up`).

    Args:
        directory: the log directory holding the snapshots.
        strict: raise :class:`RecoveryError` if the *newest* snapshot
            fails to load, instead of degrading to an older one.
        report: a :class:`~repro.storage.LoadReport` collecting what
            the fallback skipped (optional).
    """
    if report is None:
        report = LoadReport()
    # Snapshot files are written to a temp name and atomically renamed,
    # so every visible checkpoint is complete -- even one whose
    # *checkpoint record* was torn off the log tail is a valid (indeed
    # the best) starting point.
    checkpoints = list_checkpoints(directory)
    for index, checkpoint in enumerate(reversed(checkpoints)):
        try:
            database = load_from_file(checkpoint.path)
        except Exception as exc:
            message = (
                f"checkpoint {os.path.basename(checkpoint.path)} failed to "
                f"load: {exc}"
            )
            if strict and index == 0:
                raise RecoveryError(message) from exc
            report.add("checkpoint", message + "; trying an older one")
            continue
        database.restore_version(checkpoint.version)
        return checkpoint, database
    return None, None


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def apply_record(
    database,
    record: WalRecord,
    result_sink: Optional[
        Callable[[WalRecord, Dict[str, Any]], None]
    ] = None,
):
    """Apply one log record; returns the (possibly replaced) database.

    The single replay step both recovery and replication are built on:
    a logged session script re-executes through the real secured path
    (:meth:`Session.execute`), an administrative script through
    :meth:`SecureXMLDatabase.admin_update`, subject/policy events
    re-dispatch onto the live hierarchies, and a full-state record
    replaces the database outright.  ``checkpoint`` records are
    informational and return the database unchanged.

    Stamped-version checking is the *caller's* contract (recovery stops
    or raises; a replica quarantines itself) -- this function only
    applies.

    Args:
        result_sink: called after a successful ``update`` or ``admin``
            replay with
            ``(record, summary)`` where the summary is the same typed
            shape the serving layer acknowledges over the wire
            (``fully_applied`` / ``selected`` / ``affected`` /
            ``denied`` / ``version``).  Recovery and replicas use it to
            rebuild the exactly-once dedup ledger from the log; replay
            is deterministic, so the rebuilt summary is the one the
            original commit acknowledged.

    Raises:
        RecoveryError: the record kind is unknown, or a record that
            needs a database arrived before any state to replay onto.
    """
    kind, payload = record.kind, record.payload
    if kind == "state":
        rebuilt = load_database(
            payload["data"], mode="strict",
            source=f"wal lsn {record.lsn}",
        )
        rebuilt.restore_version(int(payload["version"]))
        return rebuilt
    if kind == "checkpoint":
        # Informational: marks where a snapshot was cut.  The snapshot
        # itself was already chosen (or rejected) as the starting point.
        return database
    if database is None:
        raise RecoveryError(
            f"lsn {record.lsn} ({kind}) needs a database to replay onto, "
            f"but no checkpoint loaded and no state record preceded it"
        )
    if kind in ("update", "admin"):
        script = parse_xupdate(payload["script"])
        if kind == "update":
            outcome = database.login(payload["user"]).execute(
                script, strict=bool(payload.get("strict", False))
            )
            applied, denied = bool(outcome.fully_applied), outcome.denials
        else:
            outcome = database.admin_update(script)
            applied, denied = True, outcome.denied
        if result_sink is not None:
            result_sink(
                record,
                {
                    "fully_applied": applied,
                    "selected": len(outcome.selected),
                    "affected": len(outcome.affected),
                    "denied": len(denied),
                    "version": database.version,
                },
            )
        return database
    if kind == "subjects":
        _apply_subjects(database.subjects, payload["op"], payload["args"])
        return database
    if kind == "policy":
        _apply_policy(database.policy, payload["op"], payload["args"])
        return database
    raise RecoveryError(f"lsn {record.lsn}: unknown record kind {kind!r}")


def _apply_subjects(subjects, op: str, args) -> None:
    if op == "add_role":
        subjects.add_role(args[0])
    elif op == "add_user":
        subjects.add_user(args[0])
    elif op == "add_isa":
        subjects.add_isa(args[0], args[1])
    else:
        raise RecoveryError(f"unknown subjects event {op!r}")


def _apply_policy(policy, op: str, args) -> None:
    if op == "accept":
        privilege, path, subject, priority = args
        policy.grant(privilege, path, subject, priority=int(priority))
    elif op == "deny":
        privilege, path, subject, priority = args
        policy.deny(privilege, path, subject, priority=int(priority))
    elif op == "revoke":
        priority = int(args[0])
        for rule in policy:
            if rule.priority == priority:
                policy.revoke(rule)
                return
        raise RecoveryError(
            f"revoke event references unknown rule priority {priority}"
        )
    else:
        raise RecoveryError(f"unknown policy event {op!r}")

