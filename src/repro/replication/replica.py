"""A read-only replica continuously replaying a primary's log.

One :class:`Replica` owns a private :class:`SecureXMLDatabase` built
and maintained exclusively from a primary's write-ahead-log directory:

1. **Seeding / catch-up** run the existing recovery path
   (:func:`repro.wal.recover`, lenient and strictly read-only on the
   primary's files): newest loadable checkpoint plus the committed
   suffix.  The same path is the fallback whenever incremental
   following becomes impossible -- the stream position pruned away,
   the tail torn, the replica quarantined.  Like every load in the
   durability stack, the replayed document takes the default
   persistent Dewey numbering; a replica has no scheme of its own.
2. **Following** tails the segment files with a
   :class:`~repro.wal.WalStream` and applies each record through
   :func:`repro.wal.apply_record` -- the real secured update path, so
   enforcement is *preserved by construction*: the replica's permission
   state is re-derived from the same committed scripts, never copied.
3. **Serving** hands out read-only sessions from the replica's own
   shared view cache; the underlying database is marked
   :attr:`~repro.security.SecureXMLDatabase.read_only`, so any write
   that sneaks past the router raises
   :class:`~repro.errors.ReadOnlyReplica` instead of forking history.

The replica checks the recovery invariant on every applied commit
record (the stamped version must be the successor of its own), and
checks *state-hash convergence* on every streamed ``checkpoint``
record: its own :func:`~repro.storage.state_digest` must equal the
digest recorded in the primary's snapshot integrity header.  Any
mismatch quarantines the replica -- every read raises
:class:`~repro.errors.ReplicaDiverged` until :meth:`Replica.catch_up`
re-seeds it from a primary checkpoint.  A diverged replica never
serves a read.

Failover additions (ISSUE 9): the replica tracks the highest **fencing
epoch** seen in the stream and quarantines on any *lower*-epoch record
(a deposed primary's leftover -- counted as ``fenced_records``),
timestamps every successful poll/catch-up as its heartbeat
(``last_heartbeat_ms`` in :meth:`stats`), rebuilds the exactly-once
dedup ledger from ``idem``-annotated commit records (so a promoted
replica remembers every acknowledgement the old primary made durable),
and can be :meth:`retarget`-ed to a new primary's log directory after
a promotion.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ReplicaDiverged, WalStreamGap
from ..security.session import Session, SessionCache
from ..serving.dedup import DedupTable
from ..serving.rwlock import RWLock
from ..storage import snapshot_digest, state_digest
from ..faults import InjectedFault, kill_point
from ..wal import WalStream, apply_record, recover, tail_lsn
from ..xpath.values import NodeSet, XPathValue

__all__ = ["Replica"]


class Replica:
    """A continuously-replaying, read-only copy of a logged database.

    Args:
        directory: the primary's write-ahead-log directory (must hold
            at least one loadable checkpoint or a bootstrap state
            record; the primary's :meth:`DatabaseServer.open` cuts one
            on first open).
        replica_id: name used in stats and errors (defaults to the
            directory basename plus a counter).
        clock: monotonic time source, injectable for tests.

    Construction seeds the replica immediately (one full catch-up);
    afterwards :meth:`poll` / :meth:`sync` advance it.  All methods are
    thread-safe: applies take the exclusive side of an internal
    reader-writer lock, reads the shared side.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(
        self,
        directory: str,
        *,
        replica_id: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._directory = os.path.abspath(directory)
        if replica_id is None:
            with Replica._counter_lock:
                Replica._counter += 1
                replica_id = (
                    f"{os.path.basename(self._directory)}"
                    f"#{Replica._counter}"
                )
        self._id = replica_id
        self._clock = clock
        self._lock = RWLock()
        self._sessions = SessionCache(lambda user: self._database.login(user))
        self._database = None
        self._stream: Optional[WalStream] = None
        self._applied_lsn = 0
        self._state = "seeding"
        self._quarantine_reason: Optional[str] = None
        self._epoch = 0
        self._last_beat = clock()
        self._dedup = DedupTable()
        self._stats: Dict[str, int] = {
            "records_applied": 0,  # streamed records replayed in place
            "catchups": 0,  # checkpoint re-seeds (seed + gap + re-seed)
            "stream_gaps": 0,  # WalStreamGap absorbed by catch-up
            "divergence_checks": 0,  # checkpoint digests compared, equal
            "divergence_check_skips": 0,  # snapshot pruned before compare
            "divergences": 0,  # times this replica was quarantined
            "reads": 0,  # read requests served
            "fenced_records": 0,  # stale-epoch records refused
            "retargets": 0,  # times re-pointed at a new primary's log
        }
        with self._lock.write_locked():
            self._catch_up_locked()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def replica_id(self) -> str:
        """Name used in stats and error messages."""
        return self._id

    @property
    def directory(self) -> str:
        """The primary's log directory being followed."""
        return self._directory

    @property
    def database(self):
        """The replica's own database (read-only; shared view cache)."""
        return self._database

    @property
    def version(self) -> int:
        """The replica's current database version."""
        return self._database.version

    @property
    def applied_lsn(self) -> int:
        """The last log record this replica has applied."""
        return self._applied_lsn

    @property
    def state(self) -> str:
        """``"following"`` or ``"quarantined"``."""
        return self._state

    @property
    def quarantined(self) -> bool:
        """True when divergence was detected; reads are refused."""
        return self._state == "quarantined"

    @property
    def epoch(self) -> int:
        """The highest fencing epoch this replica has observed."""
        return self._epoch

    @property
    def last_heartbeat_ms(self) -> float:
        """Milliseconds since the last successful poll or catch-up.

        The failure detector's per-replica liveness signal: a replica
        whose heartbeat age keeps growing is not making progress
        against its primary's log.
        """
        return max(0.0, (self._clock() - self._last_beat) * 1000.0)

    def dedup_entries(self):
        """Snapshot of the rebuilt exactly-once ledger, oldest first.

        Used at promotion to seed the new primary's dedup table so a
        client retrying an acknowledged write against the new primary
        still gets exactly-once semantics.
        """
        return self._dedup.entries()

    def lag(self, primary_lsn: Optional[int] = None) -> int:
        """Records between the primary's tail and this replica.

        Args:
            primary_lsn: the primary's last lsn when the caller already
                knows it (e.g. from ``WriteAheadLog.lsn``); omitted, the
                newest segment is read for its last usable record.
        """
        if primary_lsn is None:
            primary_lsn = tail_lsn(self._directory)
        return max(0, primary_lsn - self._applied_lsn)

    def stats(self) -> Dict[str, Any]:
        """Replica health in one place: identity, state, applied lsn,
        version, the apply/catch-up/divergence counters, and the
        underlying database's serving counters."""
        out: Dict[str, Any] = {
            "replica_id": self._id,
            "state": self._state,
            "applied_lsn": self._applied_lsn,
            "quarantine_reason": self._quarantine_reason,
        }
        out.update(self._stats)
        out.update(self._database.stats())
        out["epoch"] = self._epoch
        out["last_heartbeat_ms"] = self.last_heartbeat_ms
        out["dedup_size"] = len(self._dedup)
        return out

    # ------------------------------------------------------------------
    # the replication protocol
    # ------------------------------------------------------------------
    def catch_up(self) -> int:
        """Re-seed from the newest checkpoint and replay the suffix.

        The fallback half of the protocol -- used when the replica is
        too far behind to follow incrementally (its stream position was
        pruned), when its tail view is torn, and to *re-seed a
        quarantined replica* (the only way back into service after
        divergence).  Strictly read-only on the primary's files.

        Returns:
            The lsn distance covered (0 when already caught up).

        Raises:
            RecoveryError: the directory holds nothing recoverable.
        """
        with self._lock.write_locked():
            before = self._applied_lsn
            self._catch_up_locked()
            return max(0, self._applied_lsn - before)

    def _catch_up_locked(self) -> None:
        # recover() is lenient and repair=False: it never writes to the
        # primary's directory -- a torn live tail is simply where the
        # replay stops, and the stream picks up from there.
        result = recover(self._directory)
        database = result.database
        database.set_read_only(True)
        checkpoint_lsn = (
            result.checkpoint.lsn if result.checkpoint is not None else 0
        )
        self._database = database
        self._applied_lsn = max(result.last_lsn, checkpoint_lsn)
        self._stream = WalStream(self._directory, from_lsn=self._applied_lsn)
        self._state = "following"
        self._quarantine_reason = None
        self._epoch = max(self._epoch, result.epoch)
        self._dedup.seed(result.dedup.items())
        self._sessions.clear()
        self._stats["catchups"] += 1
        self._last_beat = self._clock()

    def poll(self, max_records: Optional[int] = None) -> int:
        """Pull and apply everything new the primary has made durable.

        One round of the following protocol: read the stream, apply
        each record through the secured replay path, advance the
        applied lsn.  A :class:`~repro.errors.WalStreamGap` (position
        pruned / history rewritten under the cursor) is absorbed by an
        automatic :meth:`catch_up`.

        Args:
            max_records: cap the records applied this call (None
                drains to the primary's current durable tail).

        Returns:
            The lsn distance covered by this call.

        Raises:
            ReplicaDiverged: the replica is (or just became)
                quarantined -- a stamped-version or checkpoint-digest
                mismatch; re-seed with :meth:`catch_up`.
            InjectedFault: an armed replication kill-point fired (the
                replica object itself stays consistent: records applied
                before the kill remain applied and acknowledged).
        """
        with self._lock.write_locked():
            return self._poll_locked(max_records)

    def _poll_locked(self, max_records: Optional[int]) -> int:
        if self.quarantined:
            raise ReplicaDiverged(
                f"replica {self._id} is quarantined "
                f"({self._quarantine_reason}); catch_up() to re-seed"
            )
        before = self._applied_lsn
        try:
            records = self._stream.poll(max_records)
        except WalStreamGap:
            self._stats["stream_gaps"] += 1
            self._catch_up_locked()
            return max(0, self._applied_lsn - before)
        try:
            for record in records:
                kill_point(
                    "replica-before-apply", lsn=record.lsn, kind=record.kind
                )
                self._apply_one(record)
                self._applied_lsn = record.lsn
                self._stats["records_applied"] += 1
                kill_point("replica-mid-replay", lsn=record.lsn)
        except BaseException:
            # The stream cursor ran ahead of what was applied: rewind
            # to the acknowledged position so nothing in the batch is
            # lost across the failure (exactly-once apply on retry).
            self._stream = WalStream(
                self._directory, from_lsn=self._applied_lsn
            )
            raise
        self._last_beat = self._clock()
        return max(0, self._applied_lsn - before)

    def _apply_one(self, record) -> None:
        """Apply one streamed record, enforcing the two invariants."""
        database = self._database
        payload = record.payload
        epoch = record.epoch
        if epoch < self._epoch:
            # A deposed primary's leftover write: once a higher epoch
            # has been observed, lower-epoch records are *never*
            # applied -- the replica fences itself off instead of
            # forking history.
            self._stats["fenced_records"] += 1
            self._quarantine(
                f"lsn {record.lsn} carries stale epoch {epoch} after "
                f"epoch {self._epoch} was observed",
                expected=str(self._epoch),
                actual=str(epoch),
            )
        self._epoch = epoch
        if record.kind in ("update", "admin"):
            stamped = int(payload["version"])
            if stamped != database.version + 1:
                self._quarantine(
                    f"lsn {record.lsn} is stamped version {stamped}, but "
                    f"this replica stands at {database.version}",
                    expected=str(stamped),
                    actual=str(database.version + 1),
                )
        if record.kind == "checkpoint":
            self._verify_checkpoint(record)
            return
        database.set_read_only(False)
        try:
            replaced = apply_record(
                database, record, result_sink=self._remember
            )
        except InjectedFault:
            raise  # a simulated crash, not a divergence
        except Exception as exc:
            self._quarantine(
                f"replay of lsn {record.lsn} ({record.kind}) failed on the "
                f"replica: {exc}"
            )
        finally:
            database.set_read_only(True)
        if replaced is not database:
            replaced.set_read_only(True)
            self._database = replaced
            self._sessions.clear()
            database = replaced
        if record.kind in ("update", "admin", "state"):
            stamped = int(payload["version"])
            if database.version != stamped:
                self._quarantine(
                    f"replay of lsn {record.lsn} left this replica at "
                    f"version {database.version}, but the record is "
                    f"stamped {stamped}",
                    expected=str(stamped),
                    actual=str(database.version),
                )

    def _verify_checkpoint(self, record) -> None:
        """Divergence detection: this replica's state hash must equal
        the digest in the primary's snapshot integrity header."""
        database = self._database
        stamped = int(record.payload["version"])
        if database.version != stamped:
            self._quarantine(
                f"checkpoint at lsn {record.lsn} is stamped version "
                f"{stamped}, but this replica stands at {database.version}",
                expected=str(stamped),
                actual=str(database.version),
            )
        path = os.path.join(self._directory, record.payload["snapshot"])
        recorded = snapshot_digest(path)
        if recorded is None:
            # The snapshot was pruned (or has no header): nothing to
            # compare against -- skipped, never counted as divergence.
            self._stats["divergence_check_skips"] += 1
            return
        mine = state_digest(
            database.document, database.subjects, database.policy
        )
        if mine != recorded:
            self._quarantine(
                f"state hash diverged from primary checkpoint "
                f"{record.payload['snapshot']} at version {stamped}",
                expected=recorded,
                actual=mine,
            )
        self._stats["divergence_checks"] += 1

    def _remember(self, record, summary: Dict[str, Any]) -> None:
        """Capture an ``idem``-annotated commit into the dedup ledger."""
        key = record.payload.get("idem")
        if key is not None:
            self._dedup.put(str(key), summary)

    def retarget(self, directory: str) -> int:
        """Follow a different primary's log directory.

        Used after a supervised promotion: every surviving replica is
        re-pointed at the new primary's log.  Re-seeds immediately
        (full catch-up from the new directory's newest checkpoint),
        which also clears any quarantine -- the new primary's
        checkpoint is the fresh trusted baseline.

        Returns:
            The lsn distance covered by the re-seed (0 when the new
            log starts behind the old position).

        Raises:
            RecoveryError: the new directory holds nothing recoverable.
        """
        with self._lock.write_locked():
            before = self._applied_lsn
            self._directory = os.path.abspath(directory)
            self._stats["retargets"] += 1
            self._catch_up_locked()
            return max(0, self._applied_lsn - before)

    def _quarantine(
        self, reason: str, expected: str = "", actual: str = ""
    ) -> None:
        self._state = "quarantined"
        self._quarantine_reason = reason
        self._stats["divergences"] += 1
        raise ReplicaDiverged(
            f"replica {self._id}: {reason}", expected=expected, actual=actual
        )

    def sync(self) -> int:
        """Drain the stream completely (repeated :meth:`poll`).

        Returns the total lsn distance covered.
        """
        total = 0
        while True:
            advanced = self.poll()
            if advanced == 0:
                return total
            total += advanced

    # ------------------------------------------------------------------
    # read-only serving
    # ------------------------------------------------------------------
    def serve(
        self, user: str, fn: Callable[[Session], Any]
    ) -> Tuple[Any, int]:
        """Run ``fn(session)`` under the read discipline.

        The building block the router and the convenience readers use:
        takes the shared lock (so applies never interleave a read),
        refuses to serve while quarantined, and returns ``(result,
        version)`` where the version is the exact database generation
        the result was derived from -- the stamp read-your-writes
        checks compare against.

        Raises:
            ReplicaDiverged: the replica is quarantined.
        """
        with self._lock.read_locked():
            if self.quarantined:
                raise ReplicaDiverged(
                    f"replica {self._id} is quarantined "
                    f"({self._quarantine_reason}); diverged state is "
                    f"never served"
                )
            result = fn(self._sessions.get(user))
            version = self._database.version
        self._stats["reads"] += 1
        return result, version

    def view(self, user: str):
        """The user's authorized view on the replica's current state."""
        return self.serve(user, lambda s: s.view())[0]

    def query(self, user: str, path: str) -> XPathValue:
        """Evaluate an XPath expression on the user's view."""
        return self.serve(user, lambda s: s.query(path))[0]

    def select(self, user: str, path: str) -> NodeSet:
        """Evaluate a path on the user's view, requiring a node-set."""
        return self.serve(user, lambda s: s.select(path))[0]

    def read_xml(self, user: str, indent: Optional[str] = None) -> str:
        """The user's view serialized as XML."""
        return self.serve(user, lambda s: s.read_xml(indent=indent))[0]
