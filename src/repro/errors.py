"""Structured error taxonomy for the whole library.

Every failure the library can signal descends from :class:`ReproError`,
so callers can catch one base class instead of an ad-hoc mix of
``ValueError`` / ``PermissionError`` / bare ``Exception`` subclasses.
Domain modules keep defining their own error types (``PolicyError``,
``SubjectError``, ``XUpdateError``, ``AccessDenied``, ...) but parent
them here; the storage errors live here outright because both
:mod:`repro.storage` and :mod:`repro.cli` need them without importing
each other.

The taxonomy::

    ReproError
    ├── UpdateAborted          (a script rolled back mid-way)
    ├── ConcurrentUpdateError  (optimistic-concurrency commit conflict)
    ├── StorageError           (malformed/unsupported database file)
    │   └── StorageCorrupt     (file damaged beyond strict loading)
    ├── DiskError              (a raw OS disk failure, classified)
    │   ├── DiskFullError      (ENOSPC/EDQUOT: the volume is out of space)
    │   └── DiskIOError        (EIO and friends: the device failed the op)
    ├── ServingError           (repro.serving: a governed request failed)
    │   ├── OverloadError      (admission control shed the request)
    │   ├── DeadlineExceeded   (per-request deadline expired)
    │   ├── CircuitOpenError   (circuit breaker refusing writes)
    │   └── RetryExhausted     (backoff retries used up on commit races)
    ├── WalError               (repro.wal: durability subsystem failures)
    │   ├── WalWriteError      (an append/fsync failed; the log may be torn)
    │   ├── WalCorruptionError (a segment holds a corrupt/torn record)
    │   ├── RecoveryError      (replay could not restore the logged state)
    │   └── WalStreamGap       (a follower's position was pruned away)
    ├── ReplicationError       (repro.replication: primary/replica serving)
    │   ├── ReplicaDiverged    (replica state-hash != primary checkpoint)
    │   ├── ReadOnlyReplica    (a write reached a replica's database)
    │   ├── StaleEpochError    (a fenced/deposed primary tried to write)
    │   ├── FailoverError      (supervised promotion could not complete)
    │   └── RepairError        (anti-entropy repair from a peer failed)
    ├── NetworkError           (repro.netserve: the wire protocol)
    │   ├── ProtocolError      (malformed frame, bad handshake, oversized)
    │   │   └── FrameTooLarge  (frame exceeds the negotiated maximum)
    │   └── RemoteError        (a server-side failure relayed to a client)
    ├── InjectedFault          (repro.faults: simulated crash)
    ├── PolicyError            (repro.security.policy)
    ├── SubjectError           (repro.security.subjects)
    ├── XUpdateError           (repro.xupdate.executor)
    └── AccessDenied           (repro.security.write)

Pre-existing exception lineages are preserved for compatibility:
``StorageError`` and ``PolicyError`` remain ``ValueError`` subclasses,
``AccessDenied`` remains a ``PermissionError``.

The ``ServingError`` branch is raised only by the serving layer
(:mod:`repro.serving`): the one-shot library API never sheds, times
out, or retries by itself.  All four carry enough context to decide
whether to re-submit (``RetryExhausted.last_error``,
``CircuitOpenError.retry_after``, ...).
"""

from __future__ import annotations

import errno

from typing import Any, Optional

__all__ = [
    "ReproError",
    "UpdateAborted",
    "ConcurrentUpdateError",
    "StorageError",
    "StorageCorrupt",
    "DiskError",
    "DiskFullError",
    "DiskIOError",
    "classify_disk_error",
    "WalError",
    "WalWriteError",
    "WalCorruptionError",
    "RecoveryError",
    "WalStreamGap",
    "ReplicationError",
    "ReplicaDiverged",
    "ReadOnlyReplica",
    "StaleEpochError",
    "FailoverError",
    "RepairError",
    "NetworkError",
    "ProtocolError",
    "FrameTooLarge",
    "RemoteError",
    "ServingError",
    "OverloadError",
    "DeadlineExceeded",
    "CircuitOpenError",
    "RetryExhausted",
]


class ReproError(Exception):
    """Root of the library's error taxonomy."""


class UpdateAborted(ReproError):
    """A multi-operation update script failed and was rolled back.

    The theory-replacement semantics (formulae (2)-(9), axioms 18-25) is
    all-or-nothing: when any operation of a script fails, no part of the
    script reaches the database.  This error reports *which* operation
    failed and carries the last consistent intermediate document (the
    savepoint after the preceding operation) for diagnosis -- the
    savepoint is never installed anywhere.

    Attributes:
        operation_index: zero-based index of the failing operation.
        operation: the failing operation's class name (``"Rename"``...).
        completed: number of operations that had fully applied before
            the failure; all of them were rolled back.
        savepoint: the intermediate document after ``completed``
            operations, or None when unavailable.
    """

    def __init__(
        self,
        message: str,
        *,
        operation_index: Optional[int] = None,
        operation: Optional[str] = None,
        completed: int = 0,
        savepoint: Any = None,
    ) -> None:
        super().__init__(message)
        self.operation_index = operation_index
        self.operation = operation
        self.completed = completed
        self.savepoint = savepoint


class ConcurrentUpdateError(ReproError):
    """A transaction tried to commit over a concurrent commit.

    Raised by :class:`repro.security.database.Transaction` when the
    database version moved between ``begin`` and ``commit`` -- the
    optimistic-concurrency guard that keeps two interleaved scripts from
    silently clobbering each other.
    """


class ServingError(ReproError):
    """Root of the serving-layer failures (admission, deadlines, retry).

    Raised only by :mod:`repro.serving`; the underlying one-shot
    library API never signals these by itself.
    """


class OverloadError(ServingError):
    """Admission control refused the request: the in-flight budget is
    exhausted and the overload policy is ``"shed"``.

    Shedding is deliberate back-pressure, not a failure of the
    database: the request was never started, so it is always safe to
    re-submit later.

    Attributes:
        limit: the configured in-flight budget.
        in_flight: requests running when this one was shed.
    """

    def __init__(self, message: str, *, limit: int = 0, in_flight: int = 0) -> None:
        super().__init__(message)
        self.limit = limit
        self.in_flight = in_flight


class DeadlineExceeded(ServingError):
    """A per-request deadline expired before the request completed.

    May fire while queued for admission, while waiting for the
    reader-writer lock, between backoff retries, or *mid-script* --
    the deadline checkpoint runs before every script operation, so an
    expired write aborts through the executor's savepoint path with
    nothing committed.

    Attributes:
        budget: the deadline's total budget in seconds, when known.
    """

    def __init__(self, message: str, *, budget: Optional[float] = None) -> None:
        super().__init__(message)
        self.budget = budget


class CircuitOpenError(ServingError):
    """The write circuit breaker is open: recent writes failed
    repeatedly, so new writes are refused without touching the
    database until the reset timer half-opens the circuit.

    Attributes:
        failures: consecutive failures that tripped the breaker.
        retry_after: seconds until the breaker half-opens (0 when it
            is already probing).
    """

    def __init__(
        self, message: str, *, failures: int = 0, retry_after: float = 0.0
    ) -> None:
        super().__init__(message)
        self.failures = failures
        self.retry_after = retry_after


class RetryExhausted(ServingError):
    """Every backoff retry of a write hit a commit race
    (:class:`ConcurrentUpdateError`); the request gives up rather than
    spin forever.

    Attributes:
        attempts: how many times the write was attempted.
        last_error: the final :class:`ConcurrentUpdateError`.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        last_error: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class WalError(ReproError):
    """Root of the write-ahead-log durability failures
    (:mod:`repro.wal`)."""


class WalWriteError(WalError):
    """An append (or its fsync) failed; the tail of the log may be torn.

    After this error the in-memory writer refuses further appends (the
    on-disk offset is no longer trustworthy); re-open the log -- which
    truncates any torn tail -- or degrade to snapshot-only durability,
    as :class:`repro.serving.DatabaseServer` does.

    Attributes:
        disk: the classified :class:`DiskError` when the failure was a
            raw OS disk error (``ENOSPC``, ``EIO``, ...), else None.
            A :class:`DiskFullError` here is recoverable without
            degrading the writer: reclaim space (checkpoint + retention
            prune) and reopen the log.
    """

    def __init__(self, message: str, *, disk: Optional["DiskError"] = None) -> None:
        super().__init__(message)
        self.disk = disk


class WalCorruptionError(WalError):
    """A log segment holds a record that fails its length or CRC check.

    Raised only by *strict* scans and recovery; the default lenient
    recovery truncates the log at the first corrupt record (the
    torn-tail rule) and reports it instead of raising.
    """


class RecoveryError(WalError):
    """Crash recovery could not restore the logged state.

    Raised when no loadable checkpoint snapshot exists, or when
    replaying a committed record does not reproduce the version the
    record was stamped with (the recovery invariant).
    """


class WalStreamGap(WalError):
    """A log follower's position is no longer on disk.

    Raised by :class:`repro.wal.WalStream` when the segment holding the
    next record to deliver has been pruned away (checkpoint retention
    outran the follower) or rewritten past recognition.  The follower
    cannot make incremental progress; it must re-seed from the newest
    checkpoint -- :meth:`repro.replication.Replica.catch_up` is exactly
    that protocol.

    Attributes:
        next_lsn: the lsn the follower needed next.
        oldest_available: the oldest lsn still readable from the
            directory (0 when the directory holds no records at all).
    """

    def __init__(
        self, message: str, *, next_lsn: int = 0, oldest_available: int = 0
    ) -> None:
        super().__init__(message)
        self.next_lsn = next_lsn
        self.oldest_available = oldest_available


class ReplicationError(ReproError):
    """Root of the primary/replica serving failures
    (:mod:`repro.replication`)."""


class ReplicaDiverged(ReplicationError):
    """A replica's replayed state does not match the primary's.

    Detected when a streamed checkpoint record's snapshot digest (or
    stamped version) disagrees with the replica's own state hash at the
    same point in the log.  A diverged replica is *quarantined*: every
    read it is asked to serve raises this error until
    :meth:`repro.replication.Replica.catch_up` re-seeds it from a
    primary checkpoint.

    Attributes:
        expected: the primary-side digest or version description.
        actual: what the replica computed instead.
    """

    def __init__(
        self, message: str, *, expected: str = "", actual: str = ""
    ) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class ReadOnlyReplica(ReplicationError):
    """A write reached a database serving as a read-only replica.

    Replicas mutate only through the replication apply path; any other
    commit would silently fork the replica from the primary's history.
    Route writes through the primary (see
    :class:`repro.replication.ReplicationRouter`).
    """


class StaleEpochError(ReplicationError):
    """A write carried (or would be stamped with) a fencing epoch older
    than the highest epoch the rejecting side has observed.

    Fencing epochs make failover split-brain-safe: every promotion bumps
    a monotonically increasing epoch stamped into WAL records and
    checkpoint metadata.  A deposed primary that keeps serving writes is
    *fenced* -- the router refuses to route to it, its own
    :class:`~repro.serving.DatabaseServer` refuses to acknowledge, and
    replicas quarantine rather than apply its stale records.  A write
    refused with this error was **never acknowledged** and never reached
    the authoritative log; re-submit it to the current primary.

    Attributes:
        epoch: the stale epoch the write carried.
        current: the highest epoch the rejecting side has observed.
    """

    def __init__(
        self, message: str, *, epoch: int = 0, current: int = 0
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.current = current


class FailoverError(ReplicationError):
    """Supervised failover could not promote a new primary.

    Raised by :class:`repro.replication.FailoverSupervisor` when no
    non-quarantined replica exists to promote, or every candidate fails
    to drain to the reachable end of the log.  The cluster is left
    read-degraded but consistent: nothing was promoted, no epoch was
    burned, and the supervisor may retry once a replica recovers.

    Attributes:
        reason: a short machine-readable cause (``"no-candidates"``,
            ``"drain-failed"``, ...).
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class RepairError(ReplicationError):
    """Anti-entropy repair from a peer could not complete.

    Raised by :func:`repro.replication.repair_from_peer` when the peer
    itself is damaged (a scrub of the peer's directory found non-benign
    corruption), when the staged copy fails to recover to the peer's
    exact state, or when the install step hits a disk error.  The
    damaged directory is left as it was (staging is discarded): a
    failed repair never makes things worse.

    Attributes:
        reason: a short machine-readable cause (``"peer-damaged"``,
            ``"stage-mismatch"``, ``"install-failed"``, ...).
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class NetworkError(ReproError):
    """Root of the network front-end failures (:mod:`repro.netserve`)."""


class ProtocolError(NetworkError):
    """The wire protocol was violated: an unparseable frame, a request
    before ``open_session``, an unknown operation, or a frame the peer
    refuses to accept.

    The server answers with a final error frame and closes the
    connection -- a protocol violation never hangs the peer.
    """


class FrameTooLarge(ProtocolError):
    """A length prefix announced a frame beyond the configured maximum.

    Attributes:
        announced: the length the prefix claimed, in bytes.
        limit: the maximum the codec accepts.
    """

    def __init__(self, message: str, *, announced: int = 0, limit: int = 0) -> None:
        super().__init__(message)
        self.announced = announced
        self.limit = limit


class RemoteError(NetworkError):
    """A server-side failure relayed across the wire to a client.

    The client cannot re-raise the server's exact exception class (the
    payload is JSON), so the error *kind* travels as a string --
    ``"OverloadError"``, ``"AccessDenied"``, ... -- and callers branch
    on :attr:`kind` the way in-process callers branch on class.

    Attributes:
        kind: the server-side exception class name.
        remote_message: the server-side message verbatim.
    """

    def __init__(self, message: str, *, kind: str = "", remote_message: str = "") -> None:
        super().__init__(message)
        self.kind = kind
        self.remote_message = remote_message


class StorageError(ReproError, ValueError):
    """Malformed or unsupported database file."""


class StorageCorrupt(StorageError):
    """The file is damaged beyond what strict loading accepts.

    Lenient loading (:func:`repro.storage.load_from_file` with
    ``mode="lenient"``) may still recover the readable parts; this error
    is raised when even that is impossible (e.g. the XML itself is not
    well-formed).
    """


class DiskError(ReproError, OSError):
    """A raw OS disk failure, classified into the taxonomy.

    The storage and WAL layers never let a bare ``OSError`` escape a
    durability path: :func:`classify_disk_error` maps it to
    :class:`DiskFullError` or :class:`DiskIOError` so callers can
    branch -- disk-full is recoverable by reclaiming space, a device
    I/O error is not.  The ``OSError`` lineage is preserved so existing
    ``except OSError`` handlers keep working.

    Attributes:
        path: the file the operation touched, when known.
        op: the failing operation (``"open"``/``"read"``/``"write"``/
            ``"fsync"``/...), when known.
    """

    def __init__(self, message: str, *, path: str = "", op: str = "") -> None:
        # OSError.__init__ with a single argument keeps errno unset;
        # the original errno travels via __cause__ instead.
        super().__init__(message)
        self.path = path
        self.op = op


class DiskFullError(DiskError):
    """The volume is out of space (``ENOSPC``/``EDQUOT``).

    Recoverable without failing over: shed the write, reclaim space
    (checkpoint + retention prune), and retry -- the admission ladder
    in :class:`repro.serving.DatabaseServer` does exactly that.
    """


class DiskIOError(DiskError):
    """The device failed the operation (``EIO`` and friends).

    Not recoverable by the writer itself: the failure detector treats a
    persistently sick disk as a dead primary and promotes a replica.
    """


_DISK_FULL_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        getattr(errno, "EFBIG", None),
    )
    if code is not None
)


def classify_disk_error(
    exc: OSError, *, path: str = "", op: str = ""
) -> DiskError:
    """Map a raw ``OSError`` from a durability path into the taxonomy.

    ``ENOSPC``-family errnos become :class:`DiskFullError`; everything
    else (``EIO``, ``EROFS``, ``EBADF``, unknown) becomes
    :class:`DiskIOError`.  The returned error chains the original via
    ``__cause__`` conventions when raised with ``from exc``.
    """
    where = f" ({op} {path})" if path else (f" ({op})" if op else "")
    if exc.errno in _DISK_FULL_ERRNOS:
        return DiskFullError(f"disk full{where}: {exc}", path=path, op=op)
    return DiskIOError(f"disk I/O error{where}: {exc}", path=path, op=op)
