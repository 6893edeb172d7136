"""The governed serving front-end over :class:`SecureXMLDatabase`.

One :class:`DatabaseServer` wraps one database and turns the library's
one-shot calls into *requests* with a serving contract:

1. **Lock discipline.**  Reads (views, queries) run under the shared
   side of a :class:`~repro.serving.rwlock.RWLock`, so any number of
   sessions serve views concurrently; writes take the exclusive side
   per attempt, so a script's selection, privilege checks and commit
   all observe one frozen database generation.  The backoff *sleep*
   between write attempts happens outside the lock -- a retrying
   writer never starves readers.
2. **One write path, one retry schedule.**  :meth:`~DatabaseServer.execute`
   is the blocking driver of
   :meth:`~repro.serving.group.GroupCommitter.schedule` on a
   server-owned committer whose groups have one seat, so an
   in-process write takes exactly the route a socket write takes:
   every attempt is one :meth:`~DatabaseServer.execute_once`.  A
   commit race (:class:`~repro.errors.ConcurrentUpdateError` from an
   interleaved commit -- another server, an administrative update), a
   detached log or a reclaimed full disk re-submits the write on the
   :class:`~repro.serving.retry.RetryPolicy`'s decorrelated-jitter
   schedule; the client sees none of it unless the policy's attempts
   run out (:class:`~repro.errors.RetryExhausted`).
3. **Deadlines.**  Every request carries a
   :class:`~repro.serving.retry.Deadline` (per-call or the server
   default) checked at each blocking point; on the write path it rides
   the executor's checkpoint hook, so an expired script aborts through
   the savepoint path with nothing committed.
4. **Admission control + circuit breaker.**  An
   :class:`~repro.serving.admission.AdmissionController` bounds
   in-flight requests (``block`` queues, ``shed`` fails fast with
   :class:`~repro.errors.OverloadError`); a
   :class:`~repro.serving.admission.CircuitBreaker` refuses writes
   outright after repeated write failures until a timed probe
   succeeds.
5. **Graceful degradation.**  View serving never fails on a cache
   bug: the shared cache falls back internally (patch -> full build ->
   per-session rebuild, see ``SecureXMLDatabase.build_view``), and
   every degradation is logged and counted in :meth:`stats`.

Shed, timed-out, retry-exhausted, disk-full and epoch-fenced requests
are recorded in the database's audit log (events ``"shed"`` /
``"deadline"`` / ``"retry-exhausted"`` / ``"disk-full"`` /
``"fenced"``), exactly like aborted scripts are.

Example::

    server = DatabaseServer(
        db,
        retry=RetryPolicy(max_attempts=8),
        max_in_flight=64,
        overload="shed",
        default_deadline=0.5,
    )
    xml = server.read_xml("laporte")
    result = server.execute("laporte", script, strict=True)
"""

from __future__ import annotations

import contextlib
import copy
import logging
import os
import random
import threading
import time
from typing import Any, Callable, Dict, Optional, Union

from ..errors import (
    ConcurrentUpdateError,
    DeadlineExceeded,
    DiskFullError,
    DiskIOError,
    OverloadError,
    StaleEpochError,
    UpdateAborted,
    WalWriteError,
)
from ..security.database import SecureXMLDatabase
from ..security.session import Session, SessionCache
from ..security.write import AccessDenied, SecureUpdateResult
from ..xpath.values import NodeSet, XPathValue
from ..xupdate.operations import UpdateScript, XUpdateOperation
from .admission import AdmissionController, CircuitBreaker
from .dedup import DedupTable, DedupedResult
from .group import GroupCommitter
from .retry import Deadline, RetryPolicy
from .rwlock import RWLock

__all__ = ["DatabaseServer"]

logger = logging.getLogger("repro.serving")

#: Consecutive disk-I/O-failed commits after which :meth:`stats`
#: reports ``disk_sick`` True -- the failover supervisor treats a sick
#: primary disk as a promotion reason.
DISK_SICK_THRESHOLD = 3

#: Consecutive :class:`~repro.errors.WalWriteError` commits after which
#: the server *detaches* the failing log and keeps serving with
#: snapshot-only durability (counted as ``wal_degraded`` in
#: :meth:`DatabaseServer.stats`) rather than refusing every write.
WAL_FAILURE_THRESHOLD = 3


class DatabaseServer:
    """A thread-safe, overload-aware front-end over one database.

    Args:
        database: the :class:`SecureXMLDatabase` being served.
        retry: the one backoff schedule every write's re-submits
            follow, in-process or over a socket (default
            :class:`RetryPolicy()`).
        max_in_flight: admission budget; None disables admission
            control.
        overload: ``"block"`` or ``"shed"`` (see
            :class:`AdmissionController`).
        breaker: write circuit breaker; None builds a default one on
            this server's clock.
        default_deadline: seconds applied to requests that pass no
            per-call deadline; None means unbounded.
        wal: a :class:`repro.wal.WriteAheadLog` to attach to the
            database (every commit becomes write-ahead durable); None
            serves whatever durability the database already has.  After
            :data:`WAL_FAILURE_THRESHOLD` consecutive refused commits
            the failing log is detached (see :meth:`stats`'s
            ``wal_degraded``).
        checkpoint_every: automatically :meth:`checkpoint` after this
            many committed writes; None disables auto-checkpointing.
        scrub_interval: seconds between background integrity-scrub
            steps over the attached log's directory (see
            :class:`repro.scrub.Scrubber`); None (the default) runs no
            background scrub -- :meth:`scrub_step` is still available
            for caller-paced scrubbing.
        scrub_budget: byte budget per scrub step (None = each step is
            a full pass).
        clock: monotonic time source (injectable for tests); the
            commit groups are timed on it too.
        sleep: how to wait out a backoff delay (injectable for tests).
        rng: randomness source for jitter (seedable for tests).
    """

    def __init__(
        self,
        database: SecureXMLDatabase,
        *,
        retry: Optional[RetryPolicy] = None,
        max_in_flight: Optional[int] = None,
        overload: str = "block",
        breaker: Optional[CircuitBreaker] = None,
        default_deadline: Optional[float] = None,
        wal=None,
        checkpoint_every: Optional[int] = None,
        scrub_interval: Optional[float] = None,
        scrub_budget: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._database = database
        if wal is not None:
            database.attach_wal(wal)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        if scrub_interval is not None and scrub_interval <= 0:
            raise ValueError("scrub_interval must be positive or None")
        self._wal_consecutive_failures = 0
        self._disk_io_consecutive = 0
        self._scrub_interval = scrub_interval
        self._scrub_budget = scrub_budget
        self._scrubber = None
        self._scrub_thread: Optional[threading.Thread] = None
        self._scrub_stop = threading.Event()
        self._checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._source_path: Optional[str] = None
        self._backup_count = 1
        self._retry = retry if retry is not None else RetryPolicy()
        self._admission = AdmissionController(max_in_flight, overload)
        self._breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(clock=clock)
        )
        self._default_deadline = default_deadline
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._lock = RWLock()
        self._dedup = DedupTable()
        self._fenced_at: Optional[int] = None
        self._sessions = SessionCache(database.login)
        # One seat per group: a group seals on submit, so an in-process
        # write goes straight to its run and never waits for followers.
        self._committer = GroupCommitter(self, max_batch=1)
        self._counters_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "reads": 0,  # read requests served
            "writes": 0,  # write requests committed or cleanly refused
            "commits": 0,  # writes that installed a new generation
            "retries": 0,  # backoff sleeps taken
            "commit_races": 0,  # ConcurrentUpdateError absorbed or not
            "shed": 0,  # requests refused by admission control
            "deadline_exceeded": 0,  # requests that ran out of budget
            "retry_exhausted": 0,  # writes that gave up after max_attempts
            "wal_errors": 0,  # commits refused by a failing write-ahead log
            "wal_degraded": 0,  # times the failing log was detached
            "checkpoints": 0,  # checkpoints taken (manual + automatic)
            "checkpoint_failures": 0,  # auto-checkpoints that failed (logged)
            "group_commits": 0,  # commit groups flushed by a GroupCommitter
            "grouped_records": 0,  # commits that rode a group's single fsync
            "group_fsyncs_saved": 0,  # fsyncs the groups amortized away
            "fenced_writes": 0,  # writes refused because this server is fenced
            "dedup_hits": 0,  # writes answered from the exactly-once ledger
            "promotions": 0,  # times this server was promoted to primary
            "disk_full_events": 0,  # commits that hit ENOSPC on the log
            "disk_io_errors": 0,  # commits that hit EIO-class disk failures
            "space_reclaims": 0,  # successful reopen+checkpoint reclaim runs
            "reclaim_failures": 0,  # reclaim runs that could not free space
            "disk_full_shed": 0,  # writes shed because reclaim failed
            "scrub_quarantines": 0,  # segments the background scrub quarantined
        }
        if scrub_interval is not None:
            self.start_scrub()

    # ------------------------------------------------------------------
    # opening from disk
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        *,
        durability: str = "always",
        wal_dir: Optional[str] = None,
        backup_count: int = 1,
        **server_options,
    ) -> "DatabaseServer":
        """Open a served database from disk, recovering if needed.

        The durable unit on disk is the snapshot file at ``path`` (as
        written by :func:`repro.storage.save_to_file`) plus the
        write-ahead-log directory next to it (``path + ".wal"`` unless
        overridden).  Opening:

        1. If the log directory holds anything, crash recovery runs
           first (:func:`repro.wal.recover` with ``repair=True``): the
           torn tail a crash left is truncated and the committed prefix
           replayed -- the log is authoritative over the possibly-stale
           snapshot file.
        2. Otherwise the snapshot file at ``path`` is loaded.
        3. A fresh :class:`~repro.wal.WriteAheadLog` is attached with
           the requested ``durability`` (fsync policy ``"always"`` or
           ``"os"``), and an initial
           checkpoint is cut if the directory has none -- so the log
           alone can always rebuild the database.

        :meth:`checkpoint` (and auto-checkpointing via
        ``checkpoint_every``) then maintains both units: a WAL
        checkpoint snapshot plus a fresh ``save_to_file`` of ``path``
        with ``backup_count`` rolling backups.

        Args:
            path: the snapshot file (must exist unless the log
                directory already holds a recoverable state).
            durability: fsync policy for the attached log,
                ``"always"`` or ``"os"``.
            wal_dir: the log directory (default ``path + ".wal"``).
            backup_count: rolling ``.bak`` generations kept by
                checkpoints' ``save_to_file``.
            **server_options: any :class:`DatabaseServer` constructor
                option (``retry``, ``max_in_flight``,
                ``checkpoint_every``, ...).

        Raises:
            StorageError: neither a loadable snapshot nor a
                recoverable log exists.
        """
        from ..storage import load_from_file
        from ..wal import WriteAheadLog, list_checkpoints, recover

        wal_dir = wal_dir if wal_dir is not None else path + ".wal"
        database = None
        recovered = None
        if os.path.isdir(wal_dir) and os.listdir(wal_dir):
            recovered = recover(wal_dir, repair=True)
            database = recovered.database
            if not recovered.report.clean:
                logger.warning(
                    "recovery of %s: %s", wal_dir, recovered.report
                )
        if database is None:
            database = load_from_file(path)
        wal = WriteAheadLog(wal_dir, fsync=durability)
        database.attach_wal(wal)
        server = cls(database, **server_options)
        server._source_path = path
        server._backup_count = backup_count
        if recovered is not None:
            # The exactly-once ledger survives the crash: every replayed
            # commit carrying an idempotency key re-registers it, so a
            # client retrying across the restart is still deduplicated.
            server._dedup.seed(recovered.dedup.items())
        if not list_checkpoints(wal_dir):
            server._checkpoint_locked()
        return server

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    @property
    def database(self) -> SecureXMLDatabase:
        """The wrapped database (not thread-safe to mutate directly
        while the server is live, except through ``transaction()``)."""
        return self._database

    @property
    def admission(self) -> AdmissionController:
        """The in-flight budget (shared by reads and writes)."""
        return self._admission

    @property
    def breaker(self) -> CircuitBreaker:
        """The write circuit breaker."""
        return self._breaker

    @property
    def retry(self) -> RetryPolicy:
        """The commit-race backoff schedule."""
        return self._retry

    @property
    def dedup(self) -> DedupTable:
        """The exactly-once ledger (idempotency key -> acknowledged
        summary)."""
        return self._dedup

    @property
    def epoch(self) -> int:
        """The fencing epoch this server writes under: the attached
        log's epoch, or 0 when no log is attached."""
        wal = self._database.wal
        return wal.epoch if wal is not None else 0

    @property
    def fenced(self) -> bool:
        """True once a higher epoch was observed; every write is
        refused with :class:`~repro.errors.StaleEpochError`."""
        return self._fenced_at is not None

    @property
    def fenced_at(self) -> Optional[int]:
        """The epoch that fenced this server, or None while primary."""
        return self._fenced_at

    def fence(self, epoch: int) -> None:
        """Depose this server: a primary at ``epoch`` exists elsewhere.

        From this call on, every write (direct, retried, or grouped)
        is refused with :class:`~repro.errors.StaleEpochError` and
        counted as ``fenced_writes`` -- a deposed primary must never
        acknowledge again.  The attached log is fenced too
        (best-effort, so even a direct ``wal.append`` cannot land), but
        reads keep serving: a fenced server is exactly as useful as a
        stale replica, no less.  Idempotent; only ever raises the
        fence, never lowers it.
        """
        if epoch <= self.epoch and not self.fenced:
            raise ValueError(
                f"cannot fence epoch {self.epoch} server with epoch "
                f"{epoch} (fencing epoch must be higher)"
            )
        if self._fenced_at is None or epoch > self._fenced_at:
            self._fenced_at = epoch
        wal = self._database.wal
        if wal is not None:
            with contextlib.suppress(ValueError):
                wal.fence(epoch)
        logger.warning(
            "server fenced: epoch %d supersedes local epoch %d",
            epoch, self.epoch,
        )

    def observe_epoch(self, epoch: int) -> bool:
        """Note an epoch seen in the wild (a stream record, a peer's
        stats); fences this server when it is higher than its own.
        Returns True when the server is fenced afterwards -- the
        deposed primary's self-demotion trigger."""
        if epoch > self.epoch and not self.fenced:
            self.fence(epoch)
        return self.fenced

    def mark_promoted(self) -> None:
        """Count a completed promotion (called by the failover
        supervisor once this server has taken over as primary)."""
        self._count("promotions")

    def session(self, user: str) -> Session:
        """The served (cached, per-user) session for ``user``.

        Sessions are only safe to use through the server's own
        read/write discipline; use :meth:`SecureXMLDatabase.login` for
        an unmanaged session.
        """
        return self._sessions.get(user)

    # ------------------------------------------------------------------
    # reads (shared lock)
    # ------------------------------------------------------------------
    def view(self, user: str, deadline: Optional[float] = None):
        """The user's current authorized view, served under the read
        discipline (admission + deadline + shared lock)."""
        return self._read(user, lambda s: s.view(), deadline, "view")

    def query(
        self, user: str, path: str, deadline: Optional[float] = None
    ) -> XPathValue:
        """Evaluate an XPath expression on the user's view."""
        return self._read(user, lambda s: s.query(path), deadline, "query")

    def select(
        self, user: str, path: str, deadline: Optional[float] = None
    ) -> NodeSet:
        """Evaluate a path on the user's view, requiring a node-set."""
        return self._read(user, lambda s: s.select(path), deadline, "select")

    def read_xml(
        self,
        user: str,
        indent: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> str:
        """The user's view serialized as XML."""
        return self._read(
            user, lambda s: s.read_xml(indent=indent), deadline, "read_xml"
        )

    def serve(
        self,
        user: str,
        fn: Callable[[Session], Any],
        deadline: Optional[float] = None,
        what: str = "serve",
    ) -> Any:
        """Run an arbitrary read callable against the user's session
        under the full read discipline (admission + deadline + shared
        lock).  ``fn`` must not mutate; the network front-end uses this
        to evaluate-and-serialize in one locked pass."""
        return self._read(user, fn, deadline, what)

    def _read(self, user, fn, budget, what):
        deadline = self._deadline(budget)
        session = self.session(user)
        self._admit(deadline, user, what, "")
        try:
            if not self._lock.acquire_read(deadline.timeout()):
                raise self._deadline_error(deadline, user, what, "read lock")
            try:
                self._check(deadline, user, what, "view serving")
                result = fn(session)
            finally:
                self._lock.release_read()
        finally:
            self._admission.release()
        self._count("reads")
        return result

    # ------------------------------------------------------------------
    # writes (exclusive lock + the committer's retry schedule)
    # ------------------------------------------------------------------
    def execute(
        self,
        user: str,
        operation: Union[XUpdateOperation, UpdateScript, str],
        strict: bool = False,
        deadline: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> SecureUpdateResult:
        """Apply an update as ``user``, absorbing commit races.

        The operation is executed through the user's session exactly
        like :meth:`Session.execute`, but governed: this is the
        blocking driver of the server's own one-seat
        :class:`~repro.serving.group.GroupCommitter`, so it runs the
        same :meth:`~repro.serving.group.GroupCommitter.schedule` a
        socket write runs.  Each attempt is one :meth:`execute_once`
        (fencing, circuit breaker, admission, the exclusive lock); a
        commit race, a detached log or a reclaimed full disk is
        re-submitted on the backoff schedule (sleeping *outside* the
        lock), and the deadline is checkpointed before every script
        operation so an expired request aborts via the savepoint path
        with nothing committed.  The result is durable (the group's
        sync honoured the log's fsync policy) before this returns.

        A non-None ``idempotency_key`` makes the write exactly-once
        across retries and failover: a key already acknowledged
        returns the remembered summary as a
        :class:`~repro.serving.dedup.DedupedResult` (counts, not node
        lists) without touching the database, and a fresh key rides
        the commit's WAL record so replicas and recovery remember it
        too.

        Raises:
            OverloadError: shed by admission control, or the log volume
                is full and reclaiming space failed (both audited).
            DeadlineExceeded: the budget expired at any phase
                (audited; nothing committed).
            CircuitOpenError: the write circuit is open.
            RetryExhausted: every attempt was re-submittable -- a
                commit race, say -- and the attempts ran out (audited).
            StaleEpochError: this server was fenced by a promotion
                (never acknowledged; re-submit to the current primary).
            WalWriteError: the log refused the commit (below the
                detach threshold) or its group's sync failed.
            AccessDenied, UpdateAborted: as for
                :meth:`Session.execute`; these are application
                outcomes and do not trip the circuit breaker.
            XUpdateParseError, XMLSyntaxError: ``operation`` is text
                that is not an XUpdate script.  It is parsed once, up
                front: a malformed request fails alone, before
                admission, and never counts against the breaker.
        """
        return self._committer.commit(
            user, operation, strict, deadline, idempotency_key
        )

    def execute_once(
        self,
        user: str,
        operation: Union[XUpdateOperation, UpdateScript, str],
        strict: bool = False,
        deadline: "Optional[float | Deadline]" = None,
        idempotency_key: Optional[str] = None,
    ) -> SecureUpdateResult:
        """One governed write attempt with *no* internal retry.

        Exactly one trip through admission, the breaker and the
        exclusive lock; a commit race surfaces as
        :class:`~repro.errors.ConcurrentUpdateError` and a refused
        append as :class:`~repro.errors.WalWriteError` instead of being
        absorbed.  This is the primitive every commit group runs for
        each member -- the :class:`~repro.serving.group.GroupCommitter`
        owns the backoff schedule and the disk-full ladder, so a racing
        member never holds its group hostage through a sleep.

        Accepts an already-ticking :class:`Deadline` as well as a float
        budget, so a caller retrying across attempts keeps one decaying
        budget.
        """
        deadline = self._deadline(deadline)
        opname, oppath = self._describe(operation)
        self._ensure_not_fenced(user, opname, oppath)
        self._breaker.allow()
        session = self.session(user)
        self._admit(deadline, user, opname, oppath)
        try:
            return self._locked_attempt(
                session, operation, strict, deadline, opname, oppath,
                idempotency_key,
            )
        finally:
            self._admission.release()

    def _locked_attempt(
        self, session, operation, strict, deadline, opname, oppath, idem
    ):
        """One write attempt under the exclusive lock.

        Raises ConcurrentUpdateError on a commit race (not counted as a
        breaker failure) and the log's WalWriteError when it refused the
        commit -- after detaching the log when this refusal reached
        :data:`WAL_FAILURE_THRESHOLD`; every other outcome matches
        :meth:`execute`'s contract.  A commit's acknowledgement summary
        is computed here, under the lock, once: the exactly-once ledger
        and the wire reply both read it.
        """
        user = session.user
        if not self._lock.acquire_write(deadline.timeout()):
            self._breaker.record_failure()
            raise self._deadline_error(deadline, user, opname, "write lock")
        if deadline.expired:
            # Raised outside the try: the handler below is for
            # checkpoint expiries *inside* the script and must not
            # double-count this one.
            self._lock.release_write()
            self._breaker.record_failure()
            raise self._deadline_error(
                deadline, user, opname, "write admission"
            )
        try:
            if idem is not None:
                # Exactly-once: the lookup shares the exclusive lock
                # with the commit-and-remember below, so two racing
                # re-sends of one key serialize -- the first applies,
                # the second reads the remembered acknowledgement.
                entry = self._dedup.get(idem)
                if entry is not None:
                    self._count("dedup_hits")
                    return DedupedResult.from_entry(entry)
            wal = self._database.wal
            annotation = (
                wal.annotate(idem=idem)
                if idem is not None and wal is not None
                else contextlib.nullcontext()
            )
            with annotation:
                result = session.execute(
                    operation,
                    strict=strict,
                    checkpoint=lambda: deadline.check(f"{opname} script"),
                )
        except ConcurrentUpdateError:
            self._count("commit_races")
            raise
        except DeadlineExceeded:
            self._breaker.record_failure()
            self._count("deadline_exceeded")
            self._audit_rejection(
                user, opname, oppath,
                f"deadline of {deadline.budget:.6g}s exceeded mid-script",
                "deadline",
            )
            raise
        except (AccessDenied, UpdateAborted):
            # Application outcomes: access control and script
            # semantics worked exactly as specified, so they are
            # neither breaker failures nor breaker successes.
            self._count("writes")
            raise
        except WalWriteError as exc:
            # The log refused to make the commit durable; nothing
            # was installed.  Feed the breaker, and after enough
            # consecutive refusals detach the log (snapshot-only
            # durability beats refusing every write); the committer
            # then re-runs the attempt without it.  A full disk never
            # counts toward detaching -- snapshot-only durability would
            # fail on the same full volume; the committer reclaims
            # space or sheds instead.
            self._breaker.record_failure()
            self._note_wal_failure(exc)
            if (
                self._database.wal is not None
                and self._wal_consecutive_failures >= WAL_FAILURE_THRESHOLD
            ):
                self._degrade_wal(exc)  # still under the write lock
            raise
        except Exception:
            self._breaker.record_failure()
            raise
        else:
            self._breaker.record_success()
            self._wal_consecutive_failures = 0
            if self._database.wal is not None:
                # Only a commit the log made durable proves the disk
                # healthy again; a snapshot-only commit after the sick
                # log was detached proves nothing about the device.
                self._disk_io_consecutive = 0
            self._count("writes")
            self._count("commits")
            self._commits_since_checkpoint += 1
            result.summary = {
                "fully_applied": bool(result.fully_applied),
                "selected": len(result.selected),
                "affected": len(result.affected),
                "denied": len(result.denials),
                "version": self._database.version,
            }
            if idem is not None:
                self._dedup.put(idem, result.summary)
            return result
        finally:
            self._lock.release_write()

    def _note_wal_failure(self, error: WalWriteError) -> None:
        """Count a commit the log refused (its own append, or its
        group's sync) by the disk failure behind it."""
        self._count("wal_errors")
        if isinstance(error.disk, DiskFullError):
            self._count("disk_full_events")
            return
        if isinstance(error.disk, DiskIOError):
            self._count("disk_io_errors")
            self._disk_io_consecutive += 1
        self._wal_consecutive_failures += 1

    # ------------------------------------------------------------------
    # durability maintenance
    # ------------------------------------------------------------------
    def _degrade_wal(self, error: WalWriteError) -> None:
        """Detach (and close) the failing log; serving continues with
        snapshot-only durability.  Called under the write lock."""
        wal = self._database.detach_wal()
        if wal is None:
            return
        with contextlib.suppress(Exception):
            wal.close()
        self._count("wal_degraded")
        logger.error(
            "write-ahead log failed %d consecutive commit(s), last: %s; "
            "detached it -- durability degraded to snapshot-only",
            self._wal_consecutive_failures, error,
        )

    def _reclaim_space(self) -> bool:
        """The disk-full ladder: reopen the poisoned log, checkpoint to
        rotate and prune, and report whether the log is healthy again.

        Called with no lock held (checkpointing takes the write lock
        itself) and outside any group window, once the group's sync has
        settled, so no member is acknowledged past the reopen.  Any
        failure -- the reopen finds quarantined damage or cannot make
        pending appends durable, the checkpoint itself hits ``ENOSPC``
        -- returns False; the caller sheds the write instead of
        crashing the server.
        """
        wal = self._database.wal
        if wal is None:
            return False
        try:
            wal.reopen()
            self.checkpoint()
        except Exception:
            self._count("reclaim_failures")
            logger.exception(
                "disk-full space reclaim failed; shedding writes until "
                "space is freed"
            )
            return False
        self._count("space_reclaims")
        logger.warning(
            "disk-full space reclaim succeeded: log reopened and "
            "checkpoint pruned old segments"
        )
        return True

    def _shed_disk_full(self, user, operation, error) -> OverloadError:
        """The last rung of the disk-full ladder: count and audit a
        write shed because reclaiming space failed; returns the error
        to answer it with."""
        opname, oppath = self._describe(operation)
        self._count("disk_full_shed")
        self._audit_rejection(
            user, opname, oppath,
            f"disk full and space reclaim failed: {error}",
            "disk-full",
        )
        shed = OverloadError(
            f"{opname} by {user!r} shed: the log volume is full and "
            f"reclaiming space failed; retry after freeing disk ({error})"
        )
        shed.__cause__ = error
        return shed

    # ------------------------------------------------------------------
    # background integrity scrubbing
    # ------------------------------------------------------------------
    def _ensure_scrubber(self):
        """The lazily-built :class:`repro.scrub.Scrubber` over the
        attached log's directory (None when no log is attached)."""
        if self._scrubber is None:
            wal = self._database.wal
            if wal is None:
                return None
            from ..scrub import Scrubber

            self._scrubber = Scrubber(
                wal.directory,
                budget_bytes=self._scrub_budget,
            )
        return self._scrubber

    def scrub_step(self, budget_bytes: Optional[int] = None):
        """Run one integrity-scrub step over the attached log.

        Holds no server lock (the scrubber reads the directory like a
        follower does); serving continues concurrently.  Segments the
        step quarantines are counted (``scrub_quarantines``) and
        logged -- quarantined damage needs
        :func:`repro.replication.repair_from_peer`.

        Returns the step's :class:`repro.scrub.ScrubReport`, or None
        when no log is attached.
        """
        scrubber = self._ensure_scrubber()
        if scrubber is None:
            return None
        report = scrubber.step(budget_bytes)
        quarantined = report.quarantined
        if quarantined:
            self._count("scrub_quarantines", len(quarantined))
            for finding in quarantined:
                logger.error("scrub quarantined damage: %s", finding)
        return report

    def start_scrub(self) -> None:
        """Start the background scrub thread (idempotent; a no-op when
        ``scrub_interval`` was not configured)."""
        if self._scrub_interval is None:
            return
        if self._scrub_thread is not None and self._scrub_thread.is_alive():
            return
        self._scrub_stop.clear()
        self._scrub_thread = threading.Thread(
            target=self._scrub_loop, name="repro-scrub", daemon=True
        )
        self._scrub_thread.start()

    def stop_scrub(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the background scrub thread (idempotent)."""
        self._scrub_stop.set()
        thread = self._scrub_thread
        if thread is not None:
            thread.join(timeout)
        self._scrub_thread = None

    def _scrub_loop(self) -> None:
        while not self._scrub_stop.wait(self._scrub_interval):
            try:
                self.scrub_step()
            except Exception:
                # The scrubber must never take serving down with it.
                logger.exception("background scrub step failed; continuing")

    def checkpoint(self, deadline: Optional[float] = None) -> None:
        """Cut a durable checkpoint under the exclusive write lock.

        Takes a WAL checkpoint snapshot (when a log is attached:
        snapshot + segment rotation + retention pruning) and, when the
        server was :meth:`open`-ed from a file, re-saves that file with
        its rolling backups -- both durable units move forward
        together.

        Raises:
            DeadlineExceeded: could not get the write lock in time.
        """
        deadline = self._deadline(deadline)
        if not self._lock.acquire_write(deadline.timeout()):
            raise self._deadline_error(
                deadline, "<server>", "checkpoint", "write lock"
            )
        try:
            self._checkpoint_locked()
        finally:
            self._lock.release_write()

    def _checkpoint_locked(self) -> None:
        from ..storage import save_to_file

        wal = self._database.wal
        if wal is not None:
            wal.checkpoint(self._database)
        if self._source_path is not None:
            save_to_file(
                self._database,
                self._source_path,
                backup_count=self._backup_count,
            )
        self._commits_since_checkpoint = 0
        self._count("checkpoints")

    def _maybe_auto_checkpoint(self) -> None:
        if (
            self._checkpoint_every is None
            or self._commits_since_checkpoint < self._checkpoint_every
        ):
            return
        try:
            self.checkpoint()
        except Exception:
            # The write that triggered this already committed; a failed
            # checkpoint only delays compaction, so it must not fail
            # the request.  The next commit will retry.
            self._count("checkpoint_failures")
            logger.exception("automatic checkpoint failed; continuing")

    # ------------------------------------------------------------------
    # shared request plumbing
    # ------------------------------------------------------------------
    def _deadline(self, budget: "Optional[float | Deadline]") -> Deadline:
        if isinstance(budget, Deadline):
            return budget  # already ticking: shared across retries
        if budget is None:
            budget = self._default_deadline
        return Deadline(budget, clock=self._clock)

    def _ensure_not_fenced(self, user, opname, oppath) -> None:
        fenced_at = self._fenced_at
        if fenced_at is None:
            return
        self._count("fenced_writes")
        self._audit_rejection(
            user, opname, oppath,
            f"refused: server fenced at epoch {fenced_at} "
            f"(local epoch {self.epoch})",
            "fenced",
        )
        raise StaleEpochError(
            f"{opname} by {user!r} refused: this server was deposed by "
            f"epoch {fenced_at} (its own epoch is {self.epoch}); "
            f"re-submit to the current primary",
            epoch=self.epoch,
            current=fenced_at,
        )

    def _admit(self, deadline, user, opname, oppath) -> None:
        try:
            self._admission.acquire(deadline)
        except OverloadError as exc:
            self._count("shed")
            self._audit_rejection(user, opname, oppath, str(exc), "shed")
            raise
        except DeadlineExceeded as exc:
            self._count("deadline_exceeded")
            self._audit_rejection(user, opname, oppath, str(exc), "deadline")
            raise

    def _check(self, deadline, user, opname, what) -> None:
        try:
            deadline.check(what)
        except DeadlineExceeded:
            self._count("deadline_exceeded")
            self._audit_rejection(
                user, opname, "", f"deadline expired during {what}", "deadline"
            )
            raise

    def _deadline_error(self, deadline, user, opname, what) -> DeadlineExceeded:
        self._count("deadline_exceeded")
        reason = (
            f"deadline of {deadline.budget:.6g}s exceeded waiting for {what}"
            if deadline.budget is not None
            else f"timed out waiting for {what}"
        )
        self._audit_rejection(user, opname, "", reason, "deadline")
        return DeadlineExceeded(reason, budget=deadline.budget)

    @staticmethod
    def _describe(operation) -> tuple:
        """(operation name, path) for audit records and messages,
        best-effort."""
        if isinstance(operation, str):
            return ("xupdate", "")
        if isinstance(operation, UpdateScript):
            ops = list(operation)
            return ("UpdateScript", ops[0].path if ops else "")
        return (type(operation).__name__, getattr(operation, "path", ""))

    def _audit_rejection(self, user, opname, oppath, reason, event) -> None:
        try:
            self._database.audit.record_rejected(
                user=user,
                operation=opname,
                path=oppath,
                reason=reason,
                event=event,
            )
        except Exception:  # the audit log must never break serving
            logger.exception("audit rejection record failed")

    def _count(self, key: str, by: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += by

    def stats(self) -> Dict[str, object]:
        """Serving counters: this server's request ledger, the
        admission controller's (``admission_`` prefix), the circuit
        breaker's (``breaker_`` prefix + ``breaker_state``), and the
        wrapped database's :meth:`SecureXMLDatabase.stats`.

        Returns a *point-in-time deep copy*: the server's own counters
        are snapshotted under their lock, and nothing in the returned
        dict aliases live server state -- callers may mutate the result
        (or any nested value) freely without corrupting the ledger.
        """
        with self._counters_lock:
            out: Dict[str, object] = dict(self._counters)
        out.update(
            {f"admission_{k}": v for k, v in self._admission.stats.items()}
        )
        out.update({f"breaker_{k}": v for k, v in self._breaker.stats.items()})
        out["breaker_state"] = self._breaker.state
        out["epoch"] = self.epoch
        out["fenced"] = self.fenced
        out["fenced_at"] = self._fenced_at
        out.update({f"dedup_{k}": v for k, v in self._dedup.stats().items()})
        wal = self._database.wal
        out["wal_attached"] = wal is not None
        if wal is not None:
            out.update({f"wal_{k}": v for k, v in wal.stats.items()})
            out["wal_lsn"] = wal.lsn
            out["wal_fsync_policy"] = wal.fsync_policy
            out["wal_failed"] = wal.failed
        out["disk_sick"] = (
            self._disk_io_consecutive >= DISK_SICK_THRESHOLD
        )
        out["scrub"] = (
            self._scrubber.counters if self._scrubber is not None else None
        )
        out.update(self._database.stats())
        return copy.deepcopy(out)
