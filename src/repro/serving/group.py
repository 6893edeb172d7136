"""Group commit: one fsync amortized over N concurrent writers.

Under fsync policy ``always`` every commit pays its own fsync -- E22's
numbers make that the dominant fixed cost of a durable write.  The
classic fix is *group commit* (leader/follower): writers that arrive
within a short window are batched, the batch's records are appended to
the write-ahead log back to back, and **one** fsync makes the whole
group durable before any member is acknowledged.

The shape here:

- :meth:`GroupCommitter.submit` joins the open group (creating one
  when none is open).  The first member in becomes the **leader**; the
  rest are **followers** who park on their :class:`CommitTicket`.
- The leader calls :meth:`GroupCommitter.drive`: it waits only for
  writes that are *coming* -- counted from the moment a write enters
  :meth:`GroupCommitter.schedule` (a socket write: from the moment its
  ``execute`` frame is decoded or its predecessor acknowledged,
  :meth:`GroupCommitter.expect`) until it joins a group or fails
  first -- and seals at once when none is, when ``max_batch`` members
  have joined, or after a constant 2 ms cap.  It then executes every
  member through
  :meth:`DatabaseServer.execute_once` inside the log's
  :meth:`~repro.wal.WriteAheadLog.group` window (appends deferred),
  issues the group's single :meth:`~repro.wal.WriteAheadLog.sync_group`,
  and only then resolves the tickets.
- A member's *own* failure (``AccessDenied``, ``UpdateAborted``, a
  deadline) resolves only that member's ticket -- it never poisons the
  group.  A member's commit race (``ConcurrentUpdateError``) marks the
  ticket *retryable*: the member re-submits into a later group on the
  server's :class:`~repro.serving.retry.RetryPolicy` schedule instead
  of holding this group through a backoff sleep.
- A *group* failure -- the fsync refused, a crash between append and
  sync -- poisons every committed-but-unacknowledged member's ticket
  and feeds the server's circuit breaker: an unacknowledged commit may
  or may not survive recovery, exactly like any other crash window.

Kill-points consulted (:mod:`repro.faults`):
``group-after-leader-append`` once the leader's own member has run,
``group-before-fsync`` after every append but before the group's one
fsync, and ``old-primary-late-ack`` at the last instant before the
group fsync+acknowledge -- the deposed-primary window failover chaos
aims at.

Epoch poisoning: a group whose server was **fenced** (a promotion
bumped the fencing epoch elsewhere, see
:meth:`DatabaseServer.fence`) between its appends and its fsync fails
as a whole with :class:`~repro.errors.StaleEpochError` -- no member is
acknowledged, exactly like a crashed group, so a deposed primary can
never hand out a late ack for a write the new primary's history does
not contain.

Disk-full ladder: a member whose own append hit ``ENOSPC`` committed
nothing.  Once the group's sync has settled -- so no member can be
acknowledged past it -- the leader reclaims space (re-open the log,
checkpoint to rotate and prune) and the member re-submits; when the
reclaim fails the member is shed with
:class:`~repro.errors.OverloadError` (counted ``disk_full_shed``,
audited ``disk-full``).

A flushed group that appended anything counts toward the server's
``checkpoint_every`` (:meth:`DatabaseServer.checkpoint` runs on the
leader once the tickets are resolved); a member answered from the
exactly-once ledger appended nothing and counts toward neither the
checkpoint nor the group counters.

The window is demand, not a clock: a lone write never waits for
followers that are not coming, and a burst already decoded is one
group (PostgreSQL's ``commit_siblings`` rule; E25 measured a fixed
window and a zero window).  A group that seals on submit -- every group
of a ``max_batch=1`` committer, :meth:`DatabaseServer.execute`'s --
goes straight to the run without touching the committer's condition.

Thread-agnostic by design: the retry schedule exists once, as the
:meth:`GroupCommitter.schedule` generator (submit, settle, re-submit a
re-submittable member after a backoff, give up with
``RetryExhausted``), and it is the only way a served write reaches the
log.  :meth:`commit` drives it on the caller's thread --
:meth:`DatabaseServer.execute` is that driver over a server-owned
committer with ``max_batch=1`` -- and the asyncio front-end
(:mod:`repro.netserve`) drives it on its event loop with ticket
callbacks, so ten thousand parked writers cost no threads.
"""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional

from ..errors import (
    ConcurrentUpdateError,
    DiskFullError,
    RetryExhausted,
    StaleEpochError,
    WalWriteError,
)
from ..faults import kill_point
from ..xupdate.parser import parse_xupdate
from .retry import Deadline

if TYPE_CHECKING:  # server.py builds its own committer from this module
    from .server import DatabaseServer

__all__ = ["CommitTicket", "GroupCommitter"]

#: The longest a leader waits for writes that are coming, in seconds.
#: A write is coming only from its decode (or its predecessor's ack) to
#: its join, so a group normally seals well inside it; the cap bounds a
#: slow parse and a predicted write that does not come.
_WAIT_CAP = 0.002


class CommitTicket:
    """One writer's seat in a commit group.

    Resolved exactly once by the group's leader.  After
    :meth:`wait` returns True (or a done callback fires), exactly one
    of the terminal states holds:

    - :attr:`result` is set: the commit is applied *and durable*.
    - :attr:`retry` is True: the attempt hit a commit race (or the log
      was detached mid-attempt, or its full disk was reclaimed);
      nothing committed -- re-submit.
    - :attr:`error` is set: the attempt failed for this member alone,
      or the whole group failed before its fsync.
    """

    __slots__ = (
        "user", "operation", "strict", "deadline", "idem", "leader",
        "group", "result", "error", "retry", "_event", "_callbacks",
        "_lock",
    )

    def __init__(self, user, operation, strict, deadline, idem=None) -> None:
        self.user = user
        self.operation = operation
        self.strict = strict
        self.deadline: Deadline = deadline
        self.idem: Optional[str] = idem
        self.leader = False
        self.group: Optional["_Group"] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.retry = False
        self._event = threading.Event()
        self._callbacks: List[Callable[["CommitTicket"], None]] = []
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        """True once the leader resolved this ticket."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; False when ``timeout`` expires first."""
        return self._event.wait(timeout)

    def add_done_callback(
        self, callback: Callable[["CommitTicket"], None]
    ) -> None:
        """Run ``callback(ticket)`` on resolution (immediately when the
        ticket is already resolved).  Callbacks run on the leader's
        thread -- keep them tiny (the asyncio front-end just hops back
        onto its loop with ``call_soon_threadsafe``)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _resolve(self) -> None:
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback(self)


class _Coming:
    """One write counted as coming until it joins a group or its
    request fails first; :meth:`release` is idempotent."""

    __slots__ = ("_committer", "live")

    def __init__(self, committer: "GroupCommitter") -> None:
        self._committer = committer
        self.live = True

    def release(self) -> None:
        """Stop counting this write (a no-op once it joined a group)."""
        if self.live:  # settled tokens skip the lock
            with self._committer._cond:
                self._committer._settle(self)


class _Group:
    """One batch of members awaiting a shared fsync."""

    __slots__ = ("members", "sealed", "opened_at")

    def __init__(self, opened_at: float) -> None:
        self.members: List[CommitTicket] = []
        self.sealed = False
        self.opened_at = opened_at


class GroupCommitter:
    """Batches concurrent writes into single-fsync commit groups.

    Args:
        server: the :class:`DatabaseServer` whose
            :meth:`~DatabaseServer.execute_once` applies each member
            (and whose retry policy / rng / sleep / clock pace the
            re-submits and time the window).
        max_batch: seal a group at this many members even if writes
            are still coming.

    The window is demand plus a constant cap: a leader seals at once
    when no write is coming (:attr:`coming`), and otherwise waits until
    every coming write has joined, ``max_batch`` is reached, or 2 ms
    have passed since the group opened.

    Counters land in the server's ledger: ``group_commits`` (groups
    flushed with at least one durable commit), ``grouped_records``
    (commits that rode a group) and ``group_fsyncs_saved`` (fsyncs a
    one-per-commit policy would have issued minus what the groups
    actually issued), so group fsyncs spent + ``group_fsyncs_saved`` =
    ``grouped_records``.  Ledger replays append nothing and count in
    none of them.
    """

    def __init__(
        self,
        server: "DatabaseServer",
        *,
        max_batch: int = 128,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._server = server
        self.max_batch = max_batch
        self._cond = threading.Condition()
        self._open: Optional[_Group] = None
        self._coming = 0

    # ------------------------------------------------------------------
    # demand
    # ------------------------------------------------------------------
    @property
    def coming(self) -> int:
        """Writes counted as coming that have not joined a group yet."""
        return self._coming

    def expect(self) -> _Coming:
        """Count one write as coming before :meth:`schedule` sees it.

        The socket front end calls this when it decodes an ``execute``
        frame -- or, on a connection that waits for each ack, when it
        acknowledges the write before it -- and hands the token to
        :meth:`schedule`; the count ends when the write joins a group,
        or at the token's :meth:`~_Coming.release` when its request
        fails first or never comes.
        """
        with self._cond:
            self._coming += 1
        return _Coming(self)

    def _settle(self, coming: _Coming) -> None:
        """Stop counting ``coming`` once (under ``_cond``); wake a
        waiting leader when nothing else is coming."""
        if coming.live:
            coming.live = False
            self._coming -= 1
            if not self._coming:
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------
    def submit(
        self,
        user: str,
        operation,
        strict: bool = False,
        deadline: "Optional[float | Deadline]" = None,
        idempotency_key: Optional[str] = None,
    ) -> CommitTicket:
        """Join the open commit group (opening one when none is).

        Returns immediately.  When the ticket comes back with
        ``leader=True`` the caller *must* run :meth:`drive` (on a
        thread it can afford to block); followers just wait on the
        ticket.  A non-None ``idempotency_key`` makes the member
        exactly-once (see :meth:`DatabaseServer.execute`).
        """
        ticket = CommitTicket(
            user, operation, strict, self._server._deadline(deadline),
            idempotency_key,
        )
        self._join(ticket)
        return ticket

    def _join(
        self, ticket: CommitTicket, coming: Optional[_Coming] = None
    ) -> None:
        """:meth:`submit`'s body; a write counted as ``coming`` stops
        counting in the same critical section, so a waiting leader
        always sees it either coming or joined."""
        with self._cond:
            if coming is not None:
                self._settle(coming)
            group = self._open
            if group is None or group.sealed or (
                len(group.members) >= self.max_batch
            ):
                group = _Group(self._server._clock())
                self._open = group
                ticket.leader = True
            ticket.group = group
            group.members.append(ticket)
            if len(group.members) >= self.max_batch:
                group.sealed = True
                if self._open is group:
                    self._open = None
                self._cond.notify_all()  # wake the waiting leader

    # ------------------------------------------------------------------
    # leading
    # ------------------------------------------------------------------
    def drive(self, ticket: CommitTicket) -> None:
        """Leader duty: wait for the writes that are coming, seal, run
        the batch.

        Seals at once when nothing is coming; otherwise blocks until
        every coming write has joined, ``max_batch`` is reached, or the
        2 ms cap has passed since the group opened, then for the
        batch's execution.  A group that sealed on submit goes straight
        to the run.  Every ticket in the group -- the leader's included
        -- is resolved by the time this returns.  Never raises:
        failures land on the tickets.
        """
        if not ticket.leader:
            raise ValueError("drive() is the leader's job")
        group = ticket.group
        if not group.sealed:  # only submit and this leader ever seal
            with self._cond:
                seal_at = group.opened_at + _WAIT_CAP
                while self._coming and not group.sealed:
                    remaining = seal_at - self._server._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                group.sealed = True
                if self._open is group:
                    self._open = None
        self._run(group)

    def _run(self, group: _Group) -> None:
        server = self._server
        wal = server.database.wal
        committed: List[CommitTicket] = []
        full: List[CommitTicket] = []  # own append hit ENOSPC
        applied = 0
        synced = False  # did this group's own sync_group() fsync?
        failure: Optional[BaseException] = None
        try:
            with wal.group() if wal is not None else contextlib.nullcontext():
                for index, member in enumerate(group.members):
                    self._apply(member, committed, full)
                    applied = index + 1
                    if index == 0:
                        kill_point(
                            "group-after-leader-append",
                            members=len(group.members),
                        )
                if committed:
                    kill_point("group-before-fsync", records=len(committed))
                    # The deposed-primary window: appends done, fsync
                    # and acks not yet issued.  A promotion elsewhere
                    # fences the server here; the whole group must die
                    # unacknowledged rather than hand out a late ack.
                    kill_point(
                        "old-primary-late-ack", records=len(committed)
                    )
                    if server.fenced:
                        raise StaleEpochError(
                            f"group of {len(committed)} commit(s) refused "
                            f"at the ack point: server fenced at epoch "
                            f"{server.fenced_at}",
                            epoch=server.epoch,
                            current=server.fenced_at or 0,
                        )
                    if wal is not None:
                        synced = wal.sync_group()
        except BaseException as exc:  # noqa: BLE001 -- poison, never leak
            failure = exc
        if failure is not None:
            server._breaker.record_failure()
            if isinstance(failure, WalWriteError):
                server._note_wal_failure(failure)
            # Members that committed before the group died may or may
            # not be durable: unknown outcome, never acknowledged.
            for member in committed:
                member.result = None
                member.error = failure
            # Members the batch never reached committed nothing; they
            # are safe to re-submit into a later group.
            for member in group.members[applied:]:
                member.retry, member.error = True, failure
            committed = []
        if full:
            # The group's sync has settled, so reopening the log here
            # cannot acknowledge an unsynced member.
            reclaimed = server._reclaim_space()
            for member in full:
                if reclaimed:
                    member.retry = True
                else:
                    member.error = server._shed_disk_full(
                        member.user, member.operation, member.error
                    )
        records = sum(
            not getattr(member.result, "deduped", False)
            for member in committed
        )
        if records:
            server._count("group_commits")
            server._count("grouped_records", records)
            server._count("group_fsyncs_saved", records - synced)
        for member in group.members:
            member._resolve()
        if records:
            server._maybe_auto_checkpoint()

    def _apply(
        self,
        member: CommitTicket,
        committed: List[CommitTicket],
        full: List[CommitTicket],
    ) -> None:
        """Run one member; member-local failures stay member-local."""
        server = self._server
        try:
            member.result = server.execute_once(
                member.user, member.operation, member.strict,
                member.deadline, idempotency_key=member.idem,
            )
        except ConcurrentUpdateError as exc:
            member.retry, member.error = True, exc
        except WalWriteError as exc:
            member.error = exc
            if server.database.wal is None:
                # The failing log was detached mid-attempt; nothing
                # committed for this member -- re-run it against the
                # degraded (snapshot-only) server.
                member.retry = True
            elif isinstance(exc.disk, DiskFullError):
                full.append(member)
        except Exception as exc:  # noqa: BLE001 -- resolves this ticket only
            member.error = exc
        else:
            committed.append(member)

    # ------------------------------------------------------------------
    # the retry schedule and its blocking driver
    # ------------------------------------------------------------------
    def schedule(
        self,
        user: str,
        operation,
        strict: bool = False,
        deadline: "Optional[float | Deadline]" = None,
        idempotency_key: Optional[str] = None,
        coming: Optional[_Coming] = None,
    ) -> Iterator["CommitTicket | float"]:
        """The one retry schedule of a group-committed write.

        Yields each :class:`CommitTicket` the caller must settle (drive
        it when ``ticket.leader``, otherwise wait on it for up to
        ``ticket.deadline.timeout()``) and each backoff, in seconds, the
        caller must sleep.  A re-submittable attempt (a commit race, a
        detached log, a reclaimed full disk) is re-submitted on the
        server's :class:`~repro.serving.retry.RetryPolicy`; a member
        error, an expired budget or :class:`RetryExhausted` (audited
        ``retry-exhausted``) is raised from the generator.  It ends
        normally only after its last ticket settled with a durable
        result.  :meth:`commit` drives it on a thread --
        :meth:`DatabaseServer.execute` is that driver -- and
        :mod:`repro.netserve` drives it on an event loop.

        A text ``operation`` is parsed here, once, before the first
        submit: a malformed script fails only this request (its parse
        error is raised before admission or the breaker see it), and a
        raced member re-submits the parsed script.

        The write counts as coming (see :meth:`drive`) from the first
        step until its first ticket joins a group or its parse fails;
        ``coming`` is the token of a caller that counted it earlier
        with :meth:`expect`.  A re-submit is not counted, and neither
        is a write to a ``max_batch=1`` committer, whose groups seal on
        submit.
        """
        if coming is None and self.max_batch > 1:
            coming = self.expect()  # a one-seat group never waits for it
        server = self._server
        try:
            if isinstance(operation, str):
                operation = parse_xupdate(operation)
            deadline = server._deadline(deadline)
            opname, oppath = server._describe(operation)
        except BaseException:
            if coming is not None:
                coming.release()
            raise
        policy = server.retry
        backoff = policy.delays(server._rng)
        last: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            ticket = CommitTicket(
                user, operation, strict, deadline, idempotency_key
            )
            self._join(ticket, coming)
            yield ticket
            if not ticket.done:
                # The group never resolved inside the budget; the
                # outcome is unknown (the leader may still flush it) --
                # the caller must treat this like any crashed-ack.
                raise server._deadline_error(
                    deadline, user, opname, "group flush"
                )
            if not ticket.retry:
                if ticket.error is not None:
                    raise ticket.error
                return
            last = ticket.error
            if attempt == policy.max_attempts:
                break
            remaining = deadline.remaining()
            if remaining <= 0.0:
                server._breaker.record_failure()
                raise server._deadline_error(deadline, user, opname, "backoff")
            server._count("retries")
            yield min(next(backoff), remaining)
        server._breaker.record_failure()
        server._count("retry_exhausted")
        server._audit_rejection(
            user, opname, oppath,
            f"gave up after {policy.max_attempts} attempts, each one "
            f"re-submittable; last: {last}",
            "retry-exhausted",
        )
        raise RetryExhausted(
            f"{opname} by {user!r} lost {policy.max_attempts} "
            f"attempt(s); giving up",
            attempts=policy.max_attempts,
            last_error=last,
        ) from last

    def commit(
        self,
        user: str,
        operation,
        strict: bool = False,
        deadline: "Optional[float | Deadline]" = None,
        idempotency_key: Optional[str] = None,
    ):
        """Apply an update through group commit, absorbing races.

        The blocking driver of :meth:`schedule`: the caller's thread
        leads its group when it is first in, parks as a follower
        otherwise, and sleeps out each backoff.  Returns the member's
        :class:`~repro.security.write.SecureUpdateResult`; the result
        is durable (group-fsynced) before this returns.
        """
        for step in self.schedule(
            user, operation, strict, deadline, idempotency_key
        ):
            if not isinstance(step, CommitTicket):
                self._server._sleep(step)
            elif step.leader:
                self.drive(step)
            else:
                step.wait(step.deadline.timeout())
        return step.result
