"""Fault injection: named kill-points for crash-safety testing.

The transactional update path and the storage layer call
:func:`kill_point` at the places where a crash would be most damaging.
In production nothing is armed and the call is a dictionary-emptiness
check; under test, :func:`inject` arms a point so that reaching it
raises :class:`InjectedFault`, simulating a process death at exactly
that instant.  The crash-safety suites then assert the atomicity
invariant: a failed script leaves every session view byte-identical to
its pre-script view, and an interrupted save leaves the previous
on-disk file loadable.

Named kill-points:

=================  =====================================================
``before-op``      script execution, before operation *i* starts
``after-op``       script execution, after operation *i* applied but
                   before its result is folded into the script result
``mid-write``      storage, after roughly half the payload is written
                   to the temp file (a torn write)
``before-rename``  storage, after the temp file is durable but before
                   the atomic rename installs it (checkpoint snapshots
                   pass it too: same atomic writer)
=================  =====================================================

Durability kill-points (ISSUE 5) -- the write-ahead log and checkpoint
paths in :mod:`repro.wal`:

===========================  ===========================================
``wal-before-append``        before any byte of a WAL record is written
                             (the commit is lost, the log is clean)
``wal-mid-record``           after roughly half the record's payload is
                             flushed (a genuinely torn tail on disk)
``wal-before-fsync``         the record is fully written but not yet
                             fsynced (durable-but-unacknowledged commit)
``checkpoint-mid-snapshot``  after roughly half a checkpoint snapshot is
                             written to its temp file
===========================  ===========================================

Replication kill-points (ISSUE 7) -- the WAL-shipping feed and the
replica apply loop in :mod:`repro.replication`:

===========================  ===========================================
``stream-truncated``         at the top of a :meth:`WalStream.poll` --
                             the feed is cut out from under a follower
``replica-before-apply``     a streamed record is decoded but not yet
                             applied to the replica's database
``replica-mid-replay``       the record applied, the replica's applied
                             lsn already advanced, but the poll loop is
                             killed before finishing its batch
===========================  ===========================================

Network/group-commit kill-points (ISSUE 8) -- the async front-end in
:mod:`repro.netserve` and the group committer in
:mod:`repro.serving.group`:

==============================  ========================================
``net-mid-frame``               after roughly half a response frame has
                                been written to the socket (the peer
                                sees a truncated frame, then EOF)
``group-after-leader-append``   the leader's own record is applied and
                                appended (unfsynced) but no follower
                                has run yet
``group-before-fsync``          every group member is appended, the
                                single group fsync has not happened --
                                nothing in the group may be acknowledged
==============================  ========================================

Failover kill-points (ISSUE 9) -- the supervised-promotion machinery
in :mod:`repro.replication.supervisor` and the deposed-primary ack
window in :mod:`repro.serving.group`:

==============================  ========================================
``supervisor-before-promote``   failure diagnosed, promotion decided,
                                but no candidate drained or touched yet
``promote-mid-drain``           the chosen replica is drained to the
                                reachable end of the log, but the
                                promotion (epoch bump, new WAL, router
                                swap) has not started -- a retry must
                                promote cleanly
``old-primary-late-ack``        a deposed primary's commit group is
                                fully appended and about to fsync+ack;
                                the fence check sits right behind it
==============================  ========================================

Example::

    from repro.testing.faults import inject, InjectedFault

    with inject("before-op", after=1):   # fail when op index 1 starts
        with pytest.raises(UpdateAborted):
            session.execute(script)

Concurrency chaos
-----------------

The second half of this module is the chaos harness (ISSUE 4): tools
for driving the serving layer through *randomized but reproducible*
concurrent schedules.

- :class:`ChaosRunner` interleaves cooperative tasks (generators that
  ``yield`` at their natural preemption points -- between begin,
  execute and commit) under a seeded scheduler, optionally arming a
  random kill-point before a step.  The same seed replays the same
  schedule decision-for-decision, so any failing soak iteration is a
  one-line reproduction.
- :func:`run_threads` stress-runs real OS threads behind a start
  barrier and *captures* everything they raise -- the caller asserts
  the exception list is empty (or contains only expected, governed
  failures), so nothing escapes a soak silently.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError

__all__ = [
    "KILL_POINTS",
    "ChaosReport",
    "ChaosRunner",
    "FaultInjector",
    "InjectedFault",
    "faults",
    "inject",
    "kill_point",
    "run_threads",
]

#: Every kill-point the library consults, in execution order.
KILL_POINTS = (
    "before-op",
    "after-op",
    "mid-write",
    "before-rename",
    "wal-before-append",
    "wal-mid-record",
    "wal-before-fsync",
    "checkpoint-mid-snapshot",
    "stream-truncated",
    "replica-before-apply",
    "replica-mid-replay",
    "net-mid-frame",
    "group-after-leader-append",
    "group-before-fsync",
    "supervisor-before-promote",
    "promote-mid-drain",
    "old-primary-late-ack",
)


class InjectedFault(ReproError):
    """A simulated crash raised by an armed kill-point.

    Attributes:
        point: the kill-point name that fired.
        context: keyword context the call site passed to
            :func:`kill_point` (operation index, file path, ...).
    """

    def __init__(self, point: str, context: Dict[str, Any]) -> None:
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(f"injected fault at kill-point {point!r}"
                         + (f" ({detail})" if detail else ""))
        self.point = point
        self.context = dict(context)


@dataclass
class _Armed:
    """One armed kill-point: fail on the (``after`` + 1)-th reach."""

    remaining: int


@dataclass
class FaultInjector:
    """A registry of armed kill-points plus a reach history.

    Thread-safe; a module-level instance (:data:`faults`) is what the
    library consults, but independent injectors can be built for
    isolated tests.
    """

    _armed: Dict[str, _Armed] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Every reach of every kill-point since the last :meth:`reset`,
    #: as ``(point, context)`` pairs -- lets tests assert coverage.
    history: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    #: When True, every reach is appended to :data:`history` even while
    #: nothing is armed (off by default: zero cost in production).
    trace: bool = False

    def arm(self, point: str, after: int = 0) -> None:
        """Make ``point`` raise on its next reach.

        Args:
            point: one of :data:`KILL_POINTS`.
            after: number of reaches to let through first (so a script
                of N operations can be killed at any operation index).
        """
        self._check(point)
        if after < 0:
            raise ValueError("after must be >= 0")
        with self._lock:
            self._armed[point] = _Armed(remaining=after)

    def disarm(self, point: str | None = None) -> None:
        """Disarm one kill-point, or all of them when ``point`` is None."""
        with self._lock:
            if point is None:
                self._armed.clear()
            else:
                self._check(point)
                self._armed.pop(point, None)

    def is_armed(self, point: str) -> bool:
        """True if ``point`` is currently armed."""
        self._check(point)
        with self._lock:
            return point in self._armed

    def reset(self) -> None:
        """Disarm everything and clear the reach history."""
        with self._lock:
            self._armed.clear()
            self.history.clear()

    def reach(self, point: str, **context: Any) -> None:
        """Called by the library at a kill-point; raises when armed.

        Raises:
            InjectedFault: when ``point`` is armed and its countdown
                has expired.
        """
        if not self._armed and not self.trace:
            return  # hot path: nothing armed, nothing traced
        self._check(point)
        with self._lock:
            if self.trace:
                self.history.append((point, dict(context)))
            armed = self._armed.get(point)
            if armed is None:
                return
            if armed.remaining > 0:
                armed.remaining -= 1
                return
            del self._armed[point]  # one-shot: fire once, then disarm
        raise InjectedFault(point, context)

    @contextmanager
    def injected(self, point: str, after: int = 0) -> Iterator["FaultInjector"]:
        """Arm ``point`` for the duration of a ``with`` block."""
        self.arm(point, after=after)
        try:
            yield self
        finally:
            self.disarm(point)

    @staticmethod
    def _check(point: str) -> None:
        if point not in KILL_POINTS:
            raise ValueError(
                f"unknown kill-point {point!r}; known: {', '.join(KILL_POINTS)}"
            )


#: The injector the executor and storage layers consult.
faults = FaultInjector()


def kill_point(point: str, **context: Any) -> None:
    """Library-side hook: consult the default injector at ``point``."""
    faults.reach(point, **context)


def inject(point: str, after: int = 0):
    """Test-side sugar: arm the default injector inside a ``with`` block."""
    return faults.injected(point, after=after)


# ---------------------------------------------------------------------------
# concurrency chaos harness
# ---------------------------------------------------------------------------
@dataclass
class ChaosReport:
    """What one :meth:`ChaosRunner.run` did, decision for decision.

    Attributes:
        seed: the scheduler seed; re-running with it replays this
            exact report.
        schedule: every scheduling decision as ``(task_index,
            step_index)`` pairs, in execution order.
        results: per task, the generator's return value (None when it
            returned nothing or died on an exception).
        errors: per task, the exception that ended it early, or None.
        faults_armed: every randomly armed kill-point as
            ``(schedule_position, point_name)`` pairs.
        disk_faults_armed: every randomly armed disk fault as
            ``(schedule_position, (op, error))`` pairs (ISSUE 10).
    """

    seed: int
    schedule: List[Tuple[int, int]] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    errors: List[Optional[BaseException]] = field(default_factory=list)
    faults_armed: List[Tuple[int, str]] = field(default_factory=list)
    disk_faults_armed: List[Tuple[int, Tuple[str, str]]] = field(
        default_factory=list
    )

    @property
    def clean(self) -> bool:
        """True when no task died on an exception."""
        return all(error is None for error in self.errors)


class ChaosRunner:
    """A deterministic randomized scheduler for cooperative tasks.

    Tasks are generator functions: each ``yield`` is a preemption
    point, and whatever the generator ``return``s becomes its entry in
    :attr:`ChaosReport.results`.  At every step the runner picks the
    next runnable task with a seeded RNG, so concurrency bugs found at
    some seed replay exactly -- the schedule is a pure function of
    ``(seed, tasks)`` as long as each task's behaviour is itself
    deterministic.

    Optionally the runner arms a random kill-point before a step
    (``kill_rate``), simulating crashes *during* contended schedules;
    leftover arming is cleared after each step so one decision never
    leaks into the next.

    Args:
        seed: scheduler seed.
        kill_points: kill-point names eligible for random arming
            (subset of :data:`KILL_POINTS`).
        kill_rate: probability of arming one random kill-point before
            a step (0.0 disables).
        injector: the :class:`FaultInjector` to arm (the module-level
            :data:`faults` by default, which is what the library
            consults).
        disk_faults: disk-fault specs eligible for random arming, as
            ``(op, error)`` pairs -- e.g. ``("write", "enospc")`` or
            ``("fsync", "eio")`` (see
            :mod:`repro.testing.diskfaults`).
        disk_rate: probability of arming one random disk fault before
            a step (0.0 disables).  Disk faults and kill-points are
            drawn independently, so a schedule can combine a crash
            with a sick disk.
        disk_injector: the :class:`~repro.testing.diskfaults.
            DiskFaultInjector` to arm (the module-level ``disk`` by
            default, which is what the storage/WAL layers consult).

    Example::

        def writer():
            txn = db.transaction()
            yield                       # others may commit here
            result = executor.apply(db.build_view(user), script)
            yield
            txn.commit(result.document, result.changes)
            return "committed"

        report = ChaosRunner(seed=7).run([writer, writer])
        assert report.clean
    """

    def __init__(
        self,
        seed: int = 0,
        kill_points: Sequence[str] = (),
        kill_rate: float = 0.0,
        injector: Optional[FaultInjector] = None,
        disk_faults: Sequence[Tuple[str, str]] = (),
        disk_rate: float = 0.0,
        disk_injector: Optional[Any] = None,
    ) -> None:
        for point in kill_points:
            FaultInjector._check(point)
        if not 0.0 <= kill_rate <= 1.0:
            raise ValueError("kill_rate must be in [0, 1]")
        if kill_rate > 0.0 and not kill_points:
            raise ValueError("kill_rate > 0 needs at least one kill point")
        if not 0.0 <= disk_rate <= 1.0:
            raise ValueError("disk_rate must be in [0, 1]")
        if disk_rate > 0.0 and not disk_faults:
            raise ValueError("disk_rate > 0 needs at least one disk fault spec")
        from .diskfaults import DISK_ERRORS, DISK_OPS, disk as default_disk

        for op, error in disk_faults:
            if op not in DISK_OPS or error not in DISK_ERRORS:
                raise ValueError(f"unknown disk fault spec ({op!r}, {error!r})")
        self.seed = seed
        self.kill_points = tuple(kill_points)
        self.kill_rate = kill_rate
        self._injector = injector if injector is not None else faults
        self.disk_faults = tuple((op, error) for op, error in disk_faults)
        self.disk_rate = disk_rate
        self._disk = disk_injector if disk_injector is not None else default_disk

    def run(self, tasks: Sequence[Callable[[], Iterator[Any]]]) -> ChaosReport:
        """Interleave ``tasks`` to completion and report the schedule.

        A task that raises is recorded in :attr:`ChaosReport.errors`
        and removed from the runnable set; the exception never
        propagates out of the harness (soaks assert on the report
        instead).
        """
        rng = random.Random(self.seed)
        gens = [task() for task in tasks]
        report = ChaosReport(
            seed=self.seed,
            results=[None] * len(gens),
            errors=[None] * len(gens),
        )
        steps = [0] * len(gens)
        runnable = list(range(len(gens)))
        position = 0
        while runnable:
            index = rng.choice(runnable)
            report.schedule.append((index, steps[index]))
            armed = None
            disk_armed = None
            if self.kill_rate > 0.0 and rng.random() < self.kill_rate:
                armed = rng.choice(self.kill_points)
                self._injector.arm(armed)
                report.faults_armed.append((position, armed))
            if self.disk_rate > 0.0 and rng.random() < self.disk_rate:
                disk_armed = rng.choice(self.disk_faults)
                self._disk.arm(disk_armed[0], disk_armed[1])
                report.disk_faults_armed.append((position, disk_armed))
            try:
                next(gens[index])
            except StopIteration as stop:
                report.results[index] = stop.value
                runnable.remove(index)
            except BaseException as exc:  # captured, never propagated
                report.errors[index] = exc
                runnable.remove(index)
            finally:
                if armed is not None:
                    # One-shot arming may not have been reached; never
                    # leak it into the next step (or the next test).
                    self._injector.disarm(armed)
                if disk_armed is not None:
                    self._disk.disarm(disk_armed[0])
            steps[index] += 1
            position += 1
        return report


def run_threads(
    worker: Callable[[int], Any],
    count: int,
    timeout: Optional[float] = 30.0,
) -> List[Optional[BaseException]]:
    """Run ``worker(i)`` on ``count`` real threads behind a start
    barrier; return each thread's exception (None when it finished).

    The barrier maximizes real interleaving (every thread hits the
    serving layer at once), and captured exceptions let soak tests
    assert exactly which governed failures -- and no others -- escaped.

    Args:
        worker: callable invoked with the thread index.
        timeout: per-thread join timeout; a thread still alive after
            it is reported as a :class:`TimeoutError` in its slot.
    """
    barrier = threading.Barrier(count)
    errors: List[Optional[BaseException]] = [None] * count

    def runner(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:
            errors[index] = exc

    threads = [
        threading.Thread(target=runner, args=(i,), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for index, thread in enumerate(threads):
        thread.join(timeout)
        if thread.is_alive():
            errors[index] = TimeoutError(
                f"worker {index} still running after {timeout}s"
            )
    return errors
