"""Concurrency chaos drivers over the fault seam (:mod:`repro.faults`).

Tools for driving the serving layer through *randomized but
reproducible* concurrent schedules:

- :class:`ChaosRunner` interleaves cooperative tasks (generators that
  ``yield`` at their natural preemption points -- between begin,
  execute and commit) under a seeded scheduler, optionally arming a
  random kill-point or disk fault before a step.  The same seed replays
  the same schedule decision-for-decision, so any failing soak
  iteration is a one-line reproduction.
- :func:`run_threads` stress-runs real OS threads behind a start
  barrier and *captures* everything they raise -- the caller asserts
  the exception list is empty (or contains only expected, governed
  failures), so nothing escapes a soak silently.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..faults import DISK_ERRORS, DISK_OPS, KILL_POINTS, FaultSeam, faults

__all__ = ["ChaosReport", "ChaosRunner", "run_threads"]


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
            ``(schedule_position, (op, error))`` pairs.
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

    Optionally the runner arms a random kill-point (``kill_rate``)
    and/or a random disk fault (``disk_rate``) before a step,
    simulating crashes and a sick disk *during* contended schedules;
    leftover arming is cleared after each step so one decision never
    leaks into the next.

    Args:
        seed: scheduler seed.
        kill_points: kill-point names eligible for random arming
            (subset of :data:`~repro.faults.KILL_POINTS`).
        kill_rate: probability of arming one random kill-point before
            a step (0.0 disables).
        injector: the :class:`~repro.faults.FaultSeam` to arm (the
            module-level :data:`~repro.faults.faults` by default, which
            is what the library consults).
        disk_faults: disk-fault specs eligible for random arming, as
            ``(op, error)`` pairs -- e.g. ``("write", "enospc")`` or
            ``("fsync", "eio")``.
        disk_rate: probability of arming one random disk fault before
            a step (0.0 disables).  Disk faults and kill-points are
            drawn independently, so a schedule can combine a crash
            with a sick disk.

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
        injector: Optional[FaultSeam] = None,
        disk_faults: Sequence[Tuple[str, str]] = (),
        disk_rate: float = 0.0,
    ) -> None:
        for point in kill_points:
            if point not in KILL_POINTS:
                raise ValueError(f"unknown kill-point {point!r}")
        if not 0.0 <= kill_rate <= 1.0:
            raise ValueError("kill_rate must be in [0, 1]")
        if kill_rate > 0.0 and not kill_points:
            raise ValueError("kill_rate > 0 needs at least one kill point")
        if not 0.0 <= disk_rate <= 1.0:
            raise ValueError("disk_rate must be in [0, 1]")
        if disk_rate > 0.0 and not disk_faults:
            raise ValueError("disk_rate > 0 needs at least one disk fault spec")
        for op, error in disk_faults:
            if op not in DISK_OPS or error not in DISK_ERRORS:
                raise ValueError(f"unknown disk fault spec ({op!r}, {error!r})")
        self.seed = seed
        self.kill_points = tuple(kill_points)
        self.kill_rate = kill_rate
        self._injector = injector if injector is not None else faults
        self.disk_faults = tuple((op, error) for op, error in disk_faults)
        self.disk_rate = disk_rate

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
            armed: List[str] = []
            if self.kill_rate > 0.0 and rng.random() < self.kill_rate:
                point = rng.choice(self.kill_points)
                self._injector.arm(point)
                armed.append(point)
                report.faults_armed.append((position, point))
            if self.disk_rate > 0.0 and rng.random() < self.disk_rate:
                op, error = rng.choice(self.disk_faults)
                self._injector.arm(op, error)
                armed.append(op)
                report.disk_faults_armed.append((position, (op, error)))
            try:
                next(gens[index])
            except StopIteration as stop:
                report.results[index] = stop.value
                runnable.remove(index)
            except BaseException as exc:  # captured, never propagated
                report.errors[index] = exc
                runnable.remove(index)
            finally:
                # One-shot arming may not have been reached; never leak
                # it into the next step (or the next test).
                for site in armed:
                    self._injector.disarm(site)
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
