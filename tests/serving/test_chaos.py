"""The concurrency chaos harness, and the soaks built on it.

Three layers:

1. The harness itself: same seed => identical schedule, identical
   random fault arming; task exceptions are captured, never propagated.
2. Deterministic soaks: 200+ seeded schedules of contending committers
   over one database, asserting serial equivalence (the final document
   equals a serial replay of the committed history, in commit order),
   that every served view matches a from-scratch build, and that no
   unhandled exception escapes.
3. Real-thread soaks through :class:`DatabaseServer`: no lost updates,
   no client-visible ``ConcurrentUpdateError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hospital_database
from repro.errors import ConcurrentUpdateError, UpdateAborted
from repro.faults import FaultSeam, InjectedFault
from repro.security import Policy, SecureXMLDatabase, SubjectHierarchy
from repro.security.view import ViewBuilder
from repro.serving import DatabaseServer, RetryPolicy
from repro.testing.faults import ChaosRunner, run_threads
from repro.xmltree import XMLDocument, element, serialize, text
from repro.xupdate import Append, UpdateContent, UpdateScript

# ---------------------------------------------------------------------------
# fixtures for the soaks
# ---------------------------------------------------------------------------
USERS = ("w1", "w2", "w3")


def editors_database(users=USERS) -> SecureXMLDatabase:
    """A tiny database where every user may read and write everything
    (the soaks stress concurrency, not the policy)."""
    doc = XMLDocument()
    root = doc.add_root("log")
    element("entry", text("seed")).attach(doc, root)
    subjects = SubjectHierarchy()
    subjects.add_role("editor")
    for user in users:
        subjects.add_user(user, member_of="editor")
    policy = Policy(subjects)
    for privilege in ("read", "update", "insert", "delete"):
        policy.grant(privilege, "//*", "editor")
    return SecureXMLDatabase(doc, subjects, policy)


def committer(db, user, script, committed, tries=10):
    """A cooperative task: begin, apply, commit -- yielding between the
    steps so the scheduler can interleave other commits."""

    def task():
        executor = db.write_executor
        for _ in range(tries):
            txn = db.transaction()
            try:
                view = db.build_view(user)
                yield  # <- another task may commit here...
                result = executor.apply(view, script, strict=False)
                yield  # <- ...or here: this commit may now race
                txn.commit(result.document, result.changes)
            except ConcurrentUpdateError:
                txn.rollback()
                yield
                continue  # governed: re-run against the new generation
            except (UpdateAborted, InjectedFault):
                txn.rollback()  # governed: an injected crash, retry
                yield
                continue
            committed.append((user, script))
            return "committed"
        return "gave up"

    return task


def make_script(index):
    """Task ``index``'s write: one content update plus one append, so
    both commit order and structural growth are observable."""
    return UpdateScript(
        (
            UpdateContent("/log/entry", f"v-{index}"),
            Append("/log", element(f"t{index}")),
        )
    )


def replay(committed) -> SecureXMLDatabase:
    """Apply the committed history serially, in commit order."""
    db = editors_database()
    for user, script in committed:
        db.login(user).execute(script)
    return db


# ---------------------------------------------------------------------------
# the harness itself
# ---------------------------------------------------------------------------
class TestChaosRunnerDeterminism:
    @staticmethod
    def _tasks(trace):
        def make(name, steps):
            def gen():
                for step in range(steps):
                    trace.append((name, step))
                    yield
                return name

            return gen

        return [make("a", 3), make("b", 5), make("c", 2)]

    def test_same_seed_reproduces_the_schedule(self):
        trace1, trace2 = [], []
        report1 = ChaosRunner(seed=123).run(self._tasks(trace1))
        report2 = ChaosRunner(seed=123).run(self._tasks(trace2))
        assert report1.schedule == report2.schedule
        assert trace1 == trace2
        assert report1.results == report2.results == ["a", "b", "c"]
        assert report1.clean

    def test_different_seeds_differ(self):
        baseline = ChaosRunner(seed=0).run(self._tasks([])).schedule
        others = [
            ChaosRunner(seed=seed).run(self._tasks([])).schedule
            for seed in range(1, 6)
        ]
        assert any(schedule != baseline for schedule in others)

    def test_fault_arming_is_part_of_the_seed(self):
        injector = FaultSeam()
        runner = lambda: ChaosRunner(  # noqa: E731
            seed=99,
            kill_points=("before-op", "after-op"),
            kill_rate=0.5,
            injector=injector,
        )
        armed1 = runner().run(self._tasks([])).faults_armed
        armed2 = runner().run(self._tasks([])).faults_armed
        assert armed1 == armed2
        assert armed1  # at rate 0.5 over ~13 steps, some arming happened
        # nothing leaks out of the run
        assert not injector.is_armed("before-op")
        assert not injector.is_armed("after-op")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosRunner(kill_points=("no-such-point",))
        with pytest.raises(ValueError):
            ChaosRunner(kill_rate=0.5)  # rate without points
        with pytest.raises(ValueError):
            ChaosRunner(kill_points=("before-op",), kill_rate=1.5)


class TestChaosRunnerCapture:
    def test_task_exceptions_are_captured_not_raised(self):
        def fine():
            yield
            return "ok"

        def broken():
            yield
            raise ValueError("task bug")

        report = ChaosRunner(seed=5).run([fine, broken])
        assert report.results[0] == "ok"
        assert isinstance(report.errors[1], ValueError)
        assert not report.clean

    def test_armed_kill_point_fires_into_the_task(self):
        injector = FaultSeam()

        def task():
            yield
            injector.reach("before-op", index=0)
            yield
            return "unreachable"

        report = ChaosRunner(
            seed=1,
            kill_points=("before-op",),
            kill_rate=1.0,
            injector=injector,
        ).run([task])
        assert isinstance(report.errors[0], InjectedFault)
        assert report.results[0] is None
        assert report.faults_armed
        assert not injector.is_armed("before-op")


# ---------------------------------------------------------------------------
# deterministic soaks
# ---------------------------------------------------------------------------
def run_soak(seed, kill_rate=0.0):
    """One seeded schedule of three contending committers; returns
    (db, committed history, report)."""
    db = editors_database()
    committed = []
    tasks = [
        committer(db, user, make_script(i), committed)
        for i, user in enumerate(USERS)
    ]
    runner = ChaosRunner(
        seed=seed,
        kill_points=("before-op", "after-op") if kill_rate else (),
        kill_rate=kill_rate,
    )
    report = runner.run(tasks)
    return db, committed, report


def assert_soak_invariants(db, committed, report):
    # zero unhandled exceptions escaped any task
    assert report.clean, [str(e) for e in report.errors if e]
    # the version counter is exactly the number of successful commits
    assert db.version == len(committed)
    # serial equivalence: the final document is the serial replay of
    # the committed history, in commit order
    assert serialize(db.document) == serialize(replay(committed).document)
    # every served view equals its from-scratch derivation
    for user in USERS:
        served = db.build_view(user)
        fresh = ViewBuilder().build(db.document, db.policy, user)
        assert served.facts() == fresh.facts()
        assert serialize(served.doc) == serialize(fresh.doc)


@pytest.mark.chaos
def test_soak_200_randomized_schedules():
    for seed in range(200):
        db, committed, report = run_soak(seed)
        assert_soak_invariants(db, committed, report)
        assert report.results == ["committed"] * len(USERS)


@pytest.mark.chaos
def test_soak_with_injected_crashes():
    # Crashes mid-schedule: aborted scripts roll back and retry; the
    # invariants hold on every seed.
    for seed in range(40):
        db, committed, report = run_soak(seed, kill_rate=0.2)
        assert_soak_invariants(db, committed, report)


def test_single_seed_soak_is_reproducible():
    db1, committed1, report1 = run_soak(7)
    db2, committed2, report2 = run_soak(7)
    assert report1.schedule == report2.schedule
    assert [u for u, _ in committed1] == [u for u, _ in committed2]
    assert serialize(db1.document) == serialize(db2.document)


@given(seed=st.integers(min_value=0, max_value=100_000), n=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_version_counter_equals_successful_commits(seed, n):
    """N concurrent committers always leave version == commit count."""
    users = tuple(f"w{i + 1}" for i in range(n))
    db = editors_database(users)
    committed = []
    tasks = [
        committer(db, user, make_script(i), committed)
        for i, user in enumerate(users)
    ]
    report = ChaosRunner(seed=seed).run(tasks)
    assert report.clean
    successes = sum(1 for r in report.results if r == "committed")
    assert db.version == successes == len(committed)


# ---------------------------------------------------------------------------
# real-thread soaks through the server
# ---------------------------------------------------------------------------
FAST_RETRY = RetryPolicy(max_attempts=64, base=0.0005, cap=0.01)


@pytest.mark.chaos
def test_thread_soak_no_lost_updates():
    db = hospital_database()
    server = DatabaseServer(db, retry=FAST_RETRY)
    threads, writes = 6, 4

    def worker(i):
        for j in range(writes):
            server.execute(
                "beaufort",
                Append("/patients", element(f"w{i}x{j}", element("diagnosis"))),
            )

    errors = run_threads(worker, threads)
    assert errors == [None] * threads
    # every write landed exactly once: no lost updates
    assert db.version == threads * writes
    xml = server.read_xml("laporte")
    for i in range(threads):
        for j in range(writes):
            assert f"w{i}x{j}" in xml
    stats = server.stats()
    assert stats["commits"] == threads * writes
    assert stats["retry_exhausted"] == 0


@pytest.mark.chaos
def test_two_servers_contend_retry_absorbs_races():
    # Two serving front-ends over one database: their write locks do
    # not know about each other, so commits genuinely race and the
    # backoff schedule must absorb every one of them.
    db = hospital_database()
    servers = [
        DatabaseServer(db, retry=FAST_RETRY),
        DatabaseServer(db, retry=FAST_RETRY),
    ]
    threads, writes = 4, 4

    def worker(i):
        server = servers[i % 2]
        for j in range(writes):
            server.execute(
                "beaufort",
                Append("/patients", element(f"c{i}x{j}", element("diagnosis"))),
            )

    errors = run_threads(worker, threads)
    # zero client-visible ConcurrentUpdateError (or anything else)
    assert errors == [None] * threads
    assert db.version == threads * writes
    total = lambda key: sum(s.stats()[key] for s in servers)  # noqa: E731
    assert total("commits") == threads * writes
    assert total("retry_exhausted") == 0


@pytest.mark.chaos
def test_thread_soak_readers_never_fail_alongside_writers():
    db = hospital_database()
    server = DatabaseServer(db, retry=FAST_RETRY)
    threads = 6

    def worker(i):
        if i % 2 == 0:
            for j in range(3):
                server.execute(
                    "beaufort",
                    Append("/patients", element(f"r{i}x{j}", element("diagnosis"))),
                )
        else:
            for _ in range(10):
                assert "<patients>" in server.read_xml("laporte")
                assert server.query("richard", "count(//diagnosis)")

    errors = run_threads(worker, threads)
    assert errors == [None] * threads
    assert db.version == 3 * 3  # three writer threads, three writes each
