"""The governed serving front-end: locks, retries, deadlines, overload."""

import pytest

from repro.errors import (
    CircuitOpenError,
    ConcurrentUpdateError,
    DeadlineExceeded,
    OverloadError,
    RetryExhausted,
)
from repro.security import AccessDenied
from repro.serving import CircuitBreaker, DatabaseServer, Deadline, RetryPolicy
from repro.xmltree.serializer import serialize
from repro.xupdate import UpdateContent, UpdateScript

OP = UpdateContent("/patients/franck/diagnosis", "flu")


def make_server(db, clock, **kwargs):
    """A server on virtual time (no real sleeping or waiting)."""
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("sleep", clock.sleep)
    return DatabaseServer(db, **kwargs)


def make_flaky(session, races, monkeypatch):
    """Make the served session lose ``races`` commit races first."""
    real = session.execute
    seen = {"calls": 0}

    def flaky(operation, strict=False, checkpoint=None):
        seen["calls"] += 1
        if seen["calls"] <= races:
            raise ConcurrentUpdateError(
                f"synthetic race {seen['calls']}/{races}"
            )
        return real(operation, strict=strict, checkpoint=checkpoint)

    monkeypatch.setattr(session, "execute", flaky)
    return seen


class TestReads:
    def test_reads_flow_through_the_session(self, db, clock):
        server = make_server(db, clock)
        assert "diagnosis" in server.read_xml("laporte")
        assert server.query("laporte", "count(/patients/*)")
        assert server.view("laporte").user == "laporte"
        assert server.stats()["reads"] == 3

    def test_sessions_are_cached_per_user(self, db, clock):
        server = make_server(db, clock)
        assert server.session("laporte") is server.session("laporte")
        assert server.session("laporte") is not server.session("beaufort")

    def test_served_sessions_are_a_bounded_lru(self, db, clock):
        from repro.security.session import SESSION_CACHE_SIZE

        crowd = [f"visitor{i}" for i in range(SESSION_CACHE_SIZE)]
        for name in crowd:
            db.subjects.add_user(name, member_of="secretary")
        server = make_server(db, clock)
        first = server.session("laporte")
        expected = server.read_xml("laporte")
        for name in crowd[:-1]:
            server.session(name)
        assert server.session("laporte") is first  # cached, and now newest
        server.session(crowd[-1])  # one past the bound: oldest visitor goes
        assert len(server._sessions) == SESSION_CACHE_SIZE
        assert server.session("laporte") is first
        for name in crowd:
            server.session(name)  # pushes laporte out
        assert server.session("laporte") is not first
        assert server.read_xml("laporte") == expected

    def test_read_respects_the_default_deadline(self, db, clock):
        server = make_server(db, clock, default_deadline=1.0)
        server.read_xml("laporte")  # within budget
        clock.advance(0.0)
        expired = make_server(db, clock, default_deadline=0.0)
        with pytest.raises(DeadlineExceeded):
            expired.read_xml("laporte")
        assert expired.stats()["deadline_exceeded"] == 1


class TestWrites:
    def test_write_commits_and_counts(self, db, clock):
        server = make_server(db, clock)
        before = db.version
        result = server.execute("laporte", OP)
        assert result.fully_applied
        assert db.version == before + 1
        assert server.query("laporte", "string(/patients/franck/diagnosis)") == "flu"
        stats = server.stats()
        assert stats["writes"] == 1
        assert stats["commits"] == 1
        assert stats["commit_races"] == 0

    def test_strict_denial_is_an_application_outcome(self, db, clock):
        # AccessDenied means the model worked; it must not trip even a
        # hair-trigger breaker.
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        server = make_server(db, clock, breaker=breaker)
        with pytest.raises(AccessDenied):
            server.execute("beaufort", OP, strict=True)
        assert server.breaker.state == "closed"
        assert server.stats()["writes"] == 1
        assert server.stats()["commits"] == 0


class TestRetry:
    def test_commit_races_are_absorbed(self, db, clock, monkeypatch):
        policy = RetryPolicy(max_attempts=8, base=0.002, cap=0.25)
        server = make_server(db, clock, retry=policy)
        make_flaky(server.session("laporte"), races=3, monkeypatch=monkeypatch)
        result = server.execute("laporte", OP)  # no error reaches the client
        assert result.fully_applied
        stats = server.stats()
        assert stats["commit_races"] == 3
        assert stats["retries"] == 3
        assert stats["commits"] == 1
        assert stats["retry_exhausted"] == 0

    def test_backoff_sleeps_follow_the_policy(self, db, clock, monkeypatch):
        policy = RetryPolicy(max_attempts=8, base=0.002, cap=0.25)
        server = make_server(db, clock, retry=policy)
        make_flaky(server.session("laporte"), races=4, monkeypatch=monkeypatch)
        server.execute("laporte", OP)
        assert len(clock.sleeps) == 4
        assert clock.sleeps[0] == policy.base  # first backoff is the floor
        assert all(policy.base <= s <= policy.cap for s in clock.sleeps)

    def test_retry_exhausted_after_max_attempts(self, db, clock, monkeypatch):
        policy = RetryPolicy(max_attempts=3, base=0.001, cap=0.01)
        server = make_server(db, clock, retry=policy)
        seen = make_flaky(
            server.session("laporte"), races=99, monkeypatch=monkeypatch
        )
        with pytest.raises(RetryExhausted) as err:
            server.execute("laporte", OP)
        assert seen["calls"] == 3  # every attempt ran
        assert err.value.attempts == 3
        assert isinstance(err.value.last_error, ConcurrentUpdateError)
        stats = server.stats()
        assert stats["retry_exhausted"] == 1
        assert stats["commit_races"] == 3
        assert db.audit.rejections("retry-exhausted")

    def test_deadline_caps_the_backoff(self, db, clock, monkeypatch):
        # Remaining budget smaller than the drawn delay: sleep only the
        # remainder; waking exactly at the deadline surfaces
        # DeadlineExceeded instead of silently sleeping past it.
        policy = RetryPolicy(max_attempts=8, base=0.2, cap=0.2)
        server = make_server(db, clock, retry=policy)
        make_flaky(server.session("laporte"), races=1, monkeypatch=monkeypatch)
        with pytest.raises(DeadlineExceeded):
            server.execute("laporte", OP, deadline=0.05)
        assert clock.sleeps == [pytest.approx(0.05)]

    def test_deadline_spent_across_several_backoffs(self, db, clock, monkeypatch):
        policy = RetryPolicy(max_attempts=8, base=0.1, cap=0.1)
        server = make_server(db, clock, retry=policy)
        make_flaky(server.session("laporte"), races=99, monkeypatch=monkeypatch)
        with pytest.raises(DeadlineExceeded):
            # Two full backoffs fit the budget, the third is clipped to
            # the remaining 0.05s, then the expiry surfaces.
            server.execute("laporte", OP, deadline=0.25)
        assert clock.sleeps == [
            pytest.approx(0.1),
            pytest.approx(0.1),
            pytest.approx(0.05),
        ]
        assert server.stats()["deadline_exceeded"] == 1


class TestDeadlines:
    def test_expired_budget_never_reaches_the_database(self, db, clock):
        server = make_server(db, clock)
        version = db.version
        with pytest.raises(DeadlineExceeded):
            server.execute("laporte", OP, deadline=0.0)
        assert db.version == version
        assert server.stats()["deadline_exceeded"] == 1
        assert db.audit.rejections("deadline")

    def test_mid_script_expiry_aborts_with_nothing_committed(self, db, clock):
        # Drive the executor's checkpoint hook directly: the deadline
        # expires between operations 1 and 2 and the whole script rolls
        # back through the savepoint path.
        session = db.login("laporte")
        before = serialize(db.document)
        version = db.version
        deadline = Deadline(1.0, clock=clock)
        calls = {"n": 0}

        def checkpoint():
            calls["n"] += 1
            if calls["n"] == 2:
                clock.advance(2.0)  # the first operation was slow
            deadline.check(f"script operation {calls['n'] - 1}")

        script = UpdateScript(
            (
                UpdateContent("/patients/franck/diagnosis", "flu"),
                UpdateContent("/patients/franck/diagnosis", "cold"),
            )
        )
        with pytest.raises(DeadlineExceeded):
            session.execute(script, checkpoint=checkpoint)
        assert calls["n"] == 2
        assert db.version == version
        assert serialize(db.document) == before  # op 1 rolled back
        aborts = db.audit.aborts()
        assert aborts and "deadline" in aborts[-1].reason

    def test_server_surfaces_mid_script_expiry(self, db, clock, monkeypatch):
        server = make_server(db, clock)
        session = server.session("laporte")

        def slow_script(operation, strict=False, checkpoint=None):
            clock.advance(10.0)  # the script out-runs its budget...
            checkpoint()  # ...and the next per-op checkpoint notices
            raise AssertionError("checkpoint should have raised")

        monkeypatch.setattr(session, "execute", slow_script)
        with pytest.raises(DeadlineExceeded):
            server.execute("laporte", OP, deadline=1.0)
        stats = server.stats()
        assert stats["deadline_exceeded"] == 1
        assert stats["commits"] == 0
        records = db.audit.rejections("deadline")
        assert records and "mid-script" in records[-1].reason


class TestOverload:
    def test_shed_policy_raises_and_audits(self, db, clock):
        server = make_server(db, clock, max_in_flight=1, overload="shed")
        server.admission.acquire()  # the budget is fully occupied
        try:
            with pytest.raises(OverloadError):
                server.query("laporte", "count(//*)")
            with pytest.raises(OverloadError):
                server.execute("laporte", OP)
        finally:
            server.admission.release()
        stats = server.stats()
        assert stats["shed"] == 2
        assert stats["admission_shed"] == 2
        shed = db.audit.rejections("shed")
        assert {r.operation for r in shed} == {"query", "UpdateContent"}
        # the budget recovered: requests flow again
        assert server.query("laporte", "count(//*)")

    def test_block_policy_times_out_against_the_deadline(self, db, clock):
        server = make_server(db, clock, max_in_flight=1, overload="block")
        server.admission.acquire()
        try:
            with pytest.raises(DeadlineExceeded):
                server.read_xml("laporte", deadline=0.0)
        finally:
            server.admission.release()
        assert server.stats()["deadline_exceeded"] == 1
        assert server.stats()["admission_queued"] == 1
        assert db.audit.rejections("deadline")

    def test_slots_are_released_after_failures(self, db, clock):
        server = make_server(db, clock, max_in_flight=2, overload="shed")
        with pytest.raises(AccessDenied):
            server.execute("beaufort", OP, strict=True)
        with pytest.raises(DeadlineExceeded):
            server.read_xml("laporte", deadline=0.0)
        assert server.admission.in_flight == 0


class TestCircuitBreaker:
    def test_failure_storm_opens_then_probe_heals(self, db, clock, monkeypatch):
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=5.0, clock=clock
        )
        server = make_server(db, clock, breaker=breaker)
        session = server.session("laporte")
        real = session.execute

        def boom(operation, strict=False, checkpoint=None):
            raise RuntimeError("storage torn")

        monkeypatch.setattr(session, "execute", boom)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                server.execute("laporte", OP)
        assert server.breaker.state == "open"
        assert server.stats()["breaker_trips"] == 1
        # while open, writes are refused without touching the session
        monkeypatch.setattr(
            session, "execute", lambda *a, **k: pytest.fail("must not run")
        )
        with pytest.raises(CircuitOpenError):
            server.execute("laporte", OP)
        # reads keep flowing: the breaker only guards the write path
        assert server.read_xml("laporte")
        # after the reset timeout the single probe closes the circuit
        clock.advance(5.0)
        monkeypatch.setattr(session, "execute", real)
        result = server.execute("laporte", OP)
        assert result.fully_applied
        assert server.breaker.state == "closed"


class TestStats:
    def test_stats_merge_all_layers(self, db, clock):
        server = make_server(db, clock, max_in_flight=8, overload="shed")
        server.read_xml("laporte")
        server.execute("laporte", OP)
        stats = server.stats()
        for key in (
            "reads",
            "writes",
            "commits",
            "retries",
            "commit_races",
            "shed",
            "deadline_exceeded",
            "retry_exhausted",
            "admission_admitted",
            "admission_peak_in_flight",
            "breaker_trips",
            "breaker_rejections",
            "breaker_state",
            "version",
            "degraded_rebuilds",
            "degraded_view_serves",
        ):
            assert key in stats, key
        assert stats["breaker_state"] == "closed"
        assert stats["version"] == db.version

    def test_stats_is_a_deep_snapshot_not_a_window(self, db, clock):
        """The returned ledger is a point-in-time deep copy: mutating
        it -- including any nested value -- never corrupts the live
        counters, and later server activity never shows up in an
        already-taken snapshot."""
        server = make_server(db, clock)
        server.read_xml("laporte")
        before = server.stats()

        # Vandalize the snapshot, top-level and nested alike.
        before["reads"] = 10_000
        before["commits"] = -5
        for value in before.values():
            if isinstance(value, dict):
                value.clear()
            elif isinstance(value, list):
                value.append("junk")
        assert server.stats()["reads"] == 1
        assert server.stats()["commits"] == 0

        # And the snapshot is frozen: new traffic does not leak in.
        frozen = server.stats()
        server.read_xml("laporte")
        server.read_xml("laporte")
        assert frozen["reads"] == 1
        assert server.stats()["reads"] == 3

    def test_two_snapshots_share_no_mutable_state(self, db, clock):
        server = make_server(db, clock)
        server.read_xml("laporte")
        one, two = server.stats(), server.stats()
        assert one == two
        for key, value in one.items():
            if isinstance(value, (dict, list)):
                assert value is not two[key], key
