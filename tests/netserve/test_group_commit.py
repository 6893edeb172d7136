"""GroupCommitter semantics: leader/follower structure, one fsync per
group, member isolation, and retry behavior -- at the library layer,
with the retry cases also driven over a socket (the rest of the
wire-level path is covered in test_server.py)."""

import pytest

from repro.errors import ConcurrentUpdateError, RemoteError, RetryExhausted
from repro.netserve import NetClient, serve_in_thread
from repro.serving import DatabaseServer, GroupCommitter, RetryPolicy
from repro.testing.faults import run_threads
from repro.wal import WriteAheadLog, recover
from repro.xupdate import XUpdateParseError

from tests.groups import commit_together

from .conftest import append_script, editors_database

pytestmark = pytest.mark.netserve


@pytest.fixture
def stack(wal_dir):
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    return db, wal, DatabaseServer(db)


class TestLeaderFollower:
    def test_first_member_leads_followers_park(self, stack):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=4)
        leader = committer.submit("w1", append_script("a"))
        follower = committer.submit("w2", append_script("b"))
        assert leader.leader is True
        assert follower.leader is False
        assert leader.group is follower.group
        committer.drive(leader)
        assert leader.done and follower.done
        assert leader.result.fully_applied
        assert follower.result.fully_applied

    def test_group_seals_at_max_batch_and_next_submit_leads_anew(self, stack):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=2)
        first = committer.submit("w1", append_script("a"))
        second = committer.submit("w1", append_script("b"))
        third = committer.submit("w1", append_script("c"))
        assert first.group.sealed
        assert third.leader is True
        assert third.group is not first.group
        committer.drive(first)
        committer.drive(third)
        assert all(t.result is not None for t in (first, second, third))

    def test_done_callback_fires_on_resolution_and_immediately_after(
        self, stack
    ):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=1)
        seen = []
        ticket = committer.submit("w1", append_script("a"))
        ticket.add_done_callback(lambda t: seen.append("before"))
        committer.drive(ticket)
        ticket.add_done_callback(lambda t: seen.append("after"))
        assert seen == ["before", "after"]


class TestAmortization:
    def test_one_fsync_per_group_not_per_commit(self, stack):
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=8)
        fsyncs_before = wal.stats["fsyncs"]
        results = commit_together(
            committer, [("w1", append_script(f"t{i}")) for i in range(8)]
        )
        assert all(result.fully_applied for result in results)
        stats = server.stats()
        assert stats["commits"] == 8
        assert stats["grouped_records"] == 8
        fsyncs_spent = wal.stats["fsyncs"] - fsyncs_before
        # 8 acknowledged durable commits, one group, one fsync.
        assert fsyncs_spent == 1
        assert stats["group_fsyncs_saved"] == 7
        assert stats["group_commits"] == 1

    def test_acknowledged_group_commits_are_durable(self, stack, wal_dir):
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=4)
        results = commit_together(
            committer, [("w1", append_script(f"d{i}")) for i in range(8)]
        )
        assert all(result.fully_applied for result in results)
        assert server.stats()["group_commits"] == 2  # sealed by count
        result = recover(wal_dir, repair=True)
        assert result.database.version == db.version
        from repro.xmltree.serializer import serialize

        final = serialize(result.database.document)
        for i in range(8):
            assert f"<d{i}>" in final

    def test_single_member_group_still_fsyncs_before_ack(self, stack):
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=8)
        before = wal.stats["fsyncs"]
        committer.commit("w1", append_script("solo"))
        assert wal.stats["fsyncs"] == before + 1
        assert server.stats()["group_fsyncs_saved"] == 0

    def test_wal_policy_outside_groups_is_untouched(self, stack):
        """A concurrent plain execute() keeps its own per-commit fsync
        while groups run -- the deferral is scoped to the leader's
        thread, not the log."""
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=4)

        def worker(i):
            if i:
                server.execute("w2", append_script(f"plain{i}"))
                return
            grouped = [("w1", append_script(f"grouped{j}")) for j in range(4)]
            for result in commit_together(committer, grouped):
                assert result.fully_applied, result

        errors = run_threads(worker, 5)
        assert not any(errors)
        assert server.stats()["commits"] == 8
        # Every plain commit fsynced individually: total appends that
        # deferred their fsync are exactly the grouped ones.
        assert wal.stats["grouped_appends"] == server.stats()[
            "grouped_records"
        ]


class TestMemberIsolation:
    def test_one_failing_member_never_fails_its_groupmates(self, stack):
        """A member whose script will not even parse resolves with its
        own error; every other member of the same group commits and is
        acknowledged."""
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=3)
        good_a = committer.submit("w1", append_script("good0"))
        bad = committer.submit("w1", "<not-xupdate/>")
        good_b = committer.submit("w1", append_script("good1"))
        committer.drive(good_a)
        assert good_a.result.fully_applied
        assert good_b.result.fully_applied
        assert bad.result is None
        assert isinstance(bad.error, XUpdateParseError)
        assert server.stats()["grouped_records"] == 2

    def test_commit_wrapper_raises_the_member_error(self, stack):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=1)
        with pytest.raises(XUpdateParseError):
            committer.commit("w1", "<not-xupdate/>")


def retry_stack(wal_dir, **server_options):
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    return DatabaseServer(db, **server_options)


def commit_blocking(server, script):
    """Drive the retry schedule on this thread (GroupCommitter.commit)."""
    committer = GroupCommitter(server, max_batch=1)
    return committer.commit("w1", script).fully_applied


def commit_over_socket(server, script):
    """Drive the retry schedule on NetServer's event loop, over a real
    socket."""
    with serve_in_thread(server, max_batch=1) as handle:
        with NetClient(handle.host, handle.port, timeout=10.0) as client:
            client.open_session("w1")
            return client.execute(script)["fully_applied"]


def race(server, times):
    """Make ``server.execute_once`` raise a commit race ``times`` times
    (forever when None) before committing for real; returns the count
    of races raised so far."""
    original = server.execute_once
    raced = {"count": 0}

    def racing_once(user, operation, strict=False, deadline=None,
                    idempotency_key=None):
        if times is None or raced["count"] < times:
            raced["count"] += 1
            raise ConcurrentUpdateError("simulated interleaved commit")
        return original(
            user, operation, strict, deadline,
            idempotency_key=idempotency_key,
        )

    server.execute_once = racing_once
    return raced


class TestRetry:
    """The blocking wrapper and the asyncio front end drive the same
    retry schedule, so each case runs through both and must leave the
    same ledger."""

    def assert_raced_member_lands(self, wal_dir, drive):
        server = retry_stack(wal_dir, retry=RetryPolicy(max_attempts=4))
        raced = race(server, 1)
        assert drive(server, append_script("eventually")) is True
        assert raced["count"] == 1
        stats = server.stats()
        assert stats["retries"] == 1
        assert stats["retry_exhausted"] == 0
        assert stats["commits"] == 1

    def test_raced_member_is_resubmitted_not_group_blocking(self, wal_dir):
        """A ConcurrentUpdateError inside a group marks the ticket
        retryable; commit() re-submits it into a later group and the
        write eventually lands."""
        self.assert_raced_member_lands(wal_dir, commit_blocking)

    def test_raced_member_is_resubmitted_over_the_wire(self, wal_dir):
        self.assert_raced_member_lands(wal_dir, commit_over_socket)

    def exhaust(self, wal_dir, drive):
        server = retry_stack(
            wal_dir, retry=RetryPolicy(max_attempts=2), sleep=lambda s: None
        )
        raced = race(server, None)
        with pytest.raises((RetryExhausted, RemoteError)) as info:
            drive(server, append_script("never"))
        assert raced["count"] == 2
        stats = server.stats()
        assert stats["retries"] == 1
        assert stats["retry_exhausted"] == 1
        assert stats["commits"] == 0
        return info.value

    def test_retry_exhaustion_raises_with_the_last_race(self, wal_dir):
        error = self.exhaust(wal_dir, commit_blocking)
        assert isinstance(error, RetryExhausted)
        assert error.attempts == 2
        assert isinstance(error.last_error, ConcurrentUpdateError)

    def test_retry_exhaustion_relays_over_the_wire(self, wal_dir):
        error = self.exhaust(wal_dir, commit_over_socket)
        assert isinstance(error, RemoteError)
        assert error.kind == "RetryExhausted"
        assert "lost 2 attempt(s)" in error.remote_message


class TestValidation:
    def test_constructor_bounds(self, stack):
        _, _, server = stack
        with pytest.raises(ValueError):
            GroupCommitter(server, max_batch=0)
        with pytest.raises(TypeError):  # the window is not a setting
            GroupCommitter(server, max_delay_ms=2.0)

    def test_drive_refuses_followers(self, stack):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=4)
        leader = committer.submit("w1", append_script("a"))
        follower = committer.submit("w1", append_script("b"))
        with pytest.raises(ValueError):
            committer.drive(follower)
        committer.drive(leader)
