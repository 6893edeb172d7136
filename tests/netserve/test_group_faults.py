"""Crash-window semantics of group commit, via armed kill-points:
an acknowledged group commit is never lost, a poisoned group never
acknowledges, and a torn response frame surfaces as a network error --
never a hang."""

import pytest

from repro.errors import NetworkError
from repro.faults import InjectedFault, faults
from repro.serving import DatabaseServer, GroupCommitter
from repro.wal import WriteAheadLog, recover
from repro.xmltree.serializer import serialize

from tests.groups import commit_together

from .conftest import append_script, connect, editors_database, served

pytestmark = [pytest.mark.netserve, pytest.mark.fault]


@pytest.fixture
def stack(wal_dir):
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    return db, wal, DatabaseServer(db)


def recovered_doc(wal_dir) -> str:
    return serialize(recover(wal_dir, repair=True).database.document)


class TestGroupBeforeFsync:
    def test_poisoned_group_never_acknowledges_acked_never_lost(
        self, stack, wal_dir
    ):
        """The group dies between its appends and its one fsync: every
        member of that group resolves with the failure (unknown
        outcome), and recovery still holds every commit acknowledged
        before and after the crash window."""
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=3)
        committer.commit("w1", append_script("acked0"))

        faults.arm("group-before-fsync")
        tickets = [
            committer.submit("w1", append_script(f"doomed{i}"))
            for i in range(3)
        ]
        committer.drive(tickets[0])
        for ticket in tickets:
            assert ticket.done
            assert ticket.result is None
            assert ticket.retry is False
            assert isinstance(ticket.error, InjectedFault)
        # The group counted nothing: no member was acknowledged.
        stats = server.stats()
        assert stats["grouped_records"] == 1  # just acked0's group
        assert server._breaker._failures >= 1

        # The kill-point is one-shot; the server keeps serving.
        committer.commit("w1", append_script("acked1"))

        final = recovered_doc(wal_dir)
        assert "<acked0>" in final
        assert "<acked1>" in final
        # doomed0..2 were appended but never acknowledged -- recovery
        # may or may not hold them; both outcomes are legal.

    def test_commit_wrapper_relays_the_group_failure(self, stack):
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=1)
        faults.arm("group-before-fsync")
        with pytest.raises(InjectedFault):
            committer.commit("w1", append_script("gone"))
        assert server.stats().get("group_commits", 0) == 0


class TestGroupAfterLeaderAppend:
    def test_unreached_members_become_retryable_not_poisoned(self, stack):
        """The crash fires after the leader's member ran but before the
        rest: the leader's member has unknown outcome; members the
        batch never reached committed nothing and are safe to retry."""
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=3)
        tickets = [
            committer.submit("w1", append_script(f"m{i}")) for i in range(3)
        ]
        faults.arm("group-after-leader-append")
        committer.drive(tickets[0])
        leader_member = tickets[0]
        assert isinstance(leader_member.error, InjectedFault)
        assert leader_member.retry is False  # outcome unknown: no retry
        for follower in tickets[1:]:
            assert follower.retry is True  # nothing committed: resubmit
            assert isinstance(follower.error, InjectedFault)

    def test_followers_retry_through_and_survive_recovery(
        self, stack, wal_dir
    ):
        """Blocking commits ride out the crash: the member in flight at
        the kill loses (unknown outcome), everyone behind it re-submits
        into a later group and is acknowledged -- and every
        acknowledged label survives recovery."""
        db, wal, server = stack
        committer = GroupCommitter(server, max_batch=4)
        faults.arm("group-after-leader-append")
        results = commit_together(
            committer, [("w1", append_script(f"w{i}")) for i in range(4)]
        )
        outcomes = {
            i: "unknown" if isinstance(result, InjectedFault)
            else "acked" if result.fully_applied else result
            for i, result in enumerate(results)
        }
        assert outcomes == {0: "unknown", 1: "acked", 2: "acked", 3: "acked"}
        assert server.stats()["retries"] == 3  # the leader's groupmates

        final = recovered_doc(wal_dir)
        for i, outcome in outcomes.items():
            if outcome == "acked":
                assert f"<w{i}>" in final
        assert recover(wal_dir, repair=True).database.version == db.version

    def test_member_failure_after_crash_window_stays_isolated(self, stack):
        """Crash recovery of the committer itself: after a poisoned
        group, a fresh group with one bad member still isolates that
        member."""
        _, _, server = stack
        committer = GroupCommitter(server, max_batch=2)
        faults.arm("group-before-fsync")
        with pytest.raises(InjectedFault):
            committer.commit("w1", append_script("poisoned"))
        good = committer.submit("w1", append_script("fine"))
        bad = committer.submit("w1", "<not-xupdate/>")
        committer.drive(good)
        assert good.result.fully_applied
        assert bad.result is None and bad.error is not None
        assert not isinstance(bad.error, InjectedFault)


class TestNetMidFrame:
    def test_torn_response_frame_is_a_network_error_not_a_hang(
        self, wal_dir
    ):
        """The server dies mid-frame while answering: the client reads
        a truncated stream and reports an unknown outcome -- it never
        blocks forever, and the listener keeps accepting."""
        with served(wal_dir) as (handle, _):
            client = connect(handle, "w1", timeout=5)
            faults.arm("net-mid-frame")
            with pytest.raises(NetworkError) as info:
                client.execute(append_script("torn"))
            assert "unknown" in str(info.value)
            client.close()
            # The kill-point tore one connection, not the server.
            with connect(handle, "w1", timeout=5) as fresh:
                xml = fresh.read_xml()
                assert xml.startswith("<log>")
