"""One write path: every served write -- ``DatabaseServer.execute`` in
process, ``GroupCommitter.commit`` on a thread, or ``execute`` over a
socket -- runs the committer's one retry schedule, so each driver must
leave the same outcome and the same ledger under the same disk fault.
Also pinned here: the acknowledgement a socket write answers with, the
group counters' fsync invariant, and that only one retry schedule
exists in the source."""

import ast
import contextlib
import pathlib

import pytest

from repro.errors import ConcurrentUpdateError, RemoteError
from repro.faults import faults
from repro.netserve import NetClient, serve_in_thread
from repro.serving import DatabaseServer, GroupCommitter, RetryPolicy
from repro.wal import WriteAheadLog, recover
from repro.xmltree.serializer import serialize

from tests.groups import commit_together, execute_burst

from .conftest import append_script, editors_database

pytestmark = pytest.mark.netserve

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def stack(wal_dir, fsync="always", **server_options):
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync=fsync)
    db.attach_wal(wal)
    wal.checkpoint(db)
    server_options.setdefault("sleep", lambda _s: None)
    return db, wal, DatabaseServer(db, **server_options)


@contextlib.contextmanager
def via_execute(server):
    yield lambda script: server.execute("w1", script)


@contextlib.contextmanager
def via_commit(server):
    committer = GroupCommitter(server, max_batch=1)
    yield lambda script: committer.commit("w1", script)


@contextlib.contextmanager
def via_socket(server):
    with serve_in_thread(server, max_batch=1) as handle:
        with NetClient(handle.host, handle.port, timeout=10.0) as client:
            client.open_session("w1")
            yield client.execute


DRIVERS = [
    pytest.param(via_execute, id="execute"),
    pytest.param(via_commit, id="commit"),
    pytest.param(via_socket, id="socket"),
]


def outcome(write, script) -> str:
    """``"ok"``, or the class name of the error the driver raised (a
    socket relays it as ``RemoteError.kind``)."""
    try:
        write(script)
    except RemoteError as exc:
        return exc.kind
    except Exception as exc:  # noqa: BLE001 -- the outcome under test
        return type(exc).__name__
    return "ok"


def recovered_doc(wal_dir) -> str:
    return serialize(recover(wal_dir, repair=True).database.document)


@pytest.mark.parametrize("driver", DRIVERS)
class TestDiskFaultParity:
    def test_transient_enospc_commits_after_one_reclaim(
        self, wal_dir, driver
    ):
        _, _, server = stack(wal_dir)
        with driver(server) as write:
            faults.arm("write", "enospc", match=".wal")
            assert outcome(write, append_script("landed")) == "ok"
        stats = server.stats()
        assert stats["disk_full_events"] == 1
        assert stats["space_reclaims"] == 1
        assert stats["reclaim_failures"] == 0
        assert stats["disk_full_shed"] == 0
        assert stats["commits"] == 1
        assert stats["wal_failed"] is None
        assert "<landed>" in recovered_doc(wal_dir)

    def test_failed_reclaim_sheds_and_audits(self, wal_dir, driver):
        db, _, server = stack(wal_dir)
        with driver(server) as write:
            faults.arm("write", "enospc", match=".wal")
            faults.arm("open", "enospc", match=".wal")  # the reopen's
            assert outcome(write, append_script("shed")) == "OverloadError"
        stats = server.stats()
        assert stats["reclaim_failures"] == 1
        assert stats["space_reclaims"] == 0
        assert stats["disk_full_shed"] == 1
        assert stats["commits"] == 0
        (record,) = db.audit.rejections("disk-full")
        assert record.user == "w1"
        assert record.operation == "UpdateScript"

    def test_three_eio_commits_set_disk_sick(self, wal_dir, driver):
        _, _, server = stack(wal_dir)
        with driver(server) as write:
            faults.arm("fsync", "eio", match=".wal")
            outcomes = [
                outcome(write, append_script(f"e{i}")) for i in range(3)
            ]
        # The group's fsync fails, the poisoned log refuses the next
        # commit, and the third refusal detaches it: snapshot-only.
        assert outcomes == ["WalWriteError", "WalWriteError", "ok"]
        stats = server.stats()
        assert stats["disk_io_errors"] == 3
        assert stats["disk_sick"] is True
        assert stats["wal_degraded"] == 1

    def test_retry_exhaustion_is_audited_once(self, wal_dir, driver):
        db, _, server = stack(wal_dir, retry=RetryPolicy(max_attempts=2))

        def racing_once(*args, **kwargs):
            raise ConcurrentUpdateError("simulated interleaved commit")

        server.execute_once = racing_once
        with driver(server) as write:
            try:
                write(append_script("never"))
            except RemoteError as exc:
                assert exc.kind == "RetryExhausted"
                message = exc.remote_message
            except Exception as exc:  # noqa: BLE001 -- checked below
                assert type(exc).__name__ == "RetryExhausted"
                message = str(exc)
            else:
                pytest.fail("the write should have exhausted its retries")
        assert "lost 2 attempt(s)" in message
        assert message.startswith("UpdateScript by 'w1'")
        (record,) = db.audit.rejections("retry-exhausted")
        assert record.user == "w1"
        assert record.operation == "UpdateScript"
        assert server.stats()["retry_exhausted"] == 1


@pytest.mark.parametrize("policy, fsyncs", [("os", 0), ("always", 5)])
@pytest.mark.parametrize("driver", DRIVERS)
def test_group_sync_honours_the_fsync_policy(wal_dir, driver, policy, fsyncs):
    """Under ``os`` no driver fsyncs; under ``always`` every one-seat
    group pays exactly its one fsync.  Either way group fsyncs spent +
    fsyncs saved = grouped commits."""
    _, wal, server = stack(wal_dir, fsync=policy)
    before = wal.stats["fsyncs"]
    with driver(server) as write:
        for i in range(5):
            assert outcome(write, append_script(f"p{i}")) == "ok"
    spent = wal.stats["fsyncs"] - before
    stats = server.stats()
    assert spent == fsyncs
    assert stats["grouped_records"] == stats["commits"] == 5
    assert spent + stats["group_fsyncs_saved"] == stats["grouped_records"]


class TestDoubleFault:
    """Member 2 of a two-member group hits ``ENOSPC``; reclaiming space
    then finds the disk refusing fsyncs too.  Member 1's record was
    appended but never made durable, so it must not be acknowledged."""

    def arm(self):
        faults.arm("write", "enospc", after=1, match=".wal")
        faults.arm("fsync", "eio", match=".wal")

    def assert_nothing_acked(self, server, outcomes):
        assert sorted(outcomes) == ["OverloadError", "WalWriteError"]
        stats = server.stats()
        assert stats["commits"] == 1  # installed, never acknowledged
        assert stats["grouped_records"] == 0
        assert stats["reclaim_failures"] == 1
        assert stats["disk_full_shed"] == 1
        assert stats["wal_failed"] is not None

    def test_blocking_commit(self, wal_dir):
        _, _, server = stack(wal_dir)
        committer = GroupCommitter(server)
        self.arm()
        results = commit_together(
            committer, [("w1", append_script(f"d{i}")) for i in range(2)]
        )
        outcomes = [type(result).__name__ for result in results]
        self.assert_nothing_acked(server, outcomes)

    def test_socket(self, wal_dir):
        _, _, server = stack(wal_dir)
        with serve_in_thread(server) as handle:
            self.arm()
            replies = execute_burst(
                handle.host, handle.port, "w1",
                [append_script(f"d{i}") for i in range(2)],
            )
        outcomes = [
            reply.kind if isinstance(reply, RemoteError) else "ok"
            for reply in replies
        ]
        self.assert_nothing_acked(server, outcomes)


class TestAcknowledgement:
    def test_socket_acks_carry_each_members_own_version(self, wal_dir):
        """Three keyed writes share one group: each is acknowledged with
        the version its own commit produced, and a replay of its key
        answers that same version."""
        _, _, server = stack(wal_dir)
        scripts = [append_script(f"v{i}") for i in range(3)]
        keys = [f"key{i}" for i in range(3)]
        with serve_in_thread(server) as handle:
            acked, replayed = (
                execute_burst(handle.host, handle.port, "w1", scripts, keys)
                for _ in range(2)
            )
        assert server.stats()["group_commits"] == 1  # replays append none
        versions = [reply["version"] for reply in acked]
        assert versions == [1, 2, 3]
        assert [reply["version"] for reply in replayed] == versions
        assert all(reply["deduped"] for reply in replayed)
        assert not any(reply["deduped"] for reply in acked)

    def test_ledger_replays_are_not_grouped_commits(self, wal_dir):
        """Replays append nothing: they ride no group's fsync, save
        none, and leave fsyncs spent + saved = commits."""
        _, wal, server = stack(wal_dir)
        committer = GroupCommitter(server)
        before = wal.stats["fsyncs"]
        for _ in range(2):  # the writes, then their replays
            tickets = [
                committer.submit(
                    "w1", append_script(f"r{i}"), idempotency_key=f"key{i}"
                )
                for i in range(3)
            ]
            committer.drive(tickets[0])
            assert all(ticket.result is not None for ticket in tickets)
        stats = server.stats()
        spent = wal.stats["fsyncs"] - before
        assert stats["dedup_hits"] == 3
        assert stats["commits"] == 3
        assert stats["group_commits"] == 1
        assert stats["grouped_records"] == 3
        assert spent + stats["group_fsyncs_saved"] == stats["commits"]


def backoff_call_sites(attr):
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in ast.walk(tree):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == attr
            ):
                sites.append(str(path.relative_to(SRC)))
    return sites


def test_one_retry_schedule_in_the_source():
    """``RetryPolicy.next_delay`` is called from exactly one place, the
    policy's own ``delays`` schedule, and that schedule is drawn from
    exactly one place: every served write backs off on the committer's
    retry schedule."""
    assert backoff_call_sites("next_delay") == ["serving/retry.py"]
    assert backoff_call_sites("delays") == ["serving/group.py"]
