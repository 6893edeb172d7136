"""The commit window is demand plus a constant cap: a leader waits only
for writes that are *coming* -- counted from frame decode (a socket
write; from its predecessor's ack on a connection that waits for acks)
or from entering the schedule (an in-process write) until they join a
group or fail first.  Pinned by count, never by a stopwatch: the
coming count returns to zero after every way a request can fail, and a
lone write then seals without waiting on the committer's condition."""

import sys
import threading

import pytest

from repro.errors import RemoteError
from repro.netserve import encode_frame
from repro.netserve.protocol import request
from repro.serving import DatabaseServer, GroupCommitter
from repro.testing.faults import run_threads
from repro.wal import WriteAheadLog
from repro.xupdate import XUpdateParseError

from .conftest import (
    all_hung_up,
    append_script,
    until,
    connect,
    editors_database,
    served,
)

pytestmark = pytest.mark.netserve

REMOVE_ENTRY = (
    '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
    '<xupdate:remove select="/log/entry"/></xupdate:modifications>'
)


def count_waits(condition, monkeypatch) -> list:
    """Record every ``wait`` on this one condition."""
    waits = []
    original = condition.wait

    def wait(timeout=None):
        waits.append(timeout)
        return original(timeout)

    monkeypatch.setattr(condition, "wait", wait)
    return waits


def raw_execute(client, **fields):
    """Send one ``execute`` frame as given (no client-side checks) and
    return the relayed error kind, or ``"ok"``."""
    client._next_id += 1
    client._sock.sendall(
        encode_frame(request(client._next_id, "execute", **fields))
    )
    frame = client._receive(client._next_id)
    return "ok" if frame["ok"] else frame["error"]["kind"]


def test_no_failure_leaks_a_coming_write(wal_dir, monkeypatch):
    db = editors_database()
    db.policy.deny("delete", "//*", "w2")
    with served(wal_dir, database=db) as (handle, server):
        group = handle.net.group
        seen = []
        for fields in (
            {"script": "<not-xupdate/>"},  # fails its parse
            {"script": REMOVE_ENTRY, "strict": "yes"},  # bad strict
            {"script": append_script("k"), "idempotency_key": ""},
            {"script": append_script("d"), "deadline_ms": 0},
            {"script": append_script("e"), "deadline_ms": 1e-6},  # expires
        ):
            with connect(handle, "w1") as client:  # a ProtocolError hangs up
                seen.append(raw_execute(client, **fields))
        with connect(handle, "w2") as client:
            with pytest.raises(RemoteError) as denied:
                client.execute(REMOVE_ENTRY, strict=True)  # strict denied
        with connect(handle) as client:  # no session yet
            seen.append(raw_execute(client, script=append_script("n")))
        assert seen == [
            "XUpdateParseError", "ProtocolError", "ProtocolError",
            "ProtocolError", "DeadlineExceeded", "ProtocolError",
        ]
        assert denied.value.kind in ("AccessDenied", "UpdateAborted")
        assert all_hung_up(handle)
        assert group.coming == 0

        waits = count_waits(group._cond, monkeypatch)
        with connect(handle, "w1") as client:
            assert client.execute(append_script("lone"))["fully_applied"]
        assert waits == []
        assert all_hung_up(handle)
        assert group.coming == 0
        assert server.stats()["commits"] == 1


def test_the_frame_loop_counts_each_decoded_write_once(wal_dir, monkeypatch):
    """Three ``execute`` frames in one ``sendall``: the frame loop
    counts each once, the schedule counts none of them again, each ack
    counts the connection's next write early, and the connection's next
    non-write frame stops expecting it."""
    with served(wal_dir) as (handle, server):
        group = handle.net.group
        counted = []
        original = group.expect

        def expect():
            counted.append(1)
            return original()

        monkeypatch.setattr(group, "expect", expect)
        with connect(handle, "w1") as client:
            first = client._next_id + 1
            client._sock.sendall(b"".join(
                encode_frame(request(
                    first + i, "execute", script=append_script(f"c{i}")
                ))
                for i in range(3)
            ))
            client._next_id += 3
            for rid in range(first, first + 3):
                assert client._receive(rid)["ok"]
            # Decoded, then acked: each ack counts a next write early.
            assert until(lambda: len(counted) == 3 + 3)
            assert group.coming == 3
            client.query("count(//*)")
            assert group.coming == 0
        assert server.stats()["group_commits"] == 1


class TestInProcess:
    @pytest.fixture
    def committer(self, wal_dir):
        db = editors_database()
        db.attach_wal(WriteAheadLog(wal_dir, fsync="always"))
        db.wal.checkpoint(db)
        # A stopped clock: the 2 ms cap never passes, so a leader seals
        # on demand alone.
        return GroupCommitter(DatabaseServer(db, clock=lambda: 0.0))

    def test_a_write_counts_from_schedule_entry_until_it_joins(
        self, committer
    ):
        schedule = committer.schedule("w1", append_script("a"))
        assert committer.coming == 0  # a generator not yet stepped
        ticket = next(schedule)
        assert committer.coming == 0 and ticket.leader
        committer.drive(ticket)
        assert list(schedule) == []
        assert ticket.result.fully_applied

    def test_a_parse_error_stops_counting(self, committer, monkeypatch):
        with pytest.raises(XUpdateParseError):
            committer.commit("w1", "<not-xupdate/>")
        assert committer.coming == 0
        waits = count_waits(committer._cond, monkeypatch)
        assert committer.commit("w1", append_script("b")).fully_applied
        assert waits == []

    def test_a_leader_waits_for_a_write_that_is_coming(self, committer):
        """A write counted but not yet joined holds the leader's group
        open; once it joins, the two share one group."""
        coming = committer.expect()
        lead = committer.submit("w1", append_script("lead"))
        driver = threading.Thread(target=committer.drive, args=(lead,))
        driver.start()
        schedule = committer.schedule(
            "w1", append_script("late"), coming=coming
        )
        late = next(schedule)
        driver.join(10)
        assert not driver.is_alive()
        assert late.group is lead.group and not late.leader
        assert lead.result.fully_applied and late.result.fully_applied
        assert list(schedule) == []


def test_concurrent_writers_leave_no_coming_write(wal_dir):
    """Eight threads on two cores, a switch interval short enough to
    interleave every step: each write -- a fifth of them malformed --
    counts as coming and stops counting exactly once, so the count ends
    at zero and every good write commits once."""
    db = editors_database()
    db.attach_wal(WriteAheadLog(wal_dir, fsync="os"))
    db.wal.checkpoint(db)
    server = DatabaseServer(db)
    committer = GroupCommitter(server, max_batch=4)

    def writer(index):
        for step in range(10):
            script = (
                "<not-xupdate/>" if step % 5 == 4
                else append_script(f"t{index}s{step}")
            )
            try:
                committer.commit("w1", script)
            except XUpdateParseError:
                assert step % 5 == 4

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_threads(writer, 8, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [None] * 8
    assert committer.coming == 0
    stats = server.stats()
    assert stats["commits"] == stats["grouped_records"] == 8 * 8
