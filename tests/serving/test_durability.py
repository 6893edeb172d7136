"""The serving layer's durability integration (ISSUE 5): open-with-
recovery, checkpointing both durable units, and the WAL degrade rung."""

import os

import pytest

from repro.errors import WalWriteError
from repro.faults import InjectedFault, inject
from repro.serving import DatabaseServer, GroupCommitter
from repro.serving.server import WAL_FAILURE_THRESHOLD
from repro.storage import backup_path, load_from_file, save_to_file
from repro.wal import WriteAheadLog, list_checkpoints, recover, scan_directory

from tests.wal.conftest import append_script, editors_database, state_of


@pytest.fixture
def db_path(tmp_path):
    path = str(tmp_path / "db.xml")
    save_to_file(editors_database(), path)
    return path


class TestOpen:
    def test_open_fresh_snapshot_cuts_an_initial_checkpoint(self, db_path):
        server = DatabaseServer.open(db_path)
        wal_dir = db_path + ".wal"
        assert server.database.wal is not None
        assert len(list_checkpoints(wal_dir)) == 1
        stats = server.stats()
        assert stats["wal_attached"] is True
        assert stats["wal_fsync_policy"] == "always"

    def test_commits_survive_reopen(self, db_path):
        server = DatabaseServer.open(db_path)
        server.execute("w1", append_script("a"))
        expected = state_of(server.database)
        server.database.detach_wal().close()
        # Note: db_path itself was never re-saved -- the log is
        # authoritative over the stale snapshot.
        reopened = DatabaseServer.open(db_path)
        assert state_of(reopened.database) == expected

    def test_open_recovers_a_torn_log(self, db_path):
        server = DatabaseServer.open(db_path)
        server.execute("w1", append_script("a"))
        expected = state_of(server.database)
        with inject("wal-mid-record"):
            with pytest.raises(InjectedFault):
                server.execute("w2", append_script("lost"))
        server.database.wal.close()  # simulate the process dying here
        reopened = DatabaseServer.open(db_path)
        assert state_of(reopened.database) == expected
        assert scan_directory(db_path + ".wal").torn is None  # repaired
        # and the reopened server keeps committing durably
        reopened.execute("w2", append_script("b"))
        assert reopened.database.version == expected["version"] + 1

    def test_open_honors_durability_spec(self, db_path):
        server = DatabaseServer.open(db_path, durability="os")
        assert server.database.wal.fsync_policy == "os"
        assert server.stats()["wal_fsync_policy"] == "os"

    def test_open_missing_everything_fails(self, tmp_path):
        from repro.errors import StorageError

        with pytest.raises((StorageError, OSError)):
            DatabaseServer.open(str(tmp_path / "nope.xml"))


class TestCheckpoint:
    def test_checkpoint_advances_both_durable_units(self, db_path):
        server = DatabaseServer.open(db_path, backup_count=2)
        server.execute("w1", append_script("a"))
        before = open(db_path, encoding="utf-8").read()
        server.checkpoint()
        # the initial cut at open() plus this manual one
        assert server.stats()["checkpoints"] == 2
        assert len(list_checkpoints(db_path + ".wal")) == 2
        assert open(db_path, encoding="utf-8").read() != before
        assert open(backup_path(db_path), encoding="utf-8").read() == before
        assert "<a>" in open(db_path, encoding="utf-8").read()

    def assert_auto_checkpoints_every_3(self, db_path, write):
        server = DatabaseServer.open(db_path, checkpoint_every=3)
        for i in range(7):
            write(server, append_script(f"e{i}"))
        # commits 3 and 6 crossed the threshold, plus the initial cut
        assert server.stats()["checkpoints"] == 3
        assert "<e2>" in open(db_path, encoding="utf-8").read()

    def test_auto_checkpoint_every_n_commits(self, db_path):
        self.assert_auto_checkpoints_every_3(
            db_path, lambda server, script: server.execute("w1", script)
        )

    def test_auto_checkpoint_every_n_group_commits(self, db_path):
        """``serve`` writes only through group commit: a flushed group
        counts toward ``checkpoint_every`` as an ``execute`` does."""
        self.assert_auto_checkpoints_every_3(
            db_path,
            lambda server, script: GroupCommitter(server).commit(
                "w1", script
            ),
        )

    def test_auto_checkpoint_failure_never_fails_the_write(self, db_path):
        server = DatabaseServer.open(db_path, checkpoint_every=1)
        with inject("checkpoint-mid-snapshot"):
            result = server.execute("w1", append_script("a"))
        assert result is not None
        stats = server.stats()
        assert stats["commits"] == 1
        assert stats["checkpoint_failures"] == 1
        assert server.database.version == 1

    def test_checkpoint_every_validated(self, db_path):
        with pytest.raises(ValueError):
            DatabaseServer.open(db_path, checkpoint_every=0)


class TestDegradeLadder:
    def make_failing_server(self, tmp_path):
        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        server = DatabaseServer(db, wal=wal)
        wal.checkpoint(db)
        wal._handle.close()  # every further append now fails
        return server

    def test_wal_errors_below_threshold_propagate(self, tmp_path):
        server = self.make_failing_server(tmp_path)
        for _ in range(WAL_FAILURE_THRESHOLD - 1):
            with pytest.raises(WalWriteError):
                server.execute("w1", append_script("x"))
        stats = server.stats()
        assert stats["wal_errors"] == WAL_FAILURE_THRESHOLD - 1
        assert stats["wal_degraded"] == 0
        assert stats["wal_attached"] is True
        assert server.database.version == 0  # nothing installed

    def test_threshold_detaches_the_log_and_the_write_succeeds(
        self, tmp_path
    ):
        server = self.make_failing_server(tmp_path)
        failures = 0
        for _ in range(WAL_FAILURE_THRESHOLD):
            try:
                server.execute("w1", append_script("x"))
            except WalWriteError:
                failures += 1
        # the last attempt degraded the log and committed
        assert failures == WAL_FAILURE_THRESHOLD - 1
        stats = server.stats()
        assert stats["wal_degraded"] == 1
        assert stats["wal_attached"] is False
        assert server.database.version == 1
        # snapshot-only from here on: further writes just work
        server.execute("w2", append_script("y"))
        assert server.database.version == 2

    def test_wal_failures_feed_the_breaker(self, tmp_path):
        from repro.serving import CircuitBreaker

        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        breaker = CircuitBreaker(failure_threshold=1)
        server = DatabaseServer(db, wal=wal, breaker=breaker)
        wal.checkpoint(db)
        wal._handle.close()
        with pytest.raises(WalWriteError):
            server.execute("w1", append_script("x"))
        assert breaker.state == "open"
        assert breaker.stats["trips"] == 1

    def test_a_successful_commit_resets_the_consecutive_count(self, tmp_path):
        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        server = DatabaseServer(db, wal=wal)
        wal.checkpoint(db)
        with inject("wal-mid-record"):
            with pytest.raises((WalWriteError, InjectedFault)):
                server.execute("w1", append_script("x"))
        # The poisoned log heals by reopening: simulate by clearing the
        # failure mark after truncating the torn tail.
        wal.close()
        db.detach_wal()
        db.attach_wal(WriteAheadLog(str(tmp_path / "db.wal")))
        server.execute("w1", append_script("y"))
        assert server._wal_consecutive_failures == 0
        assert server.stats()["wal_degraded"] == 0

    def test_stats_surface_wal_counters(self, tmp_path):
        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        server = DatabaseServer(db, wal=wal)
        wal.checkpoint(db)
        server.execute("w1", append_script("a"))
        stats = server.stats()
        assert stats["wal_appends"] >= 2  # checkpoint record + commit
        assert stats["wal_lsn"] == wal.lsn
        assert stats["wal_checkpoints"] == 1


class TestEndToEndDurability:
    def test_kill_mid_commit_then_reopen_loses_nothing_acked(self, db_path):
        """The headline property, through the serving layer: every
        acknowledged commit survives a crash + reopen."""
        server = DatabaseServer.open(db_path)
        acked = []
        for i in range(6):
            if i == 3:
                with inject("wal-mid-record"):
                    with pytest.raises(InjectedFault):
                        server.execute("w1", append_script("doomed"))
                server.database.wal.close()
                server = DatabaseServer.open(db_path)
            server.execute("w1", append_script(f"ok{i}"))
            acked.append(f"ok{i}")
        server.database.detach_wal().close()
        result = recover(db_path + ".wal")
        assert result.report.clean
        from repro.xmltree.serializer import serialize

        final = serialize(result.database.document)
        for label in acked:
            assert f"<{label}>" in final
        assert "<doomed>" not in final
