"""Recovery: checkpoint + committed prefix -> an equal database."""

import os

import pytest

from repro.errors import RecoveryError, WalCorruptionError
from repro.faults import InjectedFault, inject
from repro.wal import WriteAheadLog, list_checkpoints, recover, scan_directory
from repro.xmltree.serializer import serialize

from .conftest import append_script, editors_database, state_of


def last_segment(wal_dir):
    return sorted(
        os.path.join(wal_dir, n)
        for n in os.listdir(wal_dir)
        if n.startswith("segment-")
    )[-1]


class TestRoundTrip:
    def test_recovers_the_exact_committed_state(self, wal_dir, logged_db):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.login("w2").execute(append_script("b"))
        db.admin_update(
            '<xupdate:modifications '
            'xmlns:xupdate="http://www.xmldb.org/xupdate">'
            '<xupdate:update select="/log/a">patched</xupdate:update>'
            "</xupdate:modifications>"
        )
        # administrative surface: new user, new rule, then a revocation
        db.subjects.add_user("w3", member_of="editor")
        rule = db.policy.deny("read", "/log/b", "w3")
        db.policy.revoke(rule)
        db.login("w1").execute(append_script("c"))
        expected = state_of(db)
        db.detach_wal().close()

        result = recover(wal_dir)
        assert result.report.clean, str(result.report)
        assert result.torn is None
        assert result.checkpoint is not None
        assert result.replayed == 4  # three sessions + one admin commit
        assert state_of(result.database) == expected
        assert result.database.wal is None  # recovery never re-logs

    def test_self_isa_edge_is_never_logged(self, wal_dir, logged_db):
        db = logged_db
        db.subjects.add_user("w3", member_of="editor")
        logged = db.wal.lsn
        db.subjects.add_isa("editor", "editor")
        db.subjects.add_isa("w3", "w3")
        assert db.wal.lsn == logged
        assert db.subjects.members("editor") == {"editor", "w1", "w2", "w3"}
        db.login("w3").execute(append_script("a"))
        expected = state_of(db)
        db.detach_wal().close()
        recovered = recover(wal_dir).database
        assert state_of(recovered) == expected
        assert recovered.subjects.ancestors("w3") == {"w3", "editor"}

    def test_recovered_database_resumes_durable_operation(
        self, wal_dir, logged_db
    ):
        logged_db.login("w1").execute(append_script("a"))
        logged_db.detach_wal().close()
        result = recover(wal_dir)
        db = result.database
        db.attach_wal(WriteAheadLog(wal_dir))
        db.login("w2").execute(append_script("b"))
        expected = state_of(db)
        db.detach_wal().close()
        assert state_of(recover(wal_dir).database) == expected

    def test_replay_starts_at_the_newest_checkpoint(self, wal_dir, logged_db):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.wal.checkpoint(db)
        db.login("w1").execute(append_script("b"))
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.checkpoint.version == 1
        assert result.replayed == 1  # only "b" is past the snapshot
        assert result.version == 2

    def test_state_fallback_record(self, wal_dir, logged_db):
        """A commit with no XUpdate spelling (a direct ``commit()``) is
        logged as a full state snapshot and replayed from it."""
        db = logged_db
        doc = db.document.copy()
        db.commit(doc)  # origin-less: must fall back
        assert db.wal.stats["state_fallbacks"] == 1
        db.login("w1").execute(append_script("after"))  # replays on top
        expected = state_of(db)
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.report.clean
        assert state_of(result.database) == expected

    def test_state_record_bootstraps_without_a_checkpoint(self, wal_dir):
        db = editors_database()
        db.attach_wal(WriteAheadLog(wal_dir))  # note: no checkpoint
        db.commit(db.document.copy())  # state record = full bootstrap
        db.login("w1").execute(append_script("a"))
        expected = state_of(db)
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.checkpoint is None
        assert state_of(result.database) == expected

    def test_log_without_any_starting_point_is_unrecoverable(self, wal_dir):
        db = editors_database()
        db.attach_wal(WriteAheadLog(wal_dir))  # no checkpoint taken
        db.login("w1").execute(append_script("a"))
        db.detach_wal().close()
        with pytest.raises(RecoveryError):
            recover(wal_dir)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(str(tmp_path / "nowhere"))


class TestTornTailHandling:
    def tear(self, wal_dir, logged_db):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        committed = state_of(db)
        with inject("wal-mid-record"):
            with pytest.raises(InjectedFault):
                db.login("w2").execute(append_script("lost"))
        db.detach_wal().close()
        return committed

    def test_lenient_truncates_and_reports(self, wal_dir, logged_db):
        committed = self.tear(wal_dir, logged_db)
        result = recover(wal_dir)
        assert result.torn is not None
        assert not result.report.clean
        assert state_of(result.database) == committed
        # not repaired: the torn bytes are still on disk
        assert scan_directory(wal_dir).torn is not None

    def test_strict_raises(self, wal_dir, logged_db):
        self.tear(wal_dir, logged_db)
        with pytest.raises(WalCorruptionError):
            recover(wal_dir, strict=True)

    def test_repair_makes_the_damage_physical_truth(
        self, wal_dir, logged_db
    ):
        committed = self.tear(wal_dir, logged_db)
        result = recover(wal_dir, repair=True)
        assert state_of(result.database) == committed
        assert scan_directory(wal_dir).torn is None
        # and the repaired directory re-opens for appending
        db = result.database
        db.attach_wal(WriteAheadLog(wal_dir))
        assert db.wal.stats["torn_tail_repaired"] == 0
        db.login("w1").execute(append_script("resumed"))
        expected = state_of(db)
        db.detach_wal().close()
        assert state_of(recover(wal_dir).database) == expected

    def test_before_fsync_commit_is_durable_but_unacknowledged(
        self, wal_dir, logged_db
    ):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        acked = db.version
        with inject("wal-before-fsync"):
            with pytest.raises(InjectedFault):
                db.login("w2").execute(append_script("inflight"))
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.report.clean  # fully written record: a clean log
        assert result.version == acked + 1
        assert "<inflight>" in serialize(result.database.document)


class TestDegradations:
    def test_version_mismatch_stops_lenient_replay(self, wal_dir, logged_db):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        consistent = state_of(db)
        wal = db.detach_wal()
        # Forge a record stamped with the wrong post-commit version.
        wal.append(
            {
                "kind": "update",
                "version": db.version + 7,
                "user": "w2",
                "script": append_script("forged"),
                "strict": False,
            }
        )
        wal.close()
        result = recover(wal_dir)
        assert not result.report.clean
        assert any("stamped" in str(p) for p in result.report.problems)
        assert state_of(result.database) == consistent
        with pytest.raises(RecoveryError):
            recover(wal_dir, strict=True)

    def test_unloadable_newest_checkpoint_falls_back(
        self, wal_dir, logged_db
    ):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.wal.checkpoint(db)
        db.login("w1").execute(append_script("b"))
        expected = state_of(db)
        db.detach_wal().close()
        newest = list_checkpoints(wal_dir)[-1]
        with open(newest.path, "r+", encoding="utf-8") as handle:
            handle.truncate(40)  # half a snapshot: unloadable
        result = recover(wal_dir)
        assert not result.report.clean
        assert result.checkpoint.lsn < newest.lsn  # the older one
        assert state_of(result.database) == expected  # replay catches up
        with pytest.raises(RecoveryError):
            recover(wal_dir, strict=True)

    def test_repair_mode_takes_the_older_checkpoint_fallback(
        self, wal_dir, logged_db
    ):
        # The worst plausible crash site: the newest snapshot is
        # corrupt AND the log has a torn tail.  Repair mode must fall
        # back to the older checkpoint, replay the committed suffix
        # over it, truncate the torn bytes, and leave a directory a
        # fresh WriteAheadLog opens cleanly.
        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.wal.checkpoint(db)
        db.login("w1").execute(append_script("b"))
        expected = state_of(db)
        db.detach_wal().close()
        newest = list_checkpoints(wal_dir)[-1]
        with open(newest.path, "r+", encoding="utf-8") as handle:
            handle.truncate(40)
        with open(last_segment(wal_dir), "ab") as handle:
            handle.write(b"\xff\xfftorn")
        result = recover(wal_dir, repair=True)
        assert not result.report.clean
        assert result.checkpoint.lsn < newest.lsn  # the older one
        assert state_of(result.database) == expected
        # the torn tail is physically gone: re-opening repairs nothing
        reopened = WriteAheadLog(wal_dir)
        assert reopened.stats["torn_tail_repaired"] == 0
        reopened.close()

    def test_load_newest_checkpoint_skips_the_corrupt_one(
        self, wal_dir, logged_db
    ):
        from repro.wal import load_newest_checkpoint

        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.wal.checkpoint(db)
        db.detach_wal().close()
        newest = list_checkpoints(wal_dir)[-1]
        checkpoint, loaded = load_newest_checkpoint(wal_dir)
        assert checkpoint.lsn == newest.lsn
        assert loaded.version == checkpoint.version
        with open(newest.path, "r+", encoding="utf-8") as handle:
            handle.truncate(40)
        checkpoint, loaded = load_newest_checkpoint(wal_dir)
        assert checkpoint.lsn < newest.lsn
        with pytest.raises(RecoveryError):
            load_newest_checkpoint(wal_dir, strict=True)

    def test_tampered_checkpoint_is_rejected_by_its_integrity_header(
        self, wal_dir, logged_db
    ):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        db.wal.checkpoint(db)
        expected = state_of(db)
        db.detach_wal().close()
        newest = list_checkpoints(wal_dir)[-1]
        text = open(newest.path, encoding="utf-8").read()
        open(newest.path, "w", encoding="utf-8").write(
            text.replace("<entry>seed</entry>", "<entry>SEED</entry>")
        )
        result = recover(wal_dir)
        assert any(
            "checkpoint" in problem.section
            for problem in result.report.problems
        )
        assert state_of(result.database) == expected

    def test_replay_failure_stops_at_the_last_consistent_point(
        self, wal_dir, logged_db
    ):
        db = logged_db
        db.login("w1").execute(append_script("a"))
        consistent = state_of(db)
        wal = db.detach_wal()
        wal.append({"kind": "subjects", "op": "explode", "args": []})
        wal.close()
        result = recover(wal_dir)
        assert not result.report.clean
        assert state_of(result.database) == consistent
        with pytest.raises(RecoveryError):
            recover(wal_dir, strict=True)
