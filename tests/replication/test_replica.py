"""Replica: seeding, following, catch-up, divergence, read-only serving."""

import os

import pytest

from repro.errors import ReadOnlyReplica, ReplicaDiverged
from repro.faults import InjectedFault, faults
from repro.replication import Replica
from repro.wal import WriteAheadLog

from .conftest import USERS, append_script, editors_database, state_bytes


@pytest.fixture(autouse=True)
def clean_injector():
    faults.reset()
    yield
    faults.reset()


def assert_converged(replica, primary):
    """The convergence contract: exact version, byte-identical state,
    and every user's authorized view equal to the primary's."""
    assert replica.version == primary.version
    assert state_bytes(replica.database) == state_bytes(primary)
    for user in USERS:
        assert (
            replica.read_xml(user) == primary.login(user).read_xml()
        )


class TestSeedingAndFollowing:
    def test_seed_from_checkpoint_matches_primary(self, primary):
        replica = Replica(primary.wal.directory)
        assert replica.state == "following"
        assert_converged(replica, primary)

    def test_seed_covers_commits_after_the_checkpoint(self, primary):
        primary.login("w1").execute(append_script("a"))
        primary.login("w2").execute(append_script("b"))
        replica = Replica(primary.wal.directory)
        assert_converged(replica, primary)

    def test_poll_applies_new_commits(self, primary):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        assert replica.lag() == 1
        advanced = replica.poll()
        assert advanced == 1
        assert replica.lag() == 0
        assert_converged(replica, primary)

    def test_admin_changes_replicate_enforcement(self, primary):
        replica = Replica(primary.wal.directory)
        # A policy change on the primary: w2 loses sight of <entry>.
        primary.policy.deny("read", "/log/entry", "w2")
        primary.login("w1").execute(append_script("a"))
        replica.sync()
        assert_converged(replica, primary)
        assert "entry" not in replica.read_xml("w2")
        assert "entry" in replica.read_xml("w1")

    def test_restart_resumes_from_durable_position(self, primary):
        first = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        first.sync()
        # The replica process dies; a fresh one re-seeds from the log
        # alone and stands exactly where the history says.
        second = Replica(primary.wal.directory)
        assert_converged(second, primary)
        assert second.applied_lsn == first.applied_lsn

    def test_sync_drains_a_long_backlog(self, primary):
        replica = Replica(primary.wal.directory)
        for i in range(10):
            primary.login("w1").execute(append_script(f"b{i}"))
        assert replica.sync() == 10
        assert_converged(replica, primary)


class TestReadOnlyServing:
    def test_writes_on_the_replica_are_refused(self, primary):
        replica = Replica(primary.wal.directory)
        with pytest.raises(ReadOnlyReplica):
            replica.database.login("w1").execute(append_script("x"))
        assert replica.database.read_only
        # The refusal forked nothing: the replica still follows.
        primary.login("w1").execute(append_script("a"))
        replica.sync()
        assert_converged(replica, primary)

    def test_serve_returns_the_exact_version(self, primary):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        replica.sync()
        xml, version = replica.serve("w1", lambda s: s.read_xml())
        assert version == primary.version
        assert "entry" in xml

    def test_view_cache_is_shared_across_reads(self, primary):
        replica = Replica(primary.wal.directory)
        replica.read_xml("w1")
        replica.query("w1", "count(/log/*)")
        stats = replica.stats()
        assert stats["reads"] == 2

    def test_served_sessions_are_a_bounded_lru(self, tmp_path):
        """The replica shares the server's session bound: identity
        holds while cached, and an evicted user is served correctly."""
        from repro.security.session import SESSION_CACHE_SIZE

        crowd = [f"u{i}" for i in range(SESSION_CACHE_SIZE + 1)]
        db = editors_database(users=crowd)
        wal = WriteAheadLog(str(tmp_path / "crowd.wal"))
        db.attach_wal(wal)
        wal.checkpoint(db)
        replica = Replica(wal.directory)

        def session_of(user):
            return replica.serve(user, lambda session: session)[0]

        first = session_of("u0")
        assert session_of("u0") is first
        for user in crowd[1:]:
            session_of(user)  # one more user than the cache holds
        assert len(replica._sessions) == SESSION_CACHE_SIZE
        assert session_of("u0") is not first
        assert replica.read_xml("u0") == db.login("u0").read_xml()

    def test_lag_reads_only_the_newest_segment(self, tmp_path, bytes_read):
        """``lag()`` learns the primary's tail lsn from the last
        segment, not by decoding the whole retained log."""
        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "long.wal"), segment_bytes=512)
        db.attach_wal(wal)
        wal.checkpoint(db)
        replica = Replica(wal.directory)
        for i in range(12):
            db.login("w1").execute(append_script(f"e{i}"))
        segments = sorted(
            name for name in os.listdir(wal.directory)
            if name.startswith("segment-")
        )
        assert len(segments) > 3
        del bytes_read[:]
        assert replica.lag() == 12
        newest = os.path.join(wal.directory, segments[-1])
        assert sum(bytes_read) == os.path.getsize(newest)

    def test_stats_expose_replica_health(self, primary):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        replica.sync()
        stats = replica.stats()
        assert stats["state"] == "following"
        assert stats["records_applied"] == 1
        assert stats["catchups"] == 1
        assert stats["divergences"] == 0
        assert stats["applied_lsn"] == replica.applied_lsn
        assert stats["read_only"] is True


class TestCatchUp:
    def test_pruned_stream_position_falls_back_to_checkpoint(
        self, tmp_path
    ):
        wal_dir = str(tmp_path / "prune.wal")
        db = editors_database()
        wal = WriteAheadLog(wal_dir, retain_checkpoints=1, segment_bytes=128)
        db.attach_wal(wal)
        wal.checkpoint(db)
        replica = Replica(wal_dir)
        # The replica sleeps through several checkpoint generations:
        # its stream position is pruned off the disk.
        for i in range(6):
            db.login("w1").execute(append_script(f"p{i}"))
        wal.checkpoint(db)
        for i in range(3):
            db.login("w1").execute(append_script(f"q{i}"))
        wal.checkpoint(db)
        replica.sync()
        assert replica.stats()["stream_gaps"] >= 1
        assert replica.stats()["catchups"] >= 2
        assert_converged(replica, db)

    def test_catch_up_is_read_only_on_the_primarys_files(self, primary):
        import os

        wal_dir = primary.wal.directory
        before = {
            name: os.path.getsize(os.path.join(wal_dir, name))
            for name in os.listdir(wal_dir)
        }
        replica = Replica(wal_dir)
        replica.catch_up()
        after = {
            name: os.path.getsize(os.path.join(wal_dir, name))
            for name in os.listdir(wal_dir)
        }
        assert before == after


class TestKillPoints:
    def test_kill_before_apply_loses_nothing_acknowledged(self, primary):
        replica = Replica(primary.wal.directory)
        for label in ("a", "b", "c"):
            primary.login("w1").execute(append_script(label))
        faults.arm("replica-before-apply", after=1)
        with pytest.raises(InjectedFault):
            replica.poll()
        # The first record landed before the kill; the killed one and
        # its successors did not -- and nothing was half-applied.
        assert replica.version == 1
        assert replica.state == "following"
        replica.sync()  # the retry drains the rest
        assert_converged(replica, primary)

    def test_kill_mid_replay_keeps_the_applied_record(self, primary):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        faults.arm("replica-mid-replay")
        with pytest.raises(InjectedFault):
            replica.poll()
        # mid-replay fires *after* the apply: the record is kept and
        # acknowledged, so the retry must not re-apply it.
        assert replica.version == 1
        replica.sync()
        assert_converged(replica, primary)

    def test_kill_in_the_stream_leaves_the_cursor_consistent(
        self, primary
    ):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        faults.arm("stream-truncated")
        with pytest.raises(InjectedFault):
            replica.poll()
        replica.sync()
        assert_converged(replica, primary)

    def test_restart_after_kill_converges(self, primary):
        replica = Replica(primary.wal.directory)
        for label in ("a", "b"):
            primary.login("w1").execute(append_script(label))
        faults.arm("replica-before-apply")
        with pytest.raises(InjectedFault):
            replica.poll()
        # The process dies instead of retrying in place: a fresh
        # replica over the same directory converges all the same.
        reborn = Replica(primary.wal.directory)
        assert_converged(reborn, primary)


class TestDivergence:
    def rot(self, replica):
        """Simulate local bit-rot: grow the replica's document behind
        the secured path's back (no version bump, no log record)."""
        from repro.xmltree import NodeKind

        doc = replica.database.document
        doc.append_child(doc.root, NodeKind.ELEMENT, "rot")

    def test_checkpoint_digest_catches_silent_divergence(self, primary):
        replica = Replica(primary.wal.directory)
        self.rot(replica)
        primary.login("w1").execute(append_script("a"))
        primary.wal.checkpoint(primary)
        with pytest.raises(ReplicaDiverged) as excinfo:
            replica.sync()
        assert excinfo.value.expected != excinfo.value.actual
        assert replica.quarantined
        assert replica.stats()["divergences"] == 1

    def test_quarantined_replica_never_serves(self, primary):
        replica = Replica(primary.wal.directory)
        self.rot(replica)
        primary.wal.checkpoint(primary)
        with pytest.raises(ReplicaDiverged):
            replica.sync()
        with pytest.raises(ReplicaDiverged):
            replica.read_xml("w1")
        with pytest.raises(ReplicaDiverged):
            replica.serve("w1", lambda s: s.view())
        with pytest.raises(ReplicaDiverged):
            replica.poll()

    def test_catch_up_reseeds_a_quarantined_replica(self, primary):
        replica = Replica(primary.wal.directory)
        self.rot(replica)
        primary.login("w1").execute(append_script("a"))
        primary.wal.checkpoint(primary)
        with pytest.raises(ReplicaDiverged):
            replica.sync()
        replica.catch_up()  # the only way back into service
        assert replica.state == "following"
        assert_converged(replica, primary)
        assert "rot" not in replica.read_xml("w1")

    def test_forged_version_stamp_quarantines(self, primary):
        replica = Replica(primary.wal.directory)
        # A record stamped with an impossible version: the recovery
        # invariant (stamped == successor) fails before any apply.
        primary.wal.append(
            {"kind": "admin", "version": 50, "op": "add_user",
             "name": "evil", "member_of": None}
        )
        with pytest.raises(ReplicaDiverged):
            replica.sync()
        assert replica.quarantined

    def test_clean_checkpoints_count_as_verified(self, primary):
        replica = Replica(primary.wal.directory)
        primary.login("w1").execute(append_script("a"))
        primary.wal.checkpoint(primary)
        replica.sync()
        assert replica.stats()["divergence_checks"] >= 1
        assert replica.stats()["divergences"] == 0
        assert not replica.quarantined
