"""Supervised failover: detection, promotion, fencing, exactly-once.

The unit half of the failover story (the seeded soak lives in
test_failover_chaos.py): the failure detector's signals, the promotion
sequence end to end, the epoch rules that make a deposed primary
harmless, the dedup ledger surviving the switch, and the stats
surfaces ISSUE 9 adds.
"""

import threading

import pytest

from repro.errors import (
    FailoverError,
    ReplicaDiverged,
    StaleEpochError,
)
from repro.faults import InjectedFault, inject
from repro.replication import FailoverSupervisor, Replica, ReplicationRouter
from repro.serving import DatabaseServer
from repro.testing.faults import run_threads
from repro.wal import WriteAheadLog

from .conftest import append_script, editors_database, state_bytes

pytestmark = pytest.mark.failover


@pytest.fixture
def cluster(tmp_path):
    """Primary server + two replicas + router + supervisor."""
    wal_dir = str(tmp_path / "primary.wal")
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    server = DatabaseServer(db)
    replicas = [
        Replica(wal_dir, replica_id=f"r{i}") for i in range(2)
    ]
    router = ReplicationRouter(server, replicas, max_wait=0.2)
    supervisor = FailoverSupervisor(
        router,
        promote_dir=str(tmp_path / "promoted"),
        heartbeat_timeout_ms=0.0,
    )
    return server, replicas, router, supervisor, wal_dir


def poison_wal(server):
    """Tear one append mid-record: the WAL writer is poisoned, which
    is exactly the degraded primary the detector must flag."""
    with inject("wal-mid-record"):
        with pytest.raises(Exception):
            server.execute("w1", append_script("torn"))


class TestDetection:
    def test_healthy_primary_probes_healthy(self, cluster):
        _, _, _, supervisor, _ = cluster
        probe = supervisor.heartbeat()
        assert probe["healthy"] and probe["reasons"] == []
        assert not supervisor.primary_failed

    def test_poisoned_wal_is_a_failure_signal(self, cluster):
        server, _, _, supervisor, _ = cluster
        poison_wal(server)
        probe = supervisor.heartbeat()
        assert not probe["healthy"]
        assert any("wal-poisoned" in r for r in probe["reasons"])
        assert supervisor.primary_failed  # grace window is 0 here

    def test_fenced_primary_is_a_failure_signal(self, cluster):
        server, _, _, supervisor, _ = cluster
        server.fence(7)
        probe = supervisor.heartbeat()
        assert any("fenced" in r for r in probe["reasons"])

    def test_grace_window_absorbs_a_blip(self, tmp_path, cluster):
        server, replicas, router, _, _ = cluster
        now = [0.0]
        supervisor = FailoverSupervisor(
            router,
            promote_dir=str(tmp_path / "p2"),
            heartbeat_timeout_ms=1000.0,
            clock=lambda: now[0],
        )
        supervisor.heartbeat()  # healthy baseline at t=0
        poison_wal(server)
        now[0] = 0.5
        assert not supervisor.heartbeat()["healthy"]
        assert not supervisor.primary_failed  # 500ms < the 1s window
        now[0] = 1.5
        supervisor.heartbeat()
        assert supervisor.primary_failed

    def test_healthy_primary_refuses_unforced_promotion(self, cluster):
        _, _, _, supervisor, _ = cluster
        with pytest.raises(FailoverError) as info:
            supervisor.promote()
        assert info.value.reason == "primary-healthy"


class TestPromotion:
    def commit(self, router, label, **kwargs):
        return router.execute("w1", append_script(label), **kwargs)

    def test_promotion_end_to_end(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        for label in ("a", "b", "c"):
            self.commit(router, label)
        poison_wal(server)
        supervisor.heartbeat()
        assert supervisor.primary_failed
        promoted = supervisor.promote()
        # The router swapped primaries under a strictly higher epoch.
        assert router.primary is promoted
        assert router.epoch == 1 and promoted.epoch == 1
        assert router.stats()["promotions"] == 1
        # Nothing acknowledged was lost: the promoted state holds all
        # three commits, and new writes land on the new primary.
        assert promoted.stats()["promotions"] == 1
        self.commit(router, "after")
        assert "<after>" in promoted.read_xml("w1")
        assert "<c>" in promoted.read_xml("w1")

    def test_candidate_is_the_most_caught_up_replica(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        self.commit(router, "a")
        replicas[1].sync()  # r1 is ahead of r0 at selection time
        promoted = supervisor.promote(force=True)
        assert promoted.database is replicas[1].database
        assert replicas[1] not in router.replicas

    def test_survivors_retarget_onto_the_new_log(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        for label in ("a", "b"):
            self.commit(router, label)
        replicas[1].sync()
        promoted = supervisor.promote(force=True)
        survivor = router.replicas[0]
        assert survivor.directory == promoted.database.wal.directory
        self.commit(router, "fresh")
        survivor.sync()
        assert state_bytes(survivor.database) == state_bytes(
            promoted.database
        )
        assert survivor.stats()["retargets"] == 1

    def test_deposed_primary_is_fenced_and_never_acks(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        self.commit(router, "a")
        supervisor.promote(force=True)
        assert server.fenced and server.fenced_at == 1
        before = server.database.version
        with pytest.raises(StaleEpochError):
            server.execute("w1", append_script("zombie"))
        assert server.database.version == before
        assert server.stats()["fenced_writes"] == 1
        # Through the router the refusal is counted there too.
        with pytest.raises(StaleEpochError):
            router._primary = server  # a stale reference resurfacing
            router.execute("w1", append_script("zombie"))
        assert router.stats()["fenced_writes"] >= 1

    def test_no_eligible_replica_raises(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        for replica in list(router.replicas):
            router.remove_replica(replica)
        with pytest.raises(FailoverError) as info:
            supervisor.promote(force=True)
        assert info.value.reason == "no-candidate"

    def test_promote_kill_points_leave_the_cluster_unchanged(
        self, cluster
    ):
        server, replicas, router, supervisor, _ = cluster
        self.commit(router, "a")
        for point in ("supervisor-before-promote", "promote-mid-drain"):
            with inject(point):
                with pytest.raises(InjectedFault):
                    supervisor.promote(force=True)
            assert router.primary is server
            assert router.epoch == 0
            assert len(router.replicas) == 2
        # The retried promotion (same call, nothing armed) succeeds.
        promoted = supervisor.promote(force=True)
        assert router.primary is promoted and router.epoch == 1

    def test_demote_rejoins_the_old_primary_as_a_follower(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        self.commit(router, "a")
        promoted = supervisor.promote(force=True)
        follower = supervisor.demote(server)
        assert server.fenced
        assert follower in router.replicas
        self.commit(router, "b")
        follower.sync()
        assert state_bytes(follower.database) == state_bytes(
            promoted.database
        )

    def test_second_promotion_keeps_raising_the_epoch(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        self.commit(router, "a")
        first = supervisor.promote(force=True)
        assert router.epoch == 1
        self.commit(router, "b")
        router.replicas[0].sync()
        second = supervisor.promote(force=True)
        assert router.epoch == 2 and second.epoch == 2
        assert first.fenced


class TestExactlyOnce:
    def test_retry_under_one_key_applies_once(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        first = router.execute(
            "w1", append_script("once"), idempotency_key="k-1"
        )
        assert first.fully_applied
        version = server.database.version
        replay = router.execute(
            "w1", append_script("once"), idempotency_key="k-1"
        )
        assert replay.deduped and replay.version == version
        assert server.database.version == version
        assert server.stats()["dedup_hits"] == 1

    def test_dedup_ledger_survives_promotion(self, cluster):
        """The unknown-outcome hole, closed: a write the old primary
        acknowledged is re-sent (same key) to the promoted primary and
        answered from the rebuilt ledger, not applied again."""
        server, replicas, router, supervisor, _ = cluster
        acked = router.execute(
            "w1", append_script("keyed"), idempotency_key="k-9"
        )
        assert acked.fully_applied
        promoted = supervisor.promote(force=True)
        state = state_bytes(promoted.database)
        replay = router.execute(
            "w1", append_script("keyed"), idempotency_key="k-9"
        )
        assert replay.deduped
        assert replay.version == acked.version if hasattr(
            acked, "version"
        ) else True
        assert state_bytes(promoted.database) == state
        assert promoted.stats()["dedup_hits"] == 1

    def test_different_keys_apply_independently(self, cluster):
        server, _, router, _, _ = cluster
        router.execute("w1", append_script("x"), idempotency_key="a")
        router.execute("w1", append_script("x"), idempotency_key="b")
        assert server.read_xml("w1").count("<x>") == 2


class TestStatsSurfaces:
    """Satellite 1: the new stats fields, deep-copied and thread-safe."""

    def test_router_stats_fields(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        stats = router.stats()
        assert stats["epoch"] == 0
        assert stats["promotions"] == 0
        assert stats["fenced_writes"] == 0
        assert stats["primary_epoch"] == 0
        assert stats["primary_fenced"] is False
        for member in stats["replicas"]:
            assert member["last_heartbeat_ms"] >= 0.0
            assert member["epoch"] == 0
            assert "fenced_records" in member

    def test_server_stats_fields(self, cluster):
        server, _, _, _, _ = cluster
        stats = server.stats()
        assert stats["epoch"] == 0
        assert stats["fenced"] is False
        assert stats["fenced_at"] is None
        assert stats["dedup_size"] == 0
        assert stats["dedup_capacity"] == 1024

    def test_stats_snapshots_are_deep_copies(self, cluster):
        server, replicas, router, _, _ = cluster
        snapshot = router.stats()
        snapshot["replicas"][0]["records_applied"] = 10**9
        snapshot["epoch"] = 42
        fresh = router.stats()
        assert fresh["epoch"] == 0
        assert fresh["replicas"][0]["records_applied"] < 10**9

    def test_stats_are_thread_safe_under_write_load(self, cluster):
        server, replicas, router, supervisor, _ = cluster
        stop = threading.Event()
        seen = []

        def worker(i):
            if i == 0:
                for n in range(10):
                    router.execute("w1", append_script(f"t{n}"))
                stop.set()
            else:
                while not stop.is_set():
                    seen.append(router.stats()["epoch"])
                    supervisor.heartbeat()

        errors = run_threads(worker, 3)
        assert not any(errors)
        assert all(epoch == 0 for epoch in seen)

    def test_supervisor_stats(self, cluster):
        server, _, router, supervisor, _ = cluster
        supervisor.heartbeat()
        stats = supervisor.stats()
        assert stats["probes"] == 1
        assert stats["promotions"] == 0
        assert stats["epoch"] == 0
        assert stats["last_reasons"] == []
        supervisor.promote(force=True)
        assert supervisor.stats()["promotions"] == 1


class TestReplicaFencing:
    def test_stale_epoch_record_quarantines_the_replica(self, tmp_path):
        """A replica that has seen epoch N refuses any lower-epoch
        record -- the shipped-log face of fencing."""
        wal_dir = str(tmp_path / "p.wal")
        db = editors_database()
        wal = WriteAheadLog(wal_dir)
        db.attach_wal(wal)
        wal.checkpoint(db)
        replica = Replica(wal_dir)
        # Smuggle an epoch regression into the log (an epoch-0 log
        # stamps nothing, so the payload's own fields survive).
        wal.append({"kind": "update", "epoch": 2, "user": "w1",
                    "script": append_script("a"),
                    "version": db.version + 1})
        wal.append({"kind": "update", "epoch": 1, "user": "w1",
                    "script": append_script("b"),
                    "version": db.version + 2})
        with pytest.raises(ReplicaDiverged):
            replica.sync()
        assert replica.quarantined
        assert replica.stats()["fenced_records"] == 1
        assert replica.epoch == 2
