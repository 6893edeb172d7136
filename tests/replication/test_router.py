"""ReplicationRouter: write routing, read-your-writes, failover."""

import pytest

from repro.faults import faults
from repro.replication import Replica, ReplicationRouter
from repro.serving import DatabaseServer

from .conftest import append_script, state_bytes


@pytest.fixture(autouse=True)
def clean_injector():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def stack(primary):
    """primary server + two replicas + tracing router."""
    server = DatabaseServer(primary)
    replicas = [Replica(primary.wal.directory) for _ in range(2)]
    router = ReplicationRouter(server, replicas, trace=True)
    return server, replicas, router


class TestRouting:
    def test_writes_always_go_to_the_primary(self, primary, stack):
        server, replicas, router = stack
        router.execute("w1", append_script("a"))
        assert primary.version == 1
        assert all(r.version == 0 for r in replicas)  # not yet shipped
        assert router.stats()["writes_routed"] == 1

    def test_fresh_replica_serves_the_read(self, primary, stack):
        server, replicas, router = stack
        xml = router.read_xml("w2")  # never wrote: any copy is fine
        assert "entry" in xml
        stats = router.stats()
        assert stats["reads_to_replicas"] == 1
        assert stats["reads_to_primary"] == 0

    def test_read_your_writes_waits_out_the_lag(self, primary, stack):
        server, replicas, router = stack
        router.execute("w1", append_script("a"))
        assert all(r.version == 0 for r in replicas)
        xml = router.read_xml("w1")
        assert ">x<" in xml  # the write is visible to its author
        decision = router.decisions[-1]
        assert decision.served_version >= decision.token == 1

    def test_every_decision_satisfies_read_your_writes(
        self, primary, stack
    ):
        server, replicas, router = stack
        for i in range(5):
            router.execute("w1", append_script(f"s{i}"))
            router.read_xml("w1")
            router.read_xml("w2")
        for decision in router.decisions:
            assert decision.served_version >= decision.token

    def test_zero_wait_falls_through_to_the_primary(self, primary, stack):
        server, replicas, router = stack
        router._max_wait = 0  # never wait: lag -> primary immediately
        router._poll_replicas = False
        router.execute("w1", append_script("a"))
        xml = router.read_xml("w1")
        assert ">x<" in xml
        stats = router.stats()
        assert stats["reads_to_primary"] == 1
        assert router.decisions[-1].source == "primary"

    def test_reads_advance_the_token_monotonically(self, primary, stack):
        server, replicas, router = stack
        assert router.token("w2") == 0
        router.execute("w1", append_script("a"))
        for replica in replicas:
            replica.sync()
        router.read_xml("w2")
        # w2 saw version 1: their token pins monotonic reads there.
        assert router.token("w2") == 1

    def test_deadline_overrides_the_default_budget(self, primary, stack):
        server, replicas, router = stack
        router._poll_replicas = False  # lag can never clear
        router.execute("w1", append_script("a"))
        router.read_xml("w1", deadline=0)
        assert router.decisions[-1].source == "primary"


class TestFailover:
    def rot(self, replica):
        from repro.xmltree import NodeKind

        doc = replica.database.document
        doc.append_child(doc.root, NodeKind.ELEMENT, "rot")

    def test_quarantined_replica_is_never_picked(self, primary, stack):
        server, replicas, router = stack
        self.rot(replicas[0])
        primary.wal.checkpoint(primary)
        for replica in replicas:
            try:
                replica.sync()
            except Exception:
                pass
        assert replicas[0].quarantined and not replicas[1].quarantined
        for _ in range(5):
            router.read_xml("w2")
        sources = {d.source for d in router.decisions}
        assert replicas[0].replica_id not in sources
        assert router.stats()["quarantine_skips"] > 0

    def test_all_replicas_quarantined_primary_serves(self, primary, stack):
        server, replicas, router = stack
        for replica in replicas:
            self.rot(replica)
        primary.wal.checkpoint(primary)
        for replica in replicas:
            try:
                replica.sync()
            except Exception:
                pass
        assert all(r.quarantined for r in replicas)
        xml = router.read_xml("w1")
        assert "entry" in xml
        assert router.decisions[-1].source == "primary"

    def test_reseeded_replica_rejoins_the_pool(self, primary, stack):
        server, replicas, router = stack
        self.rot(replicas[0])
        primary.wal.checkpoint(primary)
        for replica in replicas:
            try:
                replica.sync()
            except Exception:
                pass
        replicas[0].catch_up()
        assert not replicas[0].quarantined
        assert state_bytes(replicas[0].database) == state_bytes(primary)

    def test_remove_replica_shrinks_the_pool(self, primary, stack):
        server, replicas, router = stack
        router.remove_replica(replicas[0])
        assert router.replicas == (replicas[1],)


class TestStats:
    def test_stats_surface_lag_and_health(self, primary, stack):
        server, replicas, router = stack
        router.execute("w1", append_script("a"))
        stats = router.stats()
        assert stats["replica_count"] == 2
        assert stats["max_lag"] == 1  # neither replica polled yet
        assert stats["primary_version"] == 1
        for member in stats["replicas"]:
            assert member["lag"] == 1
            assert member["state"] == "following"

    def test_server_stats_expose_wal_failed_state(self, primary, stack):
        server, replicas, router = stack
        stats = server.stats()
        assert stats["wal_attached"] is True
        assert stats["wal_failed"] is None  # healthy log
