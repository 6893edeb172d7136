"""The replication convergence lane: seeded chaos schedules.

Each schedule interleaves primary writes, routed reads, replica polls,
checkpoints (with aggressive retention, so genuine stream gaps occur)
and random kill-point arming -- replicas die mid-replay, mid-stream
and mid-catch-up, some are replaced by fresh processes over the same
directory.  Same seed, same schedule.

The invariants, asserted on every seed:

1. **Convergence**: after the dust settles, every surviving replica
   stands at the primary's exact version with byte-identical
   serialized state (document, subjects, policy -- the same bytes a
   checkpoint snapshot would write).
2. **Read-your-writes, per request**: every routed read's served
   version is >= the caller's token at admission (checked against the
   router's decision trace, not just the final state).
3. **Diverged replicas never serve**: in the divergence schedules, no
   decision names a replica that was quarantined at the time.
"""

import random

import pytest

from repro.errors import ReplicaDiverged
from repro.faults import InjectedFault, faults
from repro.replication import Replica, ReplicationRouter
from repro.serving import DatabaseServer
from repro.wal import WriteAheadLog
from repro.xmltree import NodeKind

from .conftest import USERS, append_script, editors_database, state_bytes

REPLICA_KILL_POINTS = (
    "stream-truncated",
    "replica-before-apply",
    "replica-mid-replay",
)
# Points reached inside recover(): arm these to kill a catch-up.
CATCHUP_KILL_POINTS = ("before-op", "after-op")


@pytest.fixture(autouse=True)
def clean_injector():
    faults.reset()
    yield
    faults.reset()


def build_stack(rng, base, retain=None):
    wal_dir = str(base / "db.wal")
    db = editors_database()
    wal = WriteAheadLog(
        wal_dir,
        retain_checkpoints=retain or rng.choice((1, 2)),
        segment_bytes=rng.choice((256, 4 << 20)),
    )
    db.attach_wal(wal)
    wal.checkpoint(db)
    server = DatabaseServer(db)
    replicas = [Replica(wal_dir) for _ in range(rng.choice((1, 2)))]
    router = ReplicationRouter(server, replicas, trace=True)
    return db, wal, wal_dir, router


def chaos_poll(rng, router, replica, wal_dir, kill_rate):
    """Poll one replica, maybe killing it at a random replication
    kill-point; a killed replica either retries in place (the same
    process survives the fault) or is replaced by a fresh process over
    the same directory (restart = catch-up from the log alone)."""
    armed = rng.random() < kill_rate
    if armed:
        faults.arm(rng.choice(REPLICA_KILL_POINTS), after=rng.randint(0, 2))
    try:
        replica.poll()
    except InjectedFault:
        if rng.random() < 0.5:
            router.remove_replica(replica)
            replica = Replica(wal_dir)
            router.add_replica(replica)
    finally:
        faults.disarm()
    return replica


def chaos_catch_up(rng, router, replica, wal_dir, kill_rate):
    """Force a full catch-up, maybe killing it mid-recovery; a killed
    catch-up is retried clean (crash-during-restart, restart again)."""
    if rng.random() < kill_rate:
        faults.arm(rng.choice(CATCHUP_KILL_POINTS), after=rng.randint(0, 3))
    try:
        replica.catch_up()
    except InjectedFault:
        faults.disarm()
        router.remove_replica(replica)
        replica = Replica(wal_dir)
        router.add_replica(replica)
    finally:
        faults.disarm()
    return replica


def run_schedule(seed, base, kill_rate):
    rng = random.Random(seed)
    db, wal, wal_dir, router = build_stack(rng, base)
    label = 0
    for _ in range(rng.randint(6, 12)):
        action = rng.choice(
            ("write", "write", "read", "read", "poll", "checkpoint",
             "catchup")
        )
        user = rng.choice(USERS)
        if action == "write":
            router.execute(user, append_script(f"s{seed}x{label}"))
            label += 1
        elif action == "read":
            assert router.read_xml(user) is not None
        elif action == "poll" and router.replicas:
            replica = rng.choice(router.replicas)
            chaos_poll(rng, router, replica, wal_dir, kill_rate)
        elif action == "checkpoint":
            wal.checkpoint(db)
        elif action == "catchup" and router.replicas:
            replica = rng.choice(router.replicas)
            chaos_catch_up(rng, router, replica, wal_dir, kill_rate)
    faults.reset()

    # -- invariant 1: every surviving replica converges exactly -------
    expected = state_bytes(db)
    for replica in router.replicas:
        replica.sync()
        assert not replica.quarantined, replica.stats()
        assert replica.version == db.version, (seed, replica.stats())
        assert state_bytes(replica.database) == expected, seed
        for user in USERS:
            assert (
                replica.read_xml(user) == db.login(user).read_xml()
            ), seed
    # -- invariant 2: read-your-writes held on every single read ------
    for decision in router.decisions:
        assert decision.served_version >= decision.token, (seed, decision)
    return router


@pytest.mark.replication
def test_convergence_200_seeded_schedules(tmp_path):
    for seed in range(200):
        run_schedule(seed, tmp_path / f"s{seed}", kill_rate=0.0)


@pytest.mark.replication
def test_convergence_with_replicas_killed_mid_replay(tmp_path):
    for seed in range(60):
        run_schedule(seed, tmp_path / f"k{seed}", kill_rate=0.35)


@pytest.mark.replication
def test_schedules_are_reproducible(tmp_path):
    first = run_schedule(7, tmp_path / "a", kill_rate=0.35)
    second = run_schedule(7, tmp_path / "b", kill_rate=0.35)
    assert [
        (d.user, d.token, d.served_version) for d in first.decisions
    ] == [(d.user, d.token, d.served_version) for d in second.decisions]
    assert first.stats()["writes_routed"] == second.stats()["writes_routed"]


def rot(replica):
    doc = replica.database.document
    doc.append_child(doc.root, NodeKind.ELEMENT, "rot")


@pytest.mark.replication
def test_diverged_replicas_never_serve_across_seeds(tmp_path):
    """Divergence chaos: one replica silently rots mid-schedule; after
    the next checkpoint ships, it must quarantine -- and from that
    moment no routed read may come from it, on any seed."""
    for seed in range(40):
        rng = random.Random(seed)
        # Generous retention: the victim's stream position is never
        # pruned, so a gap-driven re-seed cannot silently heal the rot
        # before a checkpoint digest gets to expose it.
        db, wal, wal_dir, router = build_stack(
            rng, tmp_path / f"d{seed}", retain=50
        )
        victim = rng.choice(router.replicas)
        label = 0
        rotted = quarantined_at = None
        for step in range(rng.randint(6, 10)):
            action = rng.choice(("write", "read", "poll", "checkpoint"))
            user = rng.choice(USERS)
            if action == "write":
                router.execute(user, append_script(f"d{seed}x{label}"))
                label += 1
            elif action == "read":
                router.read_xml(user)
            elif action == "poll":
                replica = rng.choice(router.replicas)
                try:
                    replica.poll()
                except ReplicaDiverged:
                    assert replica is victim
                    quarantined_at = len(router.decisions)
            elif action == "checkpoint":
                wal.checkpoint(db)
            if rotted is None and step >= 2:
                rot(victim)
                rotted = step
        # Ship one more checkpoint and drain: the rot cannot survive
        # undetected past a digest comparison.
        wal.checkpoint(db)
        try:
            victim.sync()
        except ReplicaDiverged:
            quarantined_at = (
                len(router.decisions)
                if quarantined_at is None
                else quarantined_at
            )
        assert victim.quarantined, seed
        # Invariant 3: nothing was served by the replica after it was
        # quarantined...
        for decision in router.decisions[quarantined_at or 0:]:
            assert decision.source != victim.replica_id, (seed, decision)
        # ...and reads still work, routed around the quarantine.
        assert router.read_xml("w1") is not None
        assert router.decisions[-1].source != victim.replica_id
        # Re-seeding brings it back, converged to the byte.
        victim.catch_up()
        victim.sync()
        assert state_bytes(victim.database) == state_bytes(db), seed


# ---------------------------------------------------------------------
# grouped writes: the WAL-shipping stream under group commit
# ---------------------------------------------------------------------

def run_grouped_schedule(seed, base, kill_rate):
    """The convergence schedule with its writes routed through a
    :class:`~repro.serving.GroupCommitter`: every write action is a
    burst of 1-4 *concurrent* commits batched into shared-fsync groups,
    so the replicas replay a stream whose appends were grouped.  Same
    invariants as :func:`run_schedule`; returns the primary's
    ``grouped_records`` count so callers can assert the groups really
    formed."""
    from repro.serving import GroupCommitter

    from tests.groups import commit_together

    rng = random.Random(seed)
    db, wal, wal_dir, router = build_stack(rng, base)
    committer = GroupCommitter(router.primary, max_batch=4)
    label = 0
    for _ in range(rng.randint(6, 12)):
        action = rng.choice(
            ("write", "write", "read", "read", "poll", "checkpoint",
             "catchup")
        )
        if action == "write":
            # Pre-draw everything on the schedule's rng (the threads
            # must not consume seeded randomness).
            burst = rng.randint(1, 4)
            jobs = [
                (rng.choice(USERS), f"g{seed}x{label + i}")
                for i in range(burst)
            ]
            label += burst
            results = commit_together(committer, [
                (user, append_script(name)) for user, name in jobs
            ])
            assert all(result.fully_applied for result in results), (
                seed, results
            )
        elif action == "read":
            assert router.read_xml(rng.choice(USERS)) is not None
        elif action == "poll" and router.replicas:
            replica = rng.choice(router.replicas)
            chaos_poll(rng, router, replica, wal_dir, kill_rate)
        elif action == "checkpoint":
            wal.checkpoint(db)
        elif action == "catchup" and router.replicas:
            replica = rng.choice(router.replicas)
            chaos_catch_up(rng, router, replica, wal_dir, kill_rate)
    faults.reset()

    expected = state_bytes(db)
    for replica in router.replicas:
        replica.sync()
        assert not replica.quarantined, replica.stats()
        assert replica.version == db.version, (seed, replica.stats())
        assert state_bytes(replica.database) == expected, seed
        for user in USERS:
            assert (
                replica.read_xml(user) == db.login(user).read_xml()
            ), seed
    for decision in router.decisions:
        assert decision.served_version >= decision.token, (seed, decision)
    return router.primary.stats().get("grouped_records", 0)


@pytest.mark.replication
def test_convergence_with_grouped_writes(tmp_path):
    """Replicas converge byte-identically when the primary's commits
    ride group commit -- including schedules where replicas are killed
    mid-replay while grouped appends are in the stream."""
    grouped = 0
    for seed in range(30):
        grouped += run_grouped_schedule(
            seed, tmp_path / f"g{seed}", kill_rate=0.0
        )
    for seed in range(20):
        grouped += run_grouped_schedule(
            seed, tmp_path / f"gk{seed}", kill_rate=0.30
        )
    # The lane is about grouped streams: the schedules must actually
    # have formed multi-member groups somewhere.
    assert grouped > 0
