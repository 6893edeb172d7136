"""The supervised-failover lane: seeded crash-and-promote schedules.

Each schedule runs keyed client traffic against a primary + replicas +
router + supervisor stack, kills the primary mid-commit (torn WAL
record, or -- in the grouped variants -- after the group's fsync but
before any ack: the ``old-primary-late-ack`` window), lets the
supervisor detect and promote, then replays every unknown-outcome
write under its original idempotency key.  Some schedules also crash
the *supervisor* mid-promotion (``supervisor-before-promote``,
``promote-mid-drain``) and simply run ``promote()`` again.  Same seed,
same schedule.

The invariants, asserted on every seed:

1. **No acknowledged write is ever lost**: every write the router
   acknowledged before the crash is present in the promoted primary's
   state (and in every converged survivor).
2. **Exactly-once under client retries**: every label -- acknowledged
   first try or retried across the failover under one idempotency key
   -- appears in the final document exactly once, even when the
   crashed attempt had already made it durable.
3. **A stale-epoch primary never acknowledges**: after promotion every
   write through the deposed server raises ``StaleEpochError`` and
   changes nothing.
4. **Convergence**: surviving replicas retargeted onto the new log end
   at the promoted primary's exact version with byte-identical state.
"""

import random

import pytest

from repro.errors import StaleEpochError
from repro.replication import (
    FailoverSupervisor,
    Replica,
    ReplicationRouter,
)
from repro.faults import InjectedFault, faults
from repro.serving import DatabaseServer, GroupCommitter
from repro.testing.faults import run_threads
from repro.wal import WriteAheadLog
from repro.xmltree.serializer import serialize

from tests.groups import commit_together

from .conftest import USERS, append_script, editors_database, state_bytes

pytestmark = pytest.mark.failover

SUPERVISOR_KILL_POINTS = ("supervisor-before-promote", "promote-mid-drain")
# Group-commit crash windows: before the fsync (durability uncertain)
# and after it but before any member is acknowledged (durable, unacked
# -- the window exactly-once exists for).
GROUP_KILL_POINTS = ("group-before-fsync", "old-primary-late-ack")


@pytest.fixture(autouse=True)
def clean_injector():
    faults.reset()
    yield
    faults.reset()


def build_stack(rng, base):
    wal_dir = str(base / "db.wal")
    db = editors_database()
    wal = WriteAheadLog(
        wal_dir,
        retain_checkpoints=rng.choice((1, 2)),
        segment_bytes=rng.choice((256, 4 << 20)),
    )
    db.attach_wal(wal)
    wal.checkpoint(db)
    server = DatabaseServer(db)
    replicas = [Replica(wal_dir) for _ in range(rng.choice((1, 2)))]
    router = ReplicationRouter(server, replicas, trace=True)
    supervisor = FailoverSupervisor(
        router,
        promote_dir=str(base / "promoted"),
        heartbeat_timeout_ms=0.0,  # schedules drive time, not wall-clock
    )
    return db, wal, server, router, supervisor


def promote_with_crashes(rng, supervisor, kill_rate, *, force=False):
    """Run the promotion, randomly crashing the supervisor at its
    kill-points; a crashed promotion is simply retried -- both points
    fire before any cluster-visible mutation."""
    crashes = 0
    for _ in range(20):
        if kill_rate and rng.random() < kill_rate:
            faults.arm(rng.choice(SUPERVISOR_KILL_POINTS), after=0)
        try:
            return supervisor.promote(force=force), crashes
        except InjectedFault:
            crashes += 1
        finally:
            faults.disarm()
    return supervisor.promote(force=force), crashes


def settle_and_check(seed, router, promoted, acked):
    """The post-failover invariants shared by every schedule."""
    expected = state_bytes(promoted.database)
    for replica in router.replicas:
        replica.sync()
        assert not replica.quarantined, (seed, replica.stats())
        assert replica.version == promoted.database.version, (
            seed,
            replica.stats(),
        )
        assert state_bytes(replica.database) == expected, seed
    document = serialize(promoted.database.document)
    for key, label in acked.items():
        count = document.count(f"<{label}>")
        assert count == 1, (seed, key, label, count)
    for decision in router.decisions:
        assert decision.served_version >= decision.token, (seed, decision)


def run_schedule(seed, base, supervisor_kill_rate=0.0):
    rng = random.Random(seed)
    db, wal, server, router, supervisor = build_stack(rng, base)
    acked = {}  # key -> label: the router acknowledged this write
    unknown = {}  # key -> (user, label): attempt errored mid-crash
    label = 0

    # -- pre-crash traffic -------------------------------------------
    for _ in range(rng.randint(3, 6)):
        action = rng.choice(
            ("write", "write", "read", "poll", "checkpoint")
        )
        user = rng.choice(USERS)
        if action == "write":
            key, name = f"s{seed}k{label}", f"s{seed}x{label}"
            label += 1
            router.execute(
                user, append_script(name), idempotency_key=key
            )
            acked[key] = name
        elif action == "read":
            assert router.read_xml(user) is not None
        elif action == "poll" and router.replicas:
            rng.choice(router.replicas).poll()
        elif action == "checkpoint":
            wal.checkpoint(db)

    # -- kill the primary mid-record on a keyed write ----------------
    user = rng.choice(USERS)
    key, name = f"s{seed}k{label}", f"s{seed}x{label}"
    label += 1
    faults.arm("wal-mid-record", after=0)
    try:
        router.execute(user, append_script(name), idempotency_key=key)
        raise AssertionError(f"seed {seed}: the armed write survived")
    except InjectedFault:
        unknown[key] = (user, name)
    except Exception:
        unknown[key] = (user, name)
    finally:
        faults.disarm()

    # -- detection and (possibly crash-retried) promotion ------------
    supervisor.heartbeat()
    assert supervisor.primary_failed, seed
    promoted, _ = promote_with_crashes(rng, supervisor, supervisor_kill_rate)
    assert router.primary is promoted
    assert promoted.epoch == router.epoch > 0

    # -- invariant 3: the deposed primary never acknowledges ---------
    before = server.database.version
    with pytest.raises(StaleEpochError):
        server.execute(
            "w1", append_script("zombie"), idempotency_key=f"s{seed}z"
        )
    assert server.database.version == before, seed

    # -- client retries every unknown outcome under its original key -
    for key, (retry_user, retry_name) in unknown.items():
        result = router.execute(
            retry_user, append_script(retry_name), idempotency_key=key
        )
        # Deduped (the crashed attempt had landed) or applied fresh:
        # either way it is acknowledged now, and must appear once.
        assert result is not None
        acked[key] = retry_name

    # -- post-failover traffic lands on the new primary --------------
    for _ in range(rng.randint(1, 3)):
        key, name = f"s{seed}k{label}", f"s{seed}x{label}"
        label += 1
        router.execute(
            rng.choice(USERS), append_script(name), idempotency_key=key
        )
        acked[key] = name

    settle_and_check(seed, router, promoted, acked)
    return router


def test_failover_220_seeded_schedules(tmp_path):
    """The core soak: torn-record primary crashes, detection,
    promotion, keyed retries -- across 220 seeds."""
    for seed in range(220):
        run_schedule(seed, tmp_path / f"f{seed}")


def test_failover_with_supervisor_crashed_mid_promotion(tmp_path):
    """60 seeds where the supervisor itself dies at its kill-points
    and the promotion is simply run again."""
    for seed in range(60):
        run_schedule(
            seed, tmp_path / f"sk{seed}", supervisor_kill_rate=0.5
        )


def test_schedules_are_reproducible(tmp_path):
    first = run_schedule(11, tmp_path / "a", supervisor_kill_rate=0.5)
    second = run_schedule(11, tmp_path / "b", supervisor_kill_rate=0.5)
    assert first.stats()["promotions"] == second.stats()["promotions"]
    assert first.stats()["writes_routed"] == second.stats()["writes_routed"]


# ---------------------------------------------------------------------
# grouped commits: the primary dies mid-group
# ---------------------------------------------------------------------

def run_grouped_schedule(seed, base):
    """Kill the primary inside a commit *group* -- either before the
    group's fsync or in the late-ack window after it -- then promote
    and retry every member of the doomed group under its original key.
    The late-ack window is the reason the dedup ledger is replicated:
    the group is durable, replayed by the promoted replica, and the
    retries must be answered from the rebuilt ledger, not re-applied.
    """
    rng = random.Random(seed)
    db, wal, server, router, supervisor = build_stack(rng, base)
    committer = GroupCommitter(server, max_batch=4)
    acked = {}
    unknown = {}
    label = 0

    # Healthy grouped traffic first.
    for _ in range(rng.randint(1, 3)):
        burst = rng.randint(1, 4)
        jobs = [
            (rng.choice(USERS), f"g{seed}k{label + i}", f"g{seed}x{label + i}")
            for i in range(burst)
        ]
        label += burst
        results = commit_together(committer, [
            (user, append_script(name), False, None, key)
            for user, key, name in jobs
        ])
        assert all(result.fully_applied for result in results), (
            seed, results
        )
        for _, key, name in jobs:
            acked[key] = name

    # The doomed group: every member errors, none is acknowledged.
    point = rng.choice(GROUP_KILL_POINTS)
    burst = rng.randint(1, 4)
    jobs = [
        (rng.choice(USERS), f"g{seed}k{label + i}", f"g{seed}x{label + i}")
        for i in range(burst)
    ]
    label += burst
    # The burst must be *one* group: the kill-point is one-shot, so a
    # straggler sealed into a second group would be acknowledged.  Every
    # member takes its ticket before the leader drives, and the group
    # seals by count, never by the clock.
    doomed = GroupCommitter(server, max_batch=burst)
    faults.arm(point, after=0)
    try:
        errors = commit_together(doomed, [
            (user, append_script(name), False, None, key)
            for user, key, name in jobs
        ])
    finally:
        faults.disarm()
    assert all(isinstance(error, Exception) for error in errors), (
        seed, point, errors
    )
    for user, key, name in jobs:
        unknown[key] = (user, name)

    # Planned switchover semantics: the primary "died" after (or
    # during) the fsync, so its stats may still probe clean -- the
    # operator forces the promotion.
    promoted, _ = promote_with_crashes(rng, supervisor, 0.0, force=True)

    # Invariant 3, grouped flavor: the deposed primary's committer
    # refuses the whole next group at the stale epoch.
    (error,) = run_threads(
        lambda i: committer.commit(
            "w1", append_script("zombie"), idempotency_key=f"g{seed}z"
        ),
        1,
    )
    assert isinstance(error, StaleEpochError), (seed, error)

    # Retry the doomed group's members under their original keys.
    deduped = 0
    for key, (retry_user, retry_name) in unknown.items():
        result = router.execute(
            retry_user, append_script(retry_name), idempotency_key=key
        )
        if getattr(result, "deduped", False):
            deduped += 1
        acked[key] = retry_name

    settle_and_check(seed, router, promoted, acked)
    return point, deduped, len(unknown)


def test_failover_mid_group_commit_40_seeds(tmp_path):
    late_ack_members = late_ack_deduped = 0
    for seed in range(40):
        point, deduped, members = run_grouped_schedule(
            seed, tmp_path / f"g{seed}"
        )
        if point == "old-primary-late-ack":
            late_ack_members += members
            late_ack_deduped += deduped
    # In the late-ack window the group *was* durable: the promoted
    # primary replayed it, so every retry must have been answered from
    # the rebuilt dedup ledger -- exactly-once, not reapplication.
    assert late_ack_members > 0
    assert late_ack_deduped == late_ack_members
