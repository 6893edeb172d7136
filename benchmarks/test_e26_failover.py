"""E26 (added): what supervised failover costs, phase by phase.

Two questions the failover supervisor raises:

**Detection -> promotion -> first-serve latency vs candidate lag.**
A promotion drains the chosen replica to the reachable end of the dead
primary's log before it may take over, so the dominant cost is replay
distance at the moment of the crash.  Rows break the cycle into its
phases -- the failure-detector verdict, the drain + promote sequence,
and the first request served by the new primary -- for candidates 0,
40 and 160 records behind.  The invariant behind the numbers: the
promoted primary stands at exactly the deposed primary's last
acknowledged version, whatever the lag was.

**Promotion cost vs dedup-ledger size.**  The exactly-once ledger is
carried over by seeding the new server from the candidate's rebuilt
table, so its (bounded) size is part of the switchover bill.  Rows
time a forced switchover under 0, 256 and 1024 keyed commits and
assert a post-failover retry is answered from the carried ledger, not
re-applied.

The smoke variant (``-k smoke``) runs the same invariants at toy sizes
with no timing bars, so the lane stays meaningful on loaded CI
machines.
"""

import shutil
import time

from conftest import print_series, synthetic_hospital

from repro.errors import StaleEpochError
from repro.faults import faults
from repro.replication import FailoverSupervisor, Replica, ReplicationRouter
from repro.serving import DatabaseServer
from repro.wal import WriteAheadLog
from repro.xupdate import UpdateContent

PATIENTS = 60
LAG_SIZES = (0, 40, 160)
LEDGER_SIZES = (0, 256, 1024)


def committed_stream(db, commits, offset=0):
    """Apply ``commits`` deterministic diagnosis updates (each is one
    WAL record)."""
    for index in range(offset, offset + commits):
        db.admin_update(
            UpdateContent(
                f"//patient{index % PATIENTS:05d}/diagnosis",
                f"angina-{index}",
            )
        )


def build_cluster(tmp_path, label, patients=PATIENTS, replicas=1):
    db = synthetic_hospital(patients)
    wal_dir = str(tmp_path / f"{label}.wal")
    wal = WriteAheadLog(wal_dir, fsync="os")
    db.attach_wal(wal)
    wal.checkpoint(db)
    server = DatabaseServer(db)
    pool = [Replica(wal_dir) for _ in range(replicas)]
    # max_wait=0: a routed read never waits out replica lag, so the
    # first-serve phase times the new primary, not a routing budget.
    router = ReplicationRouter(server, pool, max_wait=0.0)
    supervisor = FailoverSupervisor(
        router,
        promote_dir=str(tmp_path / f"{label}.promoted"),
        heartbeat_timeout_ms=0.0,
        fsync="os",
    )
    return db, wal, wal_dir, server, router, supervisor


def kill_primary(db):
    """Tear one commit mid-record: the WAL writer is poisoned and the
    interrupted write was never acknowledged."""
    faults.arm("wal-mid-record", after=0)
    try:
        db.admin_update(UpdateContent("//patient00000/diagnosis", "torn"))
    except Exception:
        pass
    finally:
        faults.disarm()


def test_e26_failover_latency_vs_candidate_lag(tmp_path):
    rows = [("candidate lag", "detect ms", "promote ms",
             "first-serve ms", "total ms")]
    for lag in LAG_SIZES:
        db, wal, wal_dir, server, router, supervisor = build_cluster(
            tmp_path, f"lag{lag}"
        )
        committed_stream(db, 10)
        (replica,) = router.replicas
        replica.sync()
        committed_stream(db, lag, offset=10)  # the candidate's deficit
        assert replica.lag() == lag
        acked_version = db.version
        kill_primary(db)

        started = time.perf_counter()
        supervisor.heartbeat()
        assert supervisor.primary_failed
        detected = time.perf_counter()
        promoted = supervisor.promote()
        promoted_at = time.perf_counter()
        assert router.query("laporte", "count(//diagnosis)") is not None
        served = time.perf_counter()

        # No acknowledged write was lost, and the torn (unacked) one
        # did not sneak in: the new primary stands at exactly the last
        # acknowledged version.
        assert promoted.database.version == acked_version
        assert router.epoch == 1
        rows.append((
            f"{lag} records",
            f"{(detected - started) * 1000:.2f}",
            f"{(promoted_at - detected) * 1000:.2f}",
            f"{(served - promoted_at) * 1000:.2f}",
            f"{(served - started) * 1000:.2f}",
        ))
        shutil.rmtree(wal_dir)
    print_series("E26 failover latency vs candidate lag", rows)


def test_e26_promotion_cost_vs_dedup_ledger(tmp_path):
    rows = [("keyed commits", "carried entries", "switchover ms")]
    for keyed in LEDGER_SIZES:
        db, wal, wal_dir, server, router, supervisor = build_cluster(
            tmp_path, f"led{keyed}", patients=20
        )
        for index in range(keyed):
            with wal.annotate(idem=f"req-{index}"):
                db.admin_update(
                    UpdateContent(
                        f"//patient{index % 20:05d}/diagnosis",
                        f"keyed-{index}",
                    )
                )
        started = time.perf_counter()
        promoted = supervisor.promote(force=True)  # planned switchover
        elapsed = time.perf_counter() - started
        assert len(promoted.dedup) == min(keyed, 1024)
        if keyed:
            # A retried key is answered from the carried ledger: no
            # reapplication, the version is the original commit's.
            before = promoted.database.version
            replay = promoted.execute(
                "laporte",
                UpdateContent("//patient00000/diagnosis", "ignored"),
                idempotency_key=f"req-{keyed - 1}",
            )
            assert replay.deduped
            assert promoted.database.version == before
        rows.append((keyed, len(promoted.dedup), f"{elapsed * 1000:.2f}"))
        shutil.rmtree(wal_dir)
    print_series("E26 promotion cost vs dedup ledger", rows)


def test_e26_smoke_failover_invariants(tmp_path):
    """Counter-only smoke: detect, promote, fence, dedup -- no bars."""
    db, wal, wal_dir, server, router, supervisor = build_cluster(
        tmp_path, "smoke", patients=8, replicas=2
    )
    committed_stream(db, 4, offset=0)
    with wal.annotate(idem="smoke-key"):
        db.admin_update(UpdateContent("//patient00001/diagnosis", "keyed"))
    acked_version = db.version
    kill_primary(db)
    supervisor.heartbeat()
    assert supervisor.primary_failed
    promoted = supervisor.promote()
    # acked writes survived; the deposed primary can never ack again
    assert promoted.database.version == acked_version
    try:
        server.execute(
            "laporte", UpdateContent("//patient00000/diagnosis", "zombie")
        )
        raise AssertionError("a fenced primary acknowledged a write")
    except StaleEpochError:
        pass
    # the retried key is deduplicated on the new primary
    replay = promoted.execute(
        "laporte",
        UpdateContent("//patient00001/diagnosis", "ignored"),
        idempotency_key="smoke-key",
    )
    assert replay.deduped
    assert promoted.database.version == acked_version
    # the surviving replica follows the new log
    (survivor,) = router.replicas
    survivor.sync()
    assert survivor.version == promoted.database.version
