"""E22 (added): the cost of durability and the speed of recovery.

Two questions the write-ahead log raises:

**Commit latency.**  Write-ahead logging puts an append -- and, under
fsync policy ``always``, an fsync -- on every commit's critical path.
Rows compare per-commit latency with no log, ``os`` (append only),
a group of 8 (``always``, but 8 commits inside one
:meth:`~repro.wal.WriteAheadLog.group` window share one
``sync_group()`` fsync -- what group commit does for a served write)
and ``always`` (a commit acknowledged is a commit recovered), over the
same update stream.  The invariant behind the numbers: whatever the
durability, a clean shutdown recovers to exactly the live version.

**Recovery time.**  Replay cost grows with the un-checkpointed suffix
of the log, which is precisely what checkpointing bounds: recovering a
log of N commits is compared with recovering the same history after a
checkpoint (replay starts at the snapshot; the records before it are
dead weight on disk, not replay work).

The smoke variant (``-k smoke``) runs the same invariants at toy sizes
with no timing bars, so the lane stays meaningful on loaded CI
machines.
"""

import shutil
import time

from conftest import print_series, synthetic_hospital

from repro.wal import WriteAheadLog, recover
from repro.xupdate import UpdateContent

PATIENTS = 100
COMMITS = 60
REPLAY_SIZES = (20, 80, 240)

ILLNESS = "angina"


def committed_stream(db, commits, start=0):
    """Apply ``commits`` deterministic diagnosis updates through the
    unsecured admin path (each is one WAL record)."""
    for index in range(start, start + commits):
        db.admin_update(
            UpdateContent(
                f"//patient{index % PATIENTS:05d}/diagnosis",
                f"{ILLNESS}-{index}",
            )
        )


def grouped_stream(db, wal, commits, group):
    """``committed_stream`` in groups of ``group`` commits, each inside
    one ``wal.group()`` window closed by its one ``sync_group()``."""
    for start in range(0, commits, group):
        with wal.group():
            committed_stream(db, min(group, commits - start), start)
        wal.sync_group()


def timed_commits(tmp_path, label, fsync, commits=COMMITS, group=None):
    """Per-commit latency with the given durability (committed in
    groups of ``group`` when set), plus the recovery invariant check;
    returns (label, mean ms, fsyncs)."""
    db = synthetic_hospital(PATIENTS)
    wal_dir = str(tmp_path / f"{label}.wal")
    fsyncs = 0
    baseline = 0
    if fsync is not None:
        wal = WriteAheadLog(wal_dir, fsync=fsync)
        db.attach_wal(wal)
        wal.checkpoint(db)
        baseline = wal.stats["fsyncs"]  # checkpointing fsyncs regardless
    started = time.perf_counter()
    if group:
        grouped_stream(db, wal, commits, group)
    else:
        committed_stream(db, commits)
    elapsed = time.perf_counter() - started
    if fsync is not None:
        fsyncs = wal.stats["fsyncs"] - baseline  # commit-path fsyncs only
        wal.sync()
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.report.clean
        assert result.version == db.version  # nothing acked was lost
        shutil.rmtree(wal_dir)
    return label, elapsed / commits, fsyncs


def test_e22_commit_latency_across_fsync_policies(tmp_path):
    results = [
        timed_commits(tmp_path, "no-wal", None),
        timed_commits(tmp_path, "os", "os"),
        timed_commits(tmp_path, "group of 8", "always", group=8),
        timed_commits(tmp_path, "always", "always"),
    ]
    rows = [("durability", "commits", "mean ms/commit", "fsyncs")]
    for label, mean, fsyncs in results:
        rows.append((label, COMMITS, f"{mean * 1000:.3f}", fsyncs))
    print_series("E22 commit latency vs durability", rows)
    by_label = {label: fsyncs for label, _mean, fsyncs in results}
    # the policies did what they promise on the fsync axis
    assert by_label["always"] >= COMMITS
    assert by_label["group of 8"] == -(-COMMITS // 8)  # one per group
    assert by_label["os"] == 0  # commits themselves never fsynced


def recovery_run(tmp_path, commits, checkpointed):
    """Build a log of ``commits`` records and time recovering it."""
    db = synthetic_hospital(PATIENTS)
    wal_dir = str(tmp_path / f"r{commits}-{checkpointed}.wal")
    wal = WriteAheadLog(wal_dir, fsync="os")
    db.attach_wal(wal)
    wal.checkpoint(db)
    committed_stream(db, commits)
    if checkpointed:
        wal.checkpoint(db)
    db.detach_wal().close()
    started = time.perf_counter()
    result = recover(wal_dir)
    elapsed = time.perf_counter() - started
    assert result.report.clean
    assert result.version == commits
    shutil.rmtree(wal_dir)
    return elapsed, result.replayed


def test_e22_checkpoint_bounds_recovery_work(tmp_path):
    rows = [("log", "replayed", "recover ms")]
    replay_times = {}
    for commits in REPLAY_SIZES:
        elapsed, replayed = recovery_run(tmp_path, commits, False)
        assert replayed == commits  # full replay without a checkpoint
        replay_times[commits] = elapsed
        rows.append((f"{commits} commits", replayed, f"{elapsed * 1000:.2f}"))
    elapsed, replayed = recovery_run(tmp_path, REPLAY_SIZES[-1], True)
    rows.append(
        (f"{REPLAY_SIZES[-1]} + checkpoint", replayed,
         f"{elapsed * 1000:.2f}")
    )
    print_series("E22 recovery time vs log length", rows)
    # a checkpoint removes the whole suffix from replay...
    assert replayed == 0
    # ...and recovering from it beats replaying the longest log
    assert elapsed < replay_times[REPLAY_SIZES[-1]]


def test_e22_smoke_durability_invariants(tmp_path):
    """Counter-only smoke: every durability recovers to the live
    version."""
    for label, fsync, group in (("os", "os", None), ("group", "always", 4),
                                ("always", "always", None)):
        db = synthetic_hospital(10)
        wal_dir = str(tmp_path / f"s-{label}.wal")
        wal = WriteAheadLog(wal_dir, fsync=fsync)
        db.attach_wal(wal)
        wal.checkpoint(db)
        if group:
            grouped_stream(db, wal, 5, group)
        else:
            committed_stream(db, 5)
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.report.clean
        assert result.version == 5


def test_e22_smoke_checkpoint_cuts_replay(tmp_path):
    db = synthetic_hospital(10)
    wal_dir = str(tmp_path / "s-ckpt.wal")
    wal = WriteAheadLog(wal_dir, fsync="os")
    db.attach_wal(wal)
    wal.checkpoint(db)
    committed_stream(db, 6)
    wal.checkpoint(db)
    db.detach_wal().close()
    result = recover(wal_dir)
    assert result.report.clean
    assert result.replayed == 0
    assert result.version == 6
