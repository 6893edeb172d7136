"""Anti-entropy repair from a healthy peer (ISSUE 10).

A quarantined log cannot fix itself -- the bytes are gone from this
disk, but not from the cluster.  These suites prove
:func:`~repro.replication.repair_from_peer` converges a damaged
directory to the peer's byte-identical state, refuses the repairs that
would spread rot, survives disk faults mid-copy without making things
worse, and that a repaired node really rejoins: recovery is clean and
the log re-opens for appending.  The seeded soak at the bottom is the
``make scrub`` lane's workhorse: randomized schedules of writes, disk
faults, bit rot, scrubbing and repair, asserting the invariants the
whole subsystem promises (no acked write lost, corruption never
served, repair converges, faults never crash the server).
"""

import os
import random
import shutil

import pytest

from repro.errors import RepairError, ReproError, WalCorruptionError
from repro.faults import faults as disk
from repro.replication import repair_from_peer
from repro.scrub import Scrubber, scrub_directory
from repro.serving import DatabaseServer
from repro.storage import state_digest
from repro.testing.diskfaults import flip_bit
from repro.wal import QUARANTINE_SUFFIX, WriteAheadLog, recover

from .conftest import append_script, editors_database, state_bytes

pytestmark = pytest.mark.scrub


@pytest.fixture(autouse=True)
def clean_disk():
    disk.reset()
    yield
    disk.reset()


def segment_paths(wal_dir):
    return sorted(
        os.path.join(wal_dir, name)
        for name in os.listdir(wal_dir)
        if name.startswith("segment-") and name.endswith(".wal")
    )


def build_pair(tmp_path, commits=4):
    """A closed primary directory and a byte-identical healthy peer."""
    wal_dir = str(tmp_path / "primary.wal")
    db = editors_database()
    wal = WriteAheadLog(wal_dir)
    db.attach_wal(wal)
    wal.checkpoint(db)
    for i in range(commits):
        db.login("w1").execute(append_script(f"entry{i}"))
    expected = state_bytes(db)
    db.detach_wal().close()
    peer_dir = str(tmp_path / "peer.wal")
    shutil.copytree(wal_dir, peer_dir)
    return wal_dir, peer_dir, expected


def damage(wal_dir):
    """Non-tail corruption in the last segment (an intact record
    follows the flipped payload byte), then scrub to quarantine it."""
    last = segment_paths(wal_dir)[-1]
    flip_bit(last, 20, bit=1)
    report = scrub_directory(wal_dir)
    assert report.quarantined
    return last


class TestRepairConvergence:
    def test_repair_converges_to_the_peer_byte_identical(self, tmp_path):
        wal_dir, peer_dir, expected = build_pair(tmp_path)
        damage(wal_dir)
        with pytest.raises(WalCorruptionError):
            recover(wal_dir, strict=True)  # corruption is never served

        report = repair_from_peer(wal_dir, peer_dir)
        assert report.state_verified
        assert report.segments_copied == len(segment_paths(peer_dir))
        assert report.checkpoints_copied >= 1
        assert report.bytes_copied > 0

        result = recover(wal_dir, strict=True)  # strict: no damage left
        assert result.report.clean
        assert state_bytes(result.database) == expected
        peer_state = state_bytes(recover(peer_dir).database)
        assert state_bytes(result.database) == peer_state
        digest = state_digest(
            result.database.document,
            result.database.subjects,
            result.database.policy,
        )
        assert digest == report.digest

    def test_displaced_damage_is_kept_for_forensics(self, tmp_path):
        wal_dir, peer_dir, _ = build_pair(tmp_path)
        damaged_segment = damage(wal_dir)
        report = repair_from_peer(wal_dir, peer_dir)
        assert report.damaged_dir
        assert os.path.isdir(report.damaged_dir)
        moved = set(report.moved_aside)
        assert os.path.basename(damaged_segment) in moved
        assert os.path.basename(damaged_segment) + QUARANTINE_SUFFIX in moved
        # the displaced files are really there, out of the listings
        for name in moved:
            assert os.path.exists(os.path.join(report.damaged_dir, name))
        assert not any(
            name.endswith(QUARANTINE_SUFFIX)
            for name in os.listdir(wal_dir)
        )

    def test_repaired_directory_reopens_for_appending(self, tmp_path):
        wal_dir, peer_dir, _ = build_pair(tmp_path)
        damage(wal_dir)
        repair_from_peer(wal_dir, peer_dir)
        result = recover(wal_dir)
        db = result.database
        db.attach_wal(WriteAheadLog(wal_dir))
        db.login("w2").execute(append_script("after_repair"))
        expected = state_bytes(db)
        db.detach_wal().close()
        replayed = recover(wal_dir, strict=True)
        assert state_bytes(replayed.database) == expected

    def test_repair_reseeds_an_empty_directory(self, tmp_path):
        _, peer_dir, expected = build_pair(tmp_path)
        fresh = str(tmp_path / "fresh.wal")
        os.makedirs(fresh)
        report = repair_from_peer(fresh, peer_dir)
        assert report.moved_aside == []
        assert report.damaged_dir == ""
        assert state_bytes(recover(fresh, strict=True).database) == expected


class TestRepairRefusals:
    def test_self_repair_is_refused(self, tmp_path):
        wal_dir, _, _ = build_pair(tmp_path)
        with pytest.raises(RepairError) as excinfo:
            repair_from_peer(wal_dir, wal_dir)
        assert excinfo.value.reason == "self-repair"

    def test_damaged_peer_is_refused(self, tmp_path):
        wal_dir, peer_dir, _ = build_pair(tmp_path)
        damage(wal_dir)
        flip_bit(segment_paths(peer_dir)[-1], 20, bit=1)  # peer rots too
        with pytest.raises(RepairError) as excinfo:
            repair_from_peer(wal_dir, peer_dir)
        assert excinfo.value.reason == "peer-damaged"
        # nothing changed: the damaged directory still holds only the
        # quarantined original
        assert any(
            name.endswith(QUARANTINE_SUFFIX) for name in os.listdir(wal_dir)
        )

    def test_copy_fault_leaves_the_directory_unchanged(self, tmp_path):
        wal_dir, peer_dir, _ = build_pair(tmp_path)
        damage(wal_dir)
        before = sorted(os.listdir(wal_dir))
        disk.arm("write", "eio", match=".repair-staging")
        with pytest.raises(RepairError) as excinfo:
            repair_from_peer(wal_dir, peer_dir)
        assert excinfo.value.reason == "copy-failed"
        assert sorted(os.listdir(wal_dir)) == before  # staging cleaned up
        # the fault was transient; the same repair now succeeds
        repair_from_peer(wal_dir, peer_dir)
        assert recover(wal_dir, strict=True).report.clean


# ---------------------------------------------------------------------------
# the seeded disk-fault soak (the `make scrub` lane runs 200+ seeds)
# ---------------------------------------------------------------------------
SOAK_SEEDS = int(os.environ.get("REPRO_SCRUB_SOAK_SEEDS", "20"))

FAULTS = [
    ("write", "enospc"),
    ("write", "eio"),
    ("fsync", "eio"),
    ("fsync", "enospc"),
    ("write", "short"),
]


@pytest.mark.parametrize("seed", range(SOAK_SEEDS))
def test_disk_fault_soak(tmp_path, seed):
    """One randomized schedule of writes, injected disk faults, bit
    rot, scrubbing and repair.  Invariants, whatever the schedule:

    - an injected fault never crashes the server (every failure is a
      typed :class:`ReproError`);
    - no write acknowledged while the log was attached is ever lost;
    - quarantined corruption is never served by strict recovery;
    - repair from the healthy peer converges to byte-identical state.
    """
    rng = random.Random(seed)
    wal_dir = str(tmp_path / "primary.wal")
    db = editors_database()
    wal = WriteAheadLog(wal_dir, fsync="os", segment_bytes=512)
    server = DatabaseServer(db, wal=wal, sleep=lambda _s: None)
    wal.checkpoint(db)

    acked_durable = []
    for i in range(8):
        label = f"soak{i}"
        if rng.random() < 0.4:
            op, err = rng.choice(FAULTS)
            disk.arm(op, err, match=".wal")
        try:
            server.execute("w1", append_script(label))
        except ReproError:
            pass  # shed, refused, degraded -- all acceptable outcomes
        except BaseException as exc:  # pragma: no cover - the invariant
            pytest.fail(f"seed {seed}: fault crashed the server: {exc!r}")
        else:
            if server.stats()["wal_attached"]:
                acked_durable.append(label)
        disk.reset()  # unfired faults must not leak into the next op

    if db.wal is not None:
        db.detach_wal()
    wal.close()
    # a failed injected append may have left a torn tail; re-opening
    # the log truncates it (the torn-tail rule), leaving a healthy
    # directory to copy the peer from
    WriteAheadLog(wal_dir, fsync="os").close()

    # the healthy peer: a copy taken before the bit rot below
    peer_dir = str(tmp_path / "peer.wal")
    shutil.copytree(wal_dir, peer_dir)
    peer_state = state_bytes(recover(peer_dir).database)
    for label in acked_durable:
        assert f"<{label}>" in peer_state, (
            f"seed {seed}: acked durable write {label} lost"
        )

    # bit rot lands somewhere random; scrub decides what it means
    segments = segment_paths(wal_dir)
    victim = rng.choice(segments)
    offset = rng.randrange(os.path.getsize(victim))
    flip_bit(victim, offset, bit=rng.randrange(8))
    report = scrub_directory(wal_dir, deep=True)
    if report.quarantined:
        with pytest.raises(WalCorruptionError):
            recover(wal_dir, strict=True)  # corruption is never served

    # anti-entropy repair must always converge to the peer, whether the
    # flip quarantined a segment, tore the tail, or hit dead bytes
    repair_from_peer(wal_dir, peer_dir)
    repaired = recover(wal_dir, strict=True)
    assert repaired.report.clean
    assert state_bytes(repaired.database) == peer_state
    assert Scrubber(wal_dir, deep=True).run().clean
