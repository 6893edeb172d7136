"""Disk faults on the fault seam and the disk-error taxonomy.

Covers the seam's arming semantics (one-shot, ``after=N``,
``match=`` path filtering), the physical faults it produces (EIO,
ENOSPC, short writes that leave real torn bytes, :func:`flip_bit`),
how the storage and WAL layers classify the resulting ``OSError``s
into :class:`DiskFullError` / :class:`DiskIOError`, and the
:class:`~repro.testing.faults.ChaosRunner` integration that drives the
seeded disk-fault soak.
"""

import errno
import os

import pytest

from repro.errors import (
    DiskError,
    DiskFullError,
    DiskIOError,
    OverloadError,
    ReproError,
    WalCorruptionError,
    WalWriteError,
    classify_disk_error,
)
from repro.faults import DISK_ERRORS, DISK_OPS, FaultSeam, InjectedFault
from repro.faults import faults as disk
from repro.serving import DatabaseServer, GroupCommitter
from repro.storage import load_from_file, save_to_file
from repro.testing.diskfaults import flip_bit
from repro.testing.faults import ChaosRunner
from repro.wal import WriteAheadLog

from tests.wal.conftest import append_script, editors_database

pytestmark = pytest.mark.scrub


@pytest.fixture(autouse=True)
def clean_disk():
    disk.reset()
    yield
    disk.reset()


class TestInjectorArming:
    def test_unarmed_open_is_a_passthrough(self, tmp_path):
        path = tmp_path / "f.txt"
        with disk.open(str(path), "w", encoding="utf-8") as handle:
            handle.write("hello")
        with disk.open(str(path), "r", encoding="utf-8") as handle:
            assert handle.read() == "hello"

    def test_armed_open_raises_with_real_errno(self, tmp_path):
        disk.arm("open", "eio")
        with pytest.raises(OSError) as excinfo:
            disk.open(str(tmp_path / "f.txt"), "w")
        assert excinfo.value.errno == errno.EIO

    def test_faults_are_one_shot(self, tmp_path):
        path = str(tmp_path / "f.txt")
        disk.arm("open", "eio")
        with pytest.raises(OSError):
            disk.open(path, "w")
        with disk.open(path, "w", encoding="utf-8") as handle:
            handle.write("fine now")
        assert disk.injected == [("open", "eio", path)]

    def test_after_lets_n_calls_through(self, tmp_path):
        path = str(tmp_path / "f.txt")
        disk.arm("open", "enospc", after=2)
        disk.open(path, "w").close()
        disk.open(path, "a").close()
        with pytest.raises(OSError) as excinfo:
            disk.open(path, "a")
        assert excinfo.value.errno == errno.ENOSPC

    def test_match_filters_by_path_substring(self, tmp_path):
        disk.arm("open", "eio", match=".wal")
        other = str(tmp_path / "plain.txt")
        disk.open(other, "w").close()  # not eligible: still armed
        assert disk.is_armed("open")
        with pytest.raises(OSError):
            disk.open(str(tmp_path / "seg.wal"), "w")
        assert not disk.is_armed("open")

    def test_armed_context_manager_disarms(self, tmp_path):
        injector = FaultSeam()
        with injector.armed("read", "eio"):
            assert injector.is_armed("read")
        assert not injector.is_armed("read")

    def test_validation(self):
        with pytest.raises(ValueError):
            disk.arm("chmod", "eio")
        with pytest.raises(ValueError):
            disk.arm("write", "exyz")
        with pytest.raises(ValueError):
            disk.arm("read", "short")  # short is write-only
        with pytest.raises(ValueError):
            disk.arm("write", "eio", after=-1)

    def test_ops_and_errors_are_published(self):
        assert set(DISK_OPS) == {"open", "read", "write", "fsync"}
        assert set(DISK_ERRORS) == {"eio", "enospc", "short"}


class TestPhysicalFaults:
    def test_short_write_leaves_partial_bytes(self, tmp_path):
        path = str(tmp_path / "torn.bin")
        disk.arm("write", "short")
        handle = disk.open(path, "wb")
        with pytest.raises(OSError) as excinfo:
            handle.write(b"0123456789")
        handle.close()
        assert excinfo.value.errno == errno.ENOSPC
        data = open(path, "rb").read()
        assert data == b"01234"  # half the buffer really landed

    def test_short_fault_and_kill_point_tear_alike(self, tmp_path):
        """One half-write routine: for the same buffer, a short write
        and a ``point=`` kill-point leave the same flushed first half
        on disk and differ only in what they raise."""
        buffer = b"0123456789abcdef"

        def torn(name, site, *error):
            path = str(tmp_path / name)
            disk.arm(site, *error)
            handle = disk.open(path, "wb")
            with pytest.raises(Exception) as excinfo:
                handle.write(buffer, point="wal-mid-record")
            with open(path, "rb") as raw:  # before close: already flushed
                on_disk = raw.read()
            handle.close()
            return on_disk, excinfo.value

        short_bytes, short_error = torn("short.bin", "write", "short")
        kill_bytes, kill_error = torn("kill.bin", "wal-mid-record")
        assert short_bytes == kill_bytes == b"01234567"
        assert type(short_error) is OSError
        assert short_error.errno == errno.ENOSPC
        assert isinstance(kill_error, InjectedFault)
        assert kill_error.point == "wal-mid-record"

    def test_fsync_fault(self, tmp_path):
        path = str(tmp_path / "f.bin")
        handle = disk.open(path, "wb")
        handle.write(b"x")
        disk.arm("fsync", "eio")
        with pytest.raises(OSError) as excinfo:
            disk.fsync(handle)
        assert excinfo.value.errno == errno.EIO
        handle.close()

    def test_read_fault_on_long_lived_handle(self, tmp_path):
        # The proxy consults faults per call, so a fault armed *after*
        # the handle was opened still fires -- the WAL keeps its
        # segment handle open across appends.
        path = str(tmp_path / "f.bin")
        open(path, "wb").write(b"payload")
        handle = disk.open(path, "rb")
        disk.arm("read", "eio")
        with pytest.raises(OSError):
            handle.read()
        handle.close()

    def test_flip_bit_flips_exactly_one_bit(self, tmp_path):
        path = str(tmp_path / "f.bin")
        open(path, "wb").write(bytes(range(16)))
        flipped = flip_bit(path, 3, bit=2)
        assert flipped == 3
        data = open(path, "rb").read()
        assert data[3] == 3 ^ 0b100
        assert [b for i, b in enumerate(data) if i != 3] == [
            b for i, b in enumerate(bytes(range(16))) if i != 3
        ]

    def test_flip_bit_negative_offset_counts_from_end(self, tmp_path):
        path = str(tmp_path / "f.bin")
        open(path, "wb").write(b"abcd")
        assert flip_bit(path, -1) == 3
        with pytest.raises(ValueError):
            flip_bit(path, 99)


class TestDiskErrorTaxonomy:
    def test_enospc_classifies_as_disk_full(self):
        err = classify_disk_error(
            OSError(errno.ENOSPC, "no space"), path="/x", op="append"
        )
        assert isinstance(err, DiskFullError)
        assert err.path == "/x" and err.op == "append"

    def test_eio_classifies_as_disk_io(self):
        err = classify_disk_error(OSError(errno.EIO, "bad device"))
        assert isinstance(err, DiskIOError)
        assert not isinstance(err, DiskFullError)

    def test_lineage_preserves_oserror_and_reproerror(self):
        err = classify_disk_error(OSError(errno.EIO, "x"))
        assert isinstance(err, DiskError)
        assert isinstance(err, ReproError)
        assert isinstance(err, OSError)  # legacy handlers keep working


class TestStorageClassification:
    def test_save_to_file_maps_enospc(self, tmp_path):
        db = editors_database()
        path = str(tmp_path / "db.xml")
        disk.arm("write", "enospc")
        with pytest.raises(DiskFullError):
            save_to_file(db, path)
        # the temp file was cleaned up and no target appeared
        assert os.listdir(tmp_path) == []

    def test_save_to_file_maps_fsync_eio(self, tmp_path):
        db = editors_database()
        disk.arm("fsync", "eio")
        with pytest.raises(DiskIOError):
            save_to_file(db, str(tmp_path / "db.xml"))

    def test_load_from_file_maps_read_eio(self, tmp_path):
        db = editors_database()
        path = str(tmp_path / "db.xml")
        save_to_file(db, path)
        disk.arm("read", "eio")
        with pytest.raises(DiskIOError):
            load_from_file(path)

    def test_missing_file_stays_a_plain_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            load_from_file(str(tmp_path / "absent.xml"))
        assert not isinstance(excinfo.value, DiskError)


class TestWalClassification:
    def test_append_enospc_carries_disk_full(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        wal.append({"kind": "noop"})
        disk.arm("write", "enospc", match=".wal")
        with pytest.raises(WalWriteError) as excinfo:
            wal.append({"kind": "noop"})
        assert isinstance(excinfo.value.disk, DiskFullError)

    def test_poisoned_log_refusals_keep_the_classification(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        wal.append({"kind": "noop"})
        disk.arm("fsync", "eio", match=".wal")
        with pytest.raises(WalWriteError) as excinfo:
            wal.append({"kind": "noop"})
        assert isinstance(excinfo.value.disk, DiskIOError)
        # the next refusal is the poisoned-state guard, not a new
        # OSError -- it must still say "disk" so the serving layer's
        # sick-disk accounting keeps ticking
        with pytest.raises(WalWriteError) as excinfo:
            wal.append({"kind": "noop"})
        assert isinstance(excinfo.value.disk, DiskIOError)

    def test_reopen_resumes_after_enospc(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        first = wal.append({"kind": "noop"})
        disk.arm("write", "enospc", match=".wal")
        with pytest.raises(WalWriteError):
            wal.append({"kind": "noop"})
        assert wal.failed is not None
        wal.reopen()
        assert wal.failed is None
        assert wal.append({"kind": "noop"}) == first + 1

    def test_reopen_refuses_to_forget_unsynced_appends(self, tmp_path):
        """A group's appends still await its sync when another writer's
        reclaim reopens the log: if their fsync fails, the reopen fails
        and the group's sync refuses -- never True-by-omission."""
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        with wal.group():
            wal.append({"kind": "noop"})
            disk.arm("fsync", "eio", match=".wal")
            with pytest.raises(WalWriteError) as excinfo:
                wal.reopen()
            assert isinstance(excinfo.value.disk, DiskIOError)
            assert wal.failed is not None
            with pytest.raises(WalWriteError):
                wal.sync_group()

    def test_a_reopen_that_cannot_open_the_tail_leaves_the_log_failed(
        self, tmp_path
    ):
        """A full disk refuses the append, then the segment's open on
        the reopen: the log must stay failed -- not closed and healthy --
        and keep saying the disk is full."""
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        wal.append({"kind": "noop"})
        disk.arm("write", "enospc", match=".wal")
        disk.arm("open", "enospc", match=".wal")
        with pytest.raises(WalWriteError):
            wal.append({"kind": "noop"})
        with pytest.raises(WalCorruptionError):
            wal.reopen()
        assert "enospc" in wal.failed
        with pytest.raises(WalWriteError) as refused:
            wal.append({"kind": "noop"})
        assert isinstance(refused.value.disk, DiskFullError)

    def test_a_served_log_whose_reopen_fails_never_detaches(self, tmp_path):
        db = editors_database()
        db.attach_wal(WriteAheadLog(str(tmp_path / "db.wal")))
        db.wal.checkpoint(db)
        server = DatabaseServer(db)
        disk.arm("write", "enospc", match=".wal")
        disk.arm("open", "enospc", match=".wal")
        outcomes = []
        for index in range(5):
            try:
                server.execute("w1", append_script(f"e{index}"))
                outcomes.append("ok")
            except OverloadError:
                outcomes.append("shed")
                assert "enospc" in server.stats()["wal_failed"]
            assert db.wal is not None
            assert server.stats()["wal_degraded"] == 0
        assert outcomes[0] == "shed" and "ok" in outcomes

    def test_fenced_log_refuses_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "db.wal"))
        wal.append({"kind": "noop"})
        wal.fence(wal.epoch + 1)
        with pytest.raises(WalWriteError, match="fenced"):
            wal.reopen()


class TestRotationFsync:
    """Rotation fsyncs the outgoing segment, which still holds a commit
    group's unsynced appends: a refused fsync there is a refused group
    fsync and must poison the log like any other."""

    def test_failed_rotation_fsync_fails_the_group_sync(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "db.wal"), segment_bytes=200)
        disk.arm("fsync", "eio", match="segment-0000000001")
        with wal.group():
            with pytest.raises(WalWriteError) as refused:
                for _ in range(4):
                    wal.append({"kind": "noop", "pad": "x" * 40})
            assert isinstance(refused.value.disk, DiskIOError)
            with pytest.raises(WalWriteError):
                wal.sync_group()
        assert wal.failed is not None

    def test_group_committer_acknowledges_no_member(self, tmp_path):
        db = editors_database()
        wal = WriteAheadLog(str(tmp_path / "db.wal"), segment_bytes=500)
        db.attach_wal(wal)
        committer = GroupCommitter(
            DatabaseServer(db), max_batch=4, max_delay_ms=30.0
        )
        disk.arm("fsync", "eio", match="segment-0000000001")
        tickets = [
            committer.submit("w1", append_script(f"g{i}")) for i in range(4)
        ]
        committer.drive(tickets[0])
        assert disk.injected  # the rotation's fsync was refused
        for ticket in tickets:
            assert ticket.done
            assert ticket.result is None
            assert ticket.error is not None


class TestChaosRunnerIntegration:
    def test_disk_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosRunner(disk_rate=1.5)
        with pytest.raises(ValueError):
            ChaosRunner(disk_rate=0.5)  # no specs
        with pytest.raises(ValueError):
            ChaosRunner(disk_rate=0.5, disk_faults=[("chmod", "eio")])

    def test_armed_faults_are_recorded_and_disarmed(self):
        observed = []

        def task():
            for _ in range(20):
                observed.append(disk.is_armed("write") or disk.is_armed("fsync"))
                yield

        runner = ChaosRunner(
            seed=7,
            disk_faults=[("write", "eio"), ("fsync", "enospc")],
            disk_rate=1.0,
        )
        report = runner.run([task, task])
        assert report.clean
        assert len(report.disk_faults_armed) == len(report.schedule)
        assert any(observed)  # the steps saw faults armed
        assert not disk.is_armed("write")  # disarmed in the finally
        assert not disk.is_armed("fsync")

    def test_same_seed_same_fault_schedule(self):
        def task():
            for _ in range(15):
                yield

        kwargs = dict(
            seed=11,
            disk_faults=[("write", "eio"), ("write", "enospc")],
            disk_rate=0.5,
        )
        first = ChaosRunner(**kwargs).run([task, task])
        second = ChaosRunner(**kwargs).run([task, task])
        assert first.disk_faults_armed == second.disk_faults_armed
        assert first.disk_faults_armed  # the schedule actually armed some
