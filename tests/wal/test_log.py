"""The write-ahead log core: format, torn tails, rotation, retention."""

import os

import pytest

from repro.errors import WalCorruptionError, WalWriteError
from repro.faults import InjectedFault, inject
from repro.wal import (
    WriteAheadLog,
    list_checkpoints,
    recover,
    scan_directory,
    scan_segment,
)
from repro.wal.log import MAGIC

from .conftest import append_script, editors_database


def segment_files(directory):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("segment-")
    )


class TestFsyncPolicy:
    def test_always_and_os(self, wal_dir):
        for spec in ("always", "os"):
            with WriteAheadLog(wal_dir, fsync=spec) as wal:
                assert wal.fsync_policy == spec

    def test_str_round_trips(self, wal_dir):
        """The policy a log reports opens an equal log: the spelling
        ``DatabaseServer.stats()`` echoes is a valid ``fsync=``."""
        with WriteAheadLog(wal_dir, fsync="os") as wal:
            spec = wal.fsync_policy
        with WriteAheadLog(wal_dir, fsync=spec) as reopened:
            assert reopened.fsync_policy == "os"

    @pytest.mark.parametrize(
        "bad", ["", "sometimes", "batch(0,5)", "batch(1)", "batch(8,50)"]
    )
    def test_rejects(self, wal_dir, bad):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_dir, fsync=bad)


class TestAppendScan:
    def test_round_trip(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            for i in range(5):
                assert wal.append({"kind": "update", "n": i}) == i + 1
        scan = scan_directory(wal_dir)
        assert scan.torn is None
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4, 5]
        assert [r.payload["n"] for r in scan.records] == list(range(5))
        assert scan.last_lsn == 5

    def test_lsn_is_assigned_by_the_log(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"kind": "update", "lsn": 999})
        (record,) = scan_directory(wal_dir).records
        assert record.lsn == 1

    def test_reopen_resumes_after_the_tail(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.append({"kind": "update"})
            wal.append({"kind": "update"})
        with WriteAheadLog(wal_dir) as wal:
            assert wal.lsn == 2
            assert wal.append({"kind": "update"}) == 3
        assert scan_directory(wal_dir).last_lsn == 3

    def test_empty_directory_scans_clean(self, tmp_path):
        scan = scan_directory(str(tmp_path))
        assert scan.records == [] and scan.torn is None


class TestTornTails:
    def make_log(self, wal_dir, records=4):
        with WriteAheadLog(wal_dir) as wal:
            for i in range(records):
                wal.append({"kind": "update", "pad": "x" * 40, "n": i})
        (path,) = segment_files(wal_dir)
        return path

    def test_every_truncation_yields_a_committed_prefix(self, wal_dir):
        """Cut the segment at *every* byte length: the scan must return
        a prefix of the original records -- never garbage, never an
        exception."""
        path = self.make_log(wal_dir)
        original = [r.payload for r in scan_segment(path)[0]]
        data = open(path, "rb").read()
        boundaries = 0
        for cut in range(len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            records, torn = scan_segment(path)
            payloads = [r.payload for r in records]
            assert payloads == original[: len(payloads)]
            if torn is None:
                boundaries += 1  # cut landed exactly on a record boundary
            else:
                assert torn.offset + torn.dropped_bytes == cut
        # magic boundary + one per record except we never reach full length
        assert boundaries == len(original)

    def test_crc_mismatch_ends_the_log(self, wal_dir):
        path = self.make_log(wal_dir)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a byte inside the last payload
        open(path, "wb").write(bytes(data))
        records, torn = scan_segment(path)
        assert len(records) == 3
        assert torn is not None and "CRC mismatch" in torn.reason

    def test_bad_magic(self, wal_dir):
        path = self.make_log(wal_dir)
        data = open(path, "rb").read()
        open(path, "wb").write(b"NOTAWAL!!\n" + data[len(MAGIC):])
        records, torn = scan_segment(path)
        assert records == []
        assert torn is not None and torn.offset == 0

    def test_damage_cuts_everything_after_it(self, wal_dir):
        """Records *after* a torn record are dropped even if their own
        bytes are intact -- the lsn chain is broken."""
        path = self.make_log(wal_dir)
        clean = scan_segment(path)[0]
        data = bytearray(open(path, "rb").read())
        data[clean[1].offset + 9] ^= 0xFF  # corrupt record 2 of 4
        open(path, "wb").write(bytes(data))
        records, torn = scan_segment(path)
        assert [r.lsn for r in records] == [1]
        assert torn is not None and torn.offset == clean[1].offset

    def test_reopen_truncates_a_torn_tail(self, wal_dir):
        path = self.make_log(wal_dir)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)
        with WriteAheadLog(wal_dir) as wal:
            assert wal.stats["torn_tail_repaired"] == 1
            assert wal.lsn == 3
            wal.append({"kind": "update", "n": "after-crash"})
        scan = scan_directory(wal_dir)
        assert scan.torn is None
        assert scan.last_lsn == 4

    def test_dropped_segment_refuses_blind_reopen(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=64) as wal:
            for i in range(6):
                wal.append({"kind": "update", "pad": "x" * 40, "n": i})
        files = segment_files(wal_dir)
        assert len(files) > 2
        os.unlink(files[1])  # mid-log hole: not a torn tail
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(wal_dir)


class TestKillPoints:
    def test_before_append_leaves_the_log_clean(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.append({"kind": "update"})
        with inject("wal-before-append"):
            with pytest.raises(InjectedFault):
                wal.append({"kind": "update"})
        assert wal.failed is None  # nothing written, nothing torn
        assert wal.append({"kind": "update"}) == 2

    def test_mid_record_poisons_the_writer(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.append({"kind": "update", "pad": "x" * 64})
        with inject("wal-mid-record"):
            with pytest.raises(InjectedFault):
                wal.append({"kind": "update", "pad": "x" * 64})
        assert wal.failed is not None
        with pytest.raises(WalWriteError):
            wal.append({"kind": "update"})
        wal.close()
        # The torn bytes are really on disk; a reopen cuts them off.
        reopened = WriteAheadLog(wal_dir)
        assert reopened.stats["torn_tail_repaired"] == 1
        assert reopened.lsn == 1
        reopened.close()

    def test_closed_log_refuses_appends(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.close()
        with pytest.raises(WalWriteError):
            wal.append({"kind": "update"})


class TestFsyncAccounting:
    def test_always_fsyncs_every_append(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            for _ in range(3):
                wal.append({"kind": "update"})
            assert wal.stats["fsyncs"] == 3

    def test_os_never_fsyncs(self, wal_dir):
        with WriteAheadLog(wal_dir, fsync="os") as wal:
            for _ in range(3):
                wal.append({"kind": "update"})
            assert wal.stats["fsyncs"] == 0

    def test_sync_flushes_pending(self, wal_dir):
        wal = WriteAheadLog(wal_dir, fsync="os")
        wal.append({"kind": "update"})
        wal.sync()
        assert wal.stats["fsyncs"] == 1
        wal.close()


class TestRotationAndRetention:
    def test_rotation_produces_contiguous_segments(self, wal_dir):
        with WriteAheadLog(wal_dir, segment_bytes=96) as wal:
            for i in range(10):
                wal.append({"kind": "update", "pad": "x" * 48, "n": i})
            assert wal.stats["rotations"] >= 2
        scan = scan_directory(wal_dir)
        assert scan.torn is None
        assert [r.lsn for r in scan.records] == list(range(1, 11))
        assert len(scan.segments) == wal.stats["rotations"] + 1

    def test_checkpoint_retention(self, wal_dir):
        db = editors_database()
        wal = WriteAheadLog(wal_dir, retain_checkpoints=2)
        db.attach_wal(wal)
        paths = []
        for round_no in range(4):
            db.login("w1").execute(append_script(f"r{round_no}"))
            paths.append(wal.checkpoint(db))
        kept = list_checkpoints(wal_dir)
        assert [c.path for c in kept] == paths[-2:]
        assert wal.stats["checkpoints"] == 4
        # The pruned directory must still recover to the live state.
        wal.close()
        result = recover(wal_dir)
        assert result.report.clean
        assert result.version == db.version

    def test_retain_must_be_positive(self, wal_dir):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_dir, retain_checkpoints=0)

    def test_checkpoint_mid_snapshot_leaves_no_temp(self, wal_dir):
        db = editors_database()
        wal = WriteAheadLog(wal_dir)
        db.attach_wal(wal)
        wal.checkpoint(db)
        db.login("w1").execute(append_script("a"))
        with inject("checkpoint-mid-snapshot"):
            with pytest.raises(InjectedFault):
                wal.checkpoint(db)
        assert not [n for n in os.listdir(wal_dir) if n.endswith(".tmp")]
        assert len(list_checkpoints(wal_dir)) == 1
        wal.close()
        result = recover(wal_dir)
        assert result.report.clean
        assert result.version == db.version
