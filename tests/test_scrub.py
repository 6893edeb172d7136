"""Online integrity scrubbing (ISSUE 10).

Covers the :class:`~repro.scrub.Scrubber`'s conclusions (clean pass,
benign live tail, non-tail quarantine, checkpoint rot), the resumable
budgeted cursor, how the rest of the stack honours a quarantine
(streams gap, strict recovery refuses, lenient recovery stops), the
retention-prune race against an active :class:`~repro.wal.WalStream`,
and the Hypothesis property that a single flipped bit anywhere in a
segment is *detected* -- by scrub or by replay -- and never yields a
divergent recovered state.
"""

import os
import random
import shutil

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.scrub
from repro.errors import WalCorruptionError, WalStreamGap
from repro.faults import faults as disk
from repro.scrub import ScrubReport, Scrubber, scrub_directory
from repro.testing.diskfaults import flip_bit
from repro.wal import (
    QUARANTINE_SUFFIX,
    WalStream,
    WriteAheadLog,
    list_checkpoints,
    recover,
)
from repro.wal.frame import encode_frame
from repro.wal.log import tail_lsn

from tests.wal.conftest import append_script, editors_database, state_of

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


def logged_directory(tmp_path, commits=3, **wal_kwargs):
    """A closed log directory: checkpoint + ``commits`` real commits."""
    wal_dir = str(tmp_path / "db.wal")
    db = editors_database()
    wal = WriteAheadLog(wal_dir, **wal_kwargs)
    db.attach_wal(wal)
    wal.checkpoint(db)
    for i in range(commits):
        db.login("w1").execute(append_script(f"entry{i}"))
    expected = state_of(db)
    db.detach_wal().close()
    return wal_dir, expected


class TestCleanPass:
    def test_clean_directory_scrubs_clean(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        report = scrub_directory(wal_dir)
        assert report.clean
        assert report.pass_completed
        assert not report.findings
        assert report.records_verified >= 4  # checkpoint marker + commits
        assert report.segments_verified >= 1
        assert report.checkpoints_verified == 1
        assert report.bytes_verified > 0

    def test_counters_accumulate_across_passes(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        scrubber = Scrubber(wal_dir)
        first = scrubber.run()
        scrubber.run()
        counters = scrubber.counters
        assert counters["passes"] == 2
        assert counters["steps"] == 2
        assert counters["records_verified"] == 2 * first.records_verified
        assert counters["segments_quarantined"] == 0
        assert counters["last_full_pass"] > 0.0

    def test_live_torn_tail_is_benign(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        last = segment_paths(wal_dir)[-1]
        with open(last, "ab") as handle:
            handle.write(b"\x99\x01")  # a half-flushed append
        report = scrub_directory(wal_dir)
        assert report.clean  # benign findings don't dirty the report
        assert len(report.findings) == 1
        assert report.findings[0].benign
        assert not report.findings[0].quarantined
        assert not os.path.exists(last + QUARANTINE_SUFFIX)

    @pytest.mark.parametrize("seed", range(8))
    def test_append_completed_behind_the_read_is_still_benign(
        self, tmp_path, monkeypatch, seed
    ):
        """The scrubber meets the live writer's half-written record;
        before the tail rule looks for intact frames behind the damage
        the writer finishes that record and appends another.  The
        verdict is about the bytes that were read: still a tail."""
        wal_dir, _ = logged_directory(tmp_path)
        last = segment_paths(wal_dir)[-1]
        lsn = tail_lsn(wal_dir)
        first, second = (
            b"".join(encode_frame({"lsn": lsn + n, "kind": "checkpoint"}))
            for n in (1, 2)
        )
        cut = random.Random(seed).randrange(1, len(first))
        with open(last, "ab") as handle:
            handle.write(first[:cut])

        def writer_finishes_first(torn):
            with open(last, "ab") as handle:
                handle.write(first[cut:] + second)
            monkeypatch.undo()
            return repro.scrub.quarantine_non_tail(torn)

        monkeypatch.setattr(
            repro.scrub, "quarantine_non_tail", writer_finishes_first
        )
        report = scrub_directory(wal_dir)
        assert report.clean
        assert [f.benign for f in report.findings] == [True]
        assert not os.path.exists(last + QUARANTINE_SUFFIX)
        # ...and the next pass verifies both records.
        again = scrub_directory(wal_dir)
        assert again.clean and not again.findings
        assert again.records_verified == report.records_verified + 2

    def test_read_eio_reports_but_never_quarantines(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        scrubber = Scrubber(wal_dir)
        disk.arm("read", "eio", match="segment-")
        report = scrubber.step()
        assert report.findings  # the sick read was surfaced
        assert not report.quarantined
        assert scrubber.counters["read_errors"] == 1
        assert not any(
            name.endswith(QUARANTINE_SUFFIX) for name in os.listdir(wal_dir)
        )
        # the device recovered: the next pass verifies everything
        assert scrubber.run().clean


class TestQuarantine:
    def flip_first_record(self, wal_dir):
        """Flip a payload bit of the *first* record of the last segment
        (intact records follow it, so this is provably non-tail)."""
        last = segment_paths(wal_dir)[-1]
        # MAGIC is 10 bytes, then [4B len][4B crc]; byte 20 sits inside
        # the first record's JSON payload.
        flip_bit(last, 20, bit=3)
        return last

    def test_non_tail_corruption_is_quarantined(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        damaged = self.flip_first_record(wal_dir)
        report = scrub_directory(wal_dir)
        assert not report.clean
        assert len(report.quarantined) == 1
        finding = report.quarantined[0]
        assert finding.path == damaged
        assert "non-tail" in finding.reason
        assert os.path.exists(damaged + QUARANTINE_SUFFIX)

    def test_already_quarantined_segments_are_reported(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.flip_first_record(wal_dir)
        scrubber = Scrubber(wal_dir)
        scrubber.run()
        report = scrubber.run()  # second pass sees the sidecar marker
        assert not report.clean
        assert len(report.quarantined) == 1
        assert "already quarantined" in report.quarantined[0].reason
        # only the first pass *performed* a quarantine; both reported one
        assert scrubber.counters["segments_quarantined"] == 2

    def test_an_unreadable_marker_still_quarantines(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.flip_first_record(wal_dir)
        scrub_directory(wal_dir)
        disk.arm("read", "eio", match=QUARANTINE_SUFFIX)
        report = scrub_directory(wal_dir)
        assert len(report.quarantined) == 1
        assert "already quarantined" in report.quarantined[0].reason

    def test_stream_gaps_on_a_quarantined_segment(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.flip_first_record(wal_dir)
        scrub_directory(wal_dir)
        stream = WalStream(wal_dir)
        with pytest.raises(WalStreamGap) as excinfo:
            while True:
                if not stream.poll():
                    break
        assert excinfo.value.oldest_available >= 1
        assert "quarantined" in str(excinfo.value)

    def test_strict_recovery_refuses_quarantined_damage(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.flip_first_record(wal_dir)
        scrub_directory(wal_dir)
        with pytest.raises(WalCorruptionError, match="quarantined"):
            recover(wal_dir, strict=True)

    def test_lenient_recovery_stops_before_the_damage(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.flip_first_record(wal_dir)
        scrub_directory(wal_dir)
        result = recover(wal_dir)
        # nothing in (or after) the quarantined segment was replayed,
        # and the result says so instead of pretending to be clean
        assert not result.report.clean
        assert "quarantined" in str(result.report)
        assert result.replayed == 0


class TestBudgetedCursor:
    def test_budget_splits_a_pass_across_steps(self, tmp_path):
        # Tiny segments force several files; a 1-byte budget verifies
        # exactly one segment per step.
        wal_dir, _ = logged_directory(
            tmp_path, commits=4, segment_bytes=256
        )
        segments = segment_paths(wal_dir)
        assert len(segments) >= 3
        scrubber = Scrubber(wal_dir, budget_bytes=1)
        steps = []
        while True:
            report = scrubber.step()
            steps.append(report)
            if report.pass_completed:
                break
        assert len(steps) > 1  # the cursor really resumed mid-pass
        assert all(not step.pass_completed for step in steps[:-1])
        assert sum(s.segments_verified for s in steps) == len(segments)
        counters = scrubber.counters
        assert counters["passes"] == 1
        assert counters["steps"] == len(steps)
        # a full unbudgeted pass verifies the same record population
        assert counters["records_verified"] == (
            scrub_directory(wal_dir).records_verified
        )

    def test_segments_pruned_between_steps_are_skipped(self, tmp_path):
        wal_dir, _ = logged_directory(
            tmp_path, commits=4, segment_bytes=256
        )
        scrubber = Scrubber(wal_dir, budget_bytes=1)
        scrubber.step()  # cursor now rests after the first segment
        for stale in segment_paths(wal_dir)[1:-1]:
            os.unlink(stale)  # retention moved the horizon mid-pass
        report = scrubber.step(budget_bytes=0)
        assert report.pass_completed
        assert report.clean

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Scrubber(str(tmp_path), budget_bytes=0)
        with pytest.raises(ValueError):
            Scrubber(str(tmp_path), budget_bytes=-5)

    def test_run_on_an_empty_directory(self, tmp_path):
        report = Scrubber(str(tmp_path)).run()
        assert report.clean and report.pass_completed
        assert report.segments_verified == 0


class TestCheckpointRot:
    def rot_checkpoint(self, wal_dir):
        """Damage the snapshot *body* without touching its header."""
        path = list_checkpoints(wal_dir)[-1].path
        flip_bit(path, -10)
        return path

    def test_shallow_scrub_only_checks_the_header(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        self.rot_checkpoint(wal_dir)
        assert scrub_directory(wal_dir).clean  # header still present

    def test_deep_scrub_catches_body_rot(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        path = self.rot_checkpoint(wal_dir)
        report = scrub_directory(wal_dir, deep=True)
        assert not report.clean
        finding = [f for f in report.findings if f.kind == "checkpoint"][0]
        assert finding.path == path
        assert "sha256 mismatch" in finding.reason

    def test_deep_scrub_passes_an_intact_checkpoint(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        report = scrub_directory(wal_dir, deep=True)
        assert report.clean
        assert report.checkpoints_verified == 1

    def test_missing_integrity_header_is_a_failure(self, tmp_path):
        wal_dir, _ = logged_directory(tmp_path)
        path = list_checkpoints(wal_dir)[-1].path
        text = open(path, encoding="utf-8").read()
        body = "\n".join(
            line for line in text.splitlines()
            if "repro-integrity" not in line
        )
        open(path, "w", encoding="utf-8").write(body)
        scrubber = Scrubber(wal_dir)
        report = scrubber.run()
        assert not report.clean
        assert scrubber.counters["checkpoint_failures"] == 1


class TestRetentionRace:
    def test_prune_under_an_active_stream_is_a_clean_gap(self, tmp_path):
        """Retention pruning racing a lagging follower must yield a
        WalStreamGap pointing at the true new horizon -- never a
        half-read pruned segment or silently skipped records."""
        wal_dir = str(tmp_path / "db.wal")
        db = editors_database()
        wal = WriteAheadLog(
            wal_dir, segment_bytes=256, retain_checkpoints=1
        )
        db.attach_wal(wal)
        wal.checkpoint(db)
        db.login("w1").execute(append_script("early"))
        stream = WalStream(wal_dir)
        consumed = stream.poll()
        assert consumed  # the follower is mid-log, cursor in old segments
        # the primary surges ahead; retention prunes the follower's past
        for i in range(4):
            db.login("w1").execute(append_script(f"late{i}"))
            wal.checkpoint(db)
        with pytest.raises(WalStreamGap) as excinfo:
            for _ in range(10):
                stream.poll()
        gap = excinfo.value
        oldest_on_disk = min(
            int(os.path.basename(p)[8:18]) for p in segment_paths(wal_dir)
        )
        assert gap.oldest_available == oldest_on_disk
        assert gap.next_lsn == stream.next_lsn
        db.detach_wal().close()


def build_template(root):
    """One closed log directory reused by every Hypothesis example,
    plus every state a truncated replay may legally land on."""
    wal_dir = os.path.join(root, "template.wal")
    db = editors_database()
    wal = WriteAheadLog(wal_dir)
    db.attach_wal(wal)
    wal.checkpoint(db)
    states = [state_of(db)]  # replaying zero commits is legal
    for i in range(4):
        db.login("w1").execute(append_script(f"flip{i}"))
        states.append(state_of(db))
    db.detach_wal().close()
    return wal_dir, states


@pytest.fixture(scope="module")
def flip_template(tmp_path_factory):
    wal_dir, states = build_template(str(tmp_path_factory.mktemp("flip")))
    size = sum(os.path.getsize(p) for p in segment_paths(wal_dir))
    return wal_dir, states, size


class TestBitFlipProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(offset=st.integers(min_value=0, max_value=4095), bit=st.integers(0, 7))
    @example(offset=0, bit=7)  # the magic header
    @example(offset=10, bit=0)  # the first record's length field
    def test_any_single_bit_flip_is_detected_never_divergent(
        self, flip_template, tmp_path, offset, bit
    ):
        template, states, total = flip_template
        offset %= total  # map the drawn offset onto the real byte space
        work = os.path.join(
            str(tmp_path), f"flip-{offset}-{bit}.wal"
        )
        if os.path.exists(work):
            shutil.rmtree(work)
        shutil.copytree(template, work)
        # locate the segment file the flat offset lands in
        remaining = offset
        for path in segment_paths(work):
            size = os.path.getsize(path)
            if remaining < size:
                flip_bit(path, remaining, bit=bit)
                break
            remaining -= size
        report = scrub_directory(work, deep=True)
        # CRC32 detects every single-bit error, so the flip is either
        # surfaced by scrub (a finding: quarantine or benign tail) or
        # caught by replay -- and the recovered state must land on a
        # legal prefix state, never a silently divergent one.
        result = recover(work)
        assert state_of(result.database) in states
        detected = (
            bool(report.findings)
            or result.torn is not None
            or not result.report.clean
        )
        assert detected, (
            f"bit flip at offset {offset} bit {bit} went undetected"
        )
