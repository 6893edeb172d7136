"""The WAL codec (`repro.wal.frame`): one reader, many consumers.

Two pins on the single frame reader:

- *Agreement*: under arbitrary truncations and single-bit flips of a
  multi-segment log, every consumer of the reader -- the dead-log scan,
  a fresh live stream, a scrub pass -- recovers the same record prefix
  and names the same damaged byte.  They may *interpret* the verdict
  differently (torn tail / in flight / benign-or-quarantine); they may
  not disagree about where it is.
- *Compatibility*: a directory written by an earlier commit (golden
  bytes, hex-embedded below) decodes to the same records, recovers
  strict-clean, re-opens at the same lsn/epoch, and re-encodes to the
  same bytes -- the format must not drift when the codec is edited.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scrub import Scrubber
from repro.testing.diskfaults import flip_bit
from repro.wal import (
    WalStream,
    WriteAheadLog,
    list_checkpoints,
    recover,
    scan_directory,
)
from repro.wal.frame import MAGIC, encode_frame

pytestmark = pytest.mark.recovery


def segment_paths(wal_dir):
    return sorted(
        os.path.join(wal_dir, name)
        for name in os.listdir(wal_dir)
        if name.startswith("segment-") and name.endswith(".wal")
    )


# ---------------------------------------------------------------------------
# the consumers agree
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference_log(tmp_path_factory):
    """A closed multi-segment log of raw records (no database needed:
    none of the three consumers replays)."""
    wal_dir = str(tmp_path_factory.mktemp("ref") / "db.wal")
    with WriteAheadLog(wal_dir, segment_bytes=300) as wal:
        for i in range(14):
            wal.append({"kind": "update", "pad": "x" * (20 + 7 * i), "n": i})
    sizes = [os.path.getsize(path) for path in segment_paths(wal_dir)]
    assert len(sizes) >= 4
    return wal_dir, sizes


def scrub_prefix(wal_dir):
    """Scrub one segment per step up to the first damaged one:
    ``(records verified so far, that segment's finding or None)``."""
    scrubber = Scrubber(wal_dir, budget_bytes=1)
    verified = 0
    while True:
        report = scrubber.step()
        verified += report.records_verified
        findings = [f for f in report.findings if f.kind == "wal-segment"]
        if findings or report.pass_completed:
            return verified, (findings[0] if findings else None)


@settings(max_examples=150, deadline=None)
@given(
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    bit=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
)
@example(where=0.0, bit=None)  # the whole log cut away
@example(where=0.0, bit=3)  # rot in the first segment's magic
def test_scan_stream_and_scrub_agree(reference_log, where, bit):
    reference_dir, sizes = reference_log
    position = int(where * sum(sizes))
    index = 0
    while position >= sizes[index]:
        position -= sizes[index]
        index += 1
    work = tempfile.mkdtemp(prefix="wal-agree-")
    try:
        wal_dir = os.path.join(work, "db.wal")
        shutil.copytree(reference_dir, wal_dir)
        paths = segment_paths(wal_dir)
        if bit is None:
            # Truncate the *log* at this byte: cut the segment holding
            # it and drop everything later.
            with open(paths[index], "r+b") as handle:
                handle.truncate(position)
            for later in paths[index + 1:]:
                os.unlink(later)
        else:
            flip_bit(paths[index], position, bit)

        scan = scan_directory(wal_dir)
        stream = WalStream(wal_dir)
        delivered = stream.poll()
        verified, finding = scrub_prefix(wal_dir)  # last: it may quarantine

        prefix = [(r.lsn, r.payload) for r in scan.records]
        assert [(r.lsn, r.payload) for r in delivered] == prefix
        assert verified == len(prefix)
        if scan.torn is None:
            assert stream.in_flight is None and finding is None
        else:
            damage = (scan.torn.segment, scan.torn.offset)
            assert damage == (paths[index], scan.torn.offset)
            assert (stream.in_flight.segment, stream.in_flight.offset) == damage
            assert (finding.path, finding.offset) == damage
            assert stream.in_flight.kind == scan.torn.kind
            # Same byte, different readings: a cut leaves a benign tail,
            # rot in front of later segments is quarantined.
            assert finding.benign != finding.quarantined
            if bit is None:
                assert finding.benign
            elif index < len(paths) - 1:
                assert finding.quarantined
    finally:
        shutil.rmtree(work)


# ---------------------------------------------------------------------------
# a caught-up follower reads nothing
# ---------------------------------------------------------------------------
def test_idle_poll_reads_only_the_bytes_past_the_cursor(tmp_path, bytes_read):
    wal_dir = str(tmp_path / "db.wal")
    with WriteAheadLog(wal_dir) as wal:
        for i in range(40):
            wal.append({"kind": "update", "pad": "x" * 200, "n": i})
        stream = WalStream(wal_dir)
        assert len(stream.poll()) == 40
        assert sum(bytes_read) == os.path.getsize(segment_paths(wal_dir)[0])
        del bytes_read[:]
        assert stream.poll() == []  # caught up: O(1), not O(segment)
        assert sum(bytes_read) == 0
        wal.append({"kind": "update", "n": "new"})
        (record,) = stream.poll()
        assert sum(bytes_read) == record.length


# ---------------------------------------------------------------------------
# golden bytes: the on-disk format as an earlier commit wrote it
# ---------------------------------------------------------------------------
GOLDEN_CHECKPOINT = "checkpoint-0000000000-0000000000-e3.xml"
GOLDEN_FILES = {
    GOLDEN_CHECKPOINT: (
        "3c3f726570726f2d696e74656772697479207368613235363d22376530363335"
        "6337383431643563653537663663373036323662633230653863373332343361"
        "3431373233323664653761356161616630363936666661336563223f3e0a3c73"
        "656375726564622076657273696f6e3d2231223e0a20203c7375626a65637473"
        "3e0a202020203c726f6c65206e616d653d22656469746f72222f3e0a20202020"
        "3c75736572206e616d653d227731223e0a2020202020203c6973613e65646974"
        "6f723c2f6973613e0a202020203c2f757365723e0a20203c2f7375626a656374"
        "733e0a20203c706f6c6963793e0a202020203c72756c65206566666563743d22"
        "6163636570742220706174683d222f2f2a22207072696f726974793d22312220"
        "70726976696c6567653d227265616422207375626a6563743d22656469746f72"
        "222f3e0a202020203c72756c65206566666563743d2261636365707422207061"
        "74683d222f2f2a22207072696f726974793d2232222070726976696c6567653d"
        "2275706461746522207375626a6563743d22656469746f72222f3e0a20202020"
        "3c72756c65206566666563743d226163636570742220706174683d222f2f2a22"
        "207072696f726974793d2233222070726976696c6567653d22696e7365727422"
        "207375626a6563743d22656469746f72222f3e0a202020203c72756c65206566"
        "666563743d226163636570742220706174683d222f2f2a22207072696f726974"
        "793d2234222070726976696c6567653d2264656c65746522207375626a656374"
        "3d22656469746f72222f3e0a20203c2f706f6c6963793e0a20203c646f63756d"
        "656e743e0a202020203c6c6f673e0a2020202020203c656e7472793e73656564"
        "3c2f656e7472793e0a202020203c2f6c6f673e0a20203c2f646f63756d656e74"
        "3e0a3c2f73656375726564623e0a"
    ),
    "segment-0000000001.wal": (
        "524550524f57414c310a000000681c95a8997b226b696e64223a22636865636b"
        "706f696e74222c2276657273696f6e223a302c22736e617073686f74223a2263"
        "6865636b706f696e742d303030303030303030302d303030303030303030302d"
        "65332e786d6c222c226c736e223a312c2265706f6368223a337d00000125f033"
        "aec87b226b696e64223a22757064617465222c2276657273696f6e223a312c22"
        "736372697074223a223c787570646174653a6d6f64696669636174696f6e7320"
        "786d6c6e733a787570646174653d5c22687474703a2f2f7777772e786d6c6462"
        "2e6f72672f787570646174655c223e3c787570646174653a617070656e642073"
        "656c6563743d5c222f6c6f675c223e3c787570646174653a656c656d656e7420"
        "6e616d653d5c22676f6c64656e5c223e783c2f787570646174653a656c656d65"
        "6e743e3c2f787570646174653a617070656e643e3c2f787570646174653a6d6f"
        "64696669636174696f6e733e222c2275736572223a227731222c227374726963"
        "74223a66616c73652c22746f7563686564223a312c226c736e223a322c226570"
        "6f6368223a337d"
    ),
}
GOLDEN_SCRIPT = (
    '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
    '<xupdate:append select="/log"><xupdate:element name="golden">x'
    "</xupdate:element></xupdate:append></xupdate:modifications>"
)
GOLDEN_PAYLOADS = [
    {"kind": "checkpoint", "version": 0, "snapshot": GOLDEN_CHECKPOINT,
     "lsn": 1, "epoch": 3},
    {"kind": "update", "version": 1, "script": GOLDEN_SCRIPT, "user": "w1",
     "strict": False, "touched": 1, "lsn": 2, "epoch": 3},
]


@pytest.fixture
def golden_dir(tmp_path):
    wal_dir = str(tmp_path / "golden.wal")
    os.makedirs(wal_dir)
    for name, hexed in GOLDEN_FILES.items():
        with open(os.path.join(wal_dir, name), "wb") as handle:
            handle.write(bytes.fromhex(hexed))
    return wal_dir


class TestGoldenBytes:
    def test_records_decode_identically(self, golden_dir):
        scan = scan_directory(golden_dir)
        assert scan.torn is None
        assert [r.payload for r in scan.records] == GOLDEN_PAYLOADS
        assert [(r.lsn, r.kind, r.epoch) for r in scan.records] == [
            (1, "checkpoint", 3), (2, "update", 3),
        ]
        first, second = scan.records
        assert (first.offset, first.length) == (len(MAGIC), 8 + 0x68)
        assert (second.offset, second.length) == (
            first.offset + first.length, 8 + 0x125,
        )
        (checkpoint,) = list_checkpoints(golden_dir)
        assert (checkpoint.lsn, checkpoint.version, checkpoint.epoch) == (
            0, 0, 3,
        )

    def test_the_encoder_reproduces_the_segment_bytes(self, golden_dir):
        frames = b"".join(
            part for payload in GOLDEN_PAYLOADS
            for part in encode_frame(payload)
        )
        assert (MAGIC + frames).hex() == GOLDEN_FILES["segment-0000000001.wal"]

    def test_recovers_strict_clean_and_reopens_in_place(self, golden_dir):
        result = recover(golden_dir, strict=True)
        assert result.report.clean and result.torn is None
        assert (result.version, result.last_lsn, result.epoch) == (1, 2, 3)
        assert "<golden>x</golden>" in result.database.login("w1").read_xml()
        assert Scrubber(golden_dir, deep=True).run().clean
        with WriteAheadLog(golden_dir) as wal:
            assert (wal.lsn, wal.epoch) == (2, 3)
            assert wal.stats["torn_tail_repaired"] == 0
            assert wal.append({"kind": "admin", "version": 2}) == 3
        assert scan_directory(golden_dir).last_lsn == 3
