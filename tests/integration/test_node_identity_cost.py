"""Counts and scaling guards for node identity -- no stopwatches.

Every index in the system is keyed or ordered by :class:`NodeId`.  Its
components are exact rationals, and ``fractions.Fraction`` hashes and
compares in pure Python, so an id that consults its components per
lookup makes looking at a number the most expensive thing the server
does (one warm point read used to make 750 ``Fraction.__hash__`` calls,
one write cycle 29,722 plus 11,939 ``__eq__`` and 5,552 ``_richcmp``).
An id now computes its hash and document-order key once; these guards
count the calls that must no longer happen, and check that loading a
database is linear in its size.

The database is the benchmark's hospital (``tests/hospital.py``).
"""

import time
from fractions import Fraction

import pytest

from repro.serving import DatabaseServer
from repro.storage import save_to_file

from tests.hospital import append_script, bench_hospital, update_script


@pytest.fixture
def fraction_calls(monkeypatch):
    """Counting wrappers on the three pure-Python ``Fraction`` methods
    every per-lookup use of an id's components goes through."""
    calls = {"__hash__": 0, "__eq__": 0, "_richcmp": 0}

    def counted(name):
        original = getattr(Fraction, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Fraction, name, counted(name))
    return calls


def test_reads_and_write_cycles_never_consult_fraction_components(
    fraction_calls,
):
    db = bench_hospital(120)
    writer, reader = db.login("laporte"), db.login("beaufort")
    for warm in range(3):  # views, selections and tables are cached
        writer.execute(update_script("patient00007", f"warm{warm}"))
        reader.query("/patients/patient00007/diagnosis")
        writer.view()
    for name in fraction_calls:
        fraction_calls[name] = 0

    assert len(reader.query("/patients/patient00042/diagnosis")) == 1
    assert fraction_calls == {"__hash__": 0, "__eq__": 0, "_richcmp": 0}

    # One write cycle: execute (with the view cache's note_commit),
    # then both sessions' next view().
    before = db.stats()
    result = writer.execute(update_script("patient00042", "dxnew"))
    assert len(result.affected) == 1
    writer.view()
    assert reader.query("/patients/patient00042/diagnosis/text()")
    after = db.stats()
    assert after["full_resolves"] == before["full_resolves"]
    assert after["view_incremental_patches"] > before["view_incremental_patches"]
    assert after["view_full_builds"] == before["view_full_builds"]
    # Even the ids this cycle constructs hash their (integral)
    # components as plain ints.
    assert fraction_calls == {"__hash__": 0, "__eq__": 0, "_richcmp": 0}

    # An insertion creates ids of new nodes; still nothing.
    writer.execute(append_script("patient00042", "seen"))
    writer.view()
    assert reader.query("count(/patients/patient00042/diagnosis/*)") == 2.0
    assert fraction_calls == {"__hash__": 0, "__eq__": 0, "_richcmp": 0}


def _setup_seconds(patients: int, tmp_path) -> float:
    """Build, save and ``DatabaseServer.open`` one hospital; best of two
    so that a scheduling hiccup on a shared box is not read as growth."""
    best = float("inf")
    for attempt in range(2):
        path = str(tmp_path / f"h{patients}-{attempt}.db.xml")
        started = time.perf_counter()
        save_to_file(bench_hospital(patients), path)
        server = DatabaseServer.open(path)
        best = min(best, time.perf_counter() - started)
        assert server.database.version == 0
        assert len(server.database.subjects.users) >= patients
        server.database.detach_wal().close()
    return best


def test_setup_time_is_linear_in_patients(tmp_path):
    """Quadrupling the hospital must not cost more than 6x (linear is
    4x; the sibling scan and the per-user closure rebuild made it >10x)."""
    small = _setup_seconds(400, tmp_path)
    large = _setup_seconds(1600, tmp_path)
    assert large / small < 6, (small, large)
