"""Property-based crash-safety: committed data survives interrupted saves.

For random databases (document + subjects + policy) and every storage
kill-point: save the database, inject a failure into a subsequent save,
and check that a lenient load of the file recovers exactly the committed
state -- nothing lost, nothing dropped.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    LoadReport,
    dump_database,
    load_database,
    load_from_file,
    save_to_file,
)
from repro.faults import InjectedFault, faults
from repro.xupdate import Rename

from tests.strategies import secure_databases

pytestmark = pytest.mark.fault

STORAGE_KILL_POINTS = ("mid-write", "before-rename")


class TestInterruptedSaveProperties:
    @given(
        db=secure_databases(),
        point=st.sampled_from(STORAGE_KILL_POINTS),
    )
    @settings(max_examples=30, deadline=None)
    def test_kill_then_lenient_load_never_loses_committed_data(self, db, point):
        committed = dump_database(db) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "db.xml")
            save_to_file(db, path)
            # A later, doomed save must not disturb the committed state.
            db.admin_update(Rename("/*", "renamed"))
            faults.arm(point)
            try:
                with pytest.raises(InjectedFault):
                    save_to_file(db, path)
            finally:
                faults.disarm()
            report = LoadReport()
            again = load_from_file(path, mode="lenient", report=report)
            assert report.clean
            assert dump_database(again) + "\n" == committed

    @given(db=secure_databases())
    @settings(max_examples=30, deadline=None)
    def test_lenient_load_of_clean_dump_equals_strict_load(self, db):
        text = dump_database(db)
        report = LoadReport()
        lenient_db = load_database(text, mode="lenient", report=report)
        strict_db = load_database(text)
        assert report.clean
        assert list(lenient_db.policy.facts()) == list(strict_db.policy.facts())
        assert lenient_db.subjects.subjects == strict_db.subjects.subjects
        assert dump_database(lenient_db) == dump_database(strict_db)
