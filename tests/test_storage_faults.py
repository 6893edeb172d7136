"""Crash-safe persistence: interrupted saves never corrupt the file."""

import glob
import os

import pytest

from repro.core import hospital_database
from repro.storage import (
    backup_path,
    dump_database,
    load_from_file,
    save_to_file,
)
from repro.faults import InjectedFault, inject
from repro.xupdate import Rename

pytestmark = pytest.mark.fault

STORAGE_KILL_POINTS = ("mid-write", "before-rename")


def modified_database():
    db = hospital_database()
    db.admin_update(Rename("//service", "ward"))
    return db


@pytest.fixture
def saved(tmp_path):
    """A committed database file plus its exact on-disk bytes."""
    path = str(tmp_path / "db.xml")
    save_to_file(hospital_database(), path)
    with open(path, "r", encoding="utf-8") as handle:
        return path, handle.read()


class TestInterruptedSave:
    @pytest.mark.parametrize("point", STORAGE_KILL_POINTS)
    def test_previous_file_survives_byte_identical(self, saved, point):
        path, committed = saved
        with inject(point):
            with pytest.raises(InjectedFault):
                save_to_file(modified_database(), path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == committed

    @pytest.mark.parametrize("point", STORAGE_KILL_POINTS)
    def test_previous_file_stays_loadable(self, saved, point):
        path, committed = saved
        with inject(point):
            with pytest.raises(InjectedFault):
                save_to_file(modified_database(), path)
        again = load_from_file(path)
        assert dump_database(again) + "\n" == committed

    @pytest.mark.parametrize("point", STORAGE_KILL_POINTS)
    def test_no_temp_file_litter(self, saved, point):
        path, _ = saved
        with inject(point):
            with pytest.raises(InjectedFault):
                save_to_file(modified_database(), path)
        assert glob.glob(os.path.join(os.path.dirname(path), "*.tmp")) == []

    @pytest.mark.parametrize("point", STORAGE_KILL_POINTS)
    def test_retry_after_interruption_succeeds(self, saved, point):
        path, _ = saved
        db = modified_database()
        with inject(point):
            with pytest.raises(InjectedFault):
                save_to_file(db, path)
        save_to_file(db, path)
        assert "ward" in dump_database(load_from_file(path))

    @pytest.mark.parametrize("point", STORAGE_KILL_POINTS)
    def test_first_save_interruption_leaves_no_file(self, tmp_path, point):
        path = str(tmp_path / "fresh.xml")
        with inject(point):
            with pytest.raises(InjectedFault):
                save_to_file(hospital_database(), path)
        assert not os.path.exists(path)


class TestRollingBackup:
    def test_successful_save_keeps_previous_content_in_bak(self, saved):
        path, committed = saved
        save_to_file(modified_database(), path)
        with open(backup_path(path), "r", encoding="utf-8") as handle:
            assert handle.read() == committed
        # The backup is itself a loadable database.
        assert load_from_file(backup_path(path)).document.root is not None

    def test_first_save_creates_no_backup(self, tmp_path):
        path = str(tmp_path / "db.xml")
        save_to_file(hospital_database(), path)
        assert not os.path.exists(backup_path(path))

    def test_backup_can_be_disabled(self, saved):
        path, _ = saved
        save_to_file(modified_database(), path, backup=False)
        assert not os.path.exists(backup_path(path))

    def test_backup_rolls_forward(self, saved):
        path, first = saved
        db2 = modified_database()
        save_to_file(db2, path)
        save_to_file(hospital_database(), path)
        with open(backup_path(path), "r", encoding="utf-8") as handle:
            assert handle.read() == dump_database(db2) + "\n"
