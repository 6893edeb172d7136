"""The atomicity invariant under injected faults.

For every named executor kill-point and every operation index of a
multi-operation script: a failed script must leave every session's view
byte-identical to its pre-script view, the database document unchanged,
and the version counter untouched -- the paper's all-or-nothing theory
replacement, enforced operationally.
"""

import pytest

from repro.core import hospital_database
from repro.errors import ConcurrentUpdateError, UpdateAborted
from repro.faults import InjectedFault, inject
from repro.security.write import AccessDenied
from repro.xmltree import element, serialize
from repro.xmltree.fragments import text
from repro.xupdate import (
    Append,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
)

pytestmark = pytest.mark.fault

EXECUTOR_KILL_POINTS = ("before-op", "after-op")

#: A three-operation script entirely within the doctor's privileges
#: (rules 10-12: insert on //diagnosis, update/delete on //diagnosis/*).
def doctor_script():
    return UpdateScript(
        [
            UpdateContent("/patients/franck/diagnosis", "flu"),
            Append("//diagnosis", element("note", text("checked"))),
            Remove("/patients/robert/diagnosis/text()"),
        ]
    )


def snapshot(db, users=("laporte", "beaufort", "richard", "robert")):
    """Fingerprint every session view plus the raw document."""
    views = {u: db.login(u).view().fingerprint() for u in users}
    return views, serialize(db.document), db.version


class TestSecureScriptAtomicity:
    @pytest.mark.parametrize("point", EXECUTOR_KILL_POINTS)
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_failed_script_changes_nothing(self, point, index):
        db = hospital_database()
        sessions = {u: db.login(u) for u in ("laporte", "beaufort", "richard")}
        before_views = {u: s.view().fingerprint() for u, s in sessions.items()}
        before_xml = {u: s.read_xml() for u, s in sessions.items()}
        before_doc = serialize(db.document)
        before_version = db.version

        with inject(point, after=index):
            with pytest.raises(UpdateAborted) as info:
                sessions["laporte"].execute(doctor_script(), strict=True)

        assert info.value.operation_index == index
        assert info.value.completed == index
        assert isinstance(info.value.__cause__, InjectedFault)
        # The atomicity invariant: nothing observable moved.
        assert db.version == before_version
        assert serialize(db.document) == before_doc
        for user, session in sessions.items():
            assert session.view().fingerprint() == before_views[user]
            assert session.read_xml() == before_xml[user]
        # Fresh sessions see the pre-script theory too.
        for user in sessions:
            assert db.login(user).view().fingerprint() == before_views[user]

    def test_script_succeeds_when_nothing_is_armed(self):
        db = hospital_database()
        doctor = db.login("laporte")
        before_version = db.version
        result = doctor.execute(doctor_script(), strict=True)
        assert result.fully_applied
        assert db.version == before_version + 1
        assert "flu" in doctor.read_xml()

    def test_abort_reports_savepoint_but_never_installs_it(self):
        db = hospital_database()
        doctor = db.login("laporte")
        with inject("before-op", after=1):
            with pytest.raises(UpdateAborted) as info:
                doctor.execute(doctor_script(), strict=True)
        # The savepoint holds the document after operation 0...
        assert info.value.savepoint is not None
        assert "flu" in serialize(info.value.savepoint)
        # ...but the database never saw it.
        assert "flu" not in serialize(db.document)

    def test_strict_denial_mid_script_rolls_back_earlier_ops(self):
        db = hospital_database()
        secretary = db.login("beaufort")
        before = secretary.view().fingerprint()
        before_doc = serialize(db.document)
        script = UpdateScript(
            [
                # Allowed: rule 8 grants the secretary insert on /patients.
                Append("/patients", element("newpatient")),
                # Denied: updating diagnosis *content* needs update+read
                # on the text child, which the secretary does not hold.
                UpdateContent("/patients/franck/diagnosis", "oops"),
            ]
        )
        with pytest.raises(AccessDenied):
            secretary.execute(script, strict=True)
        assert serialize(db.document) == before_doc
        assert secretary.view().fingerprint() == before
        assert "newpatient" not in serialize(db.document)

    def test_abort_is_audited_with_rolled_back_count(self):
        db = hospital_database()
        doctor = db.login("laporte")
        with inject("after-op", after=1):
            with pytest.raises(UpdateAborted):
                doctor.execute(doctor_script(), strict=True)
        aborts = db.audit.aborts()
        assert len(aborts) == 1
        record = aborts[0]
        assert record.user == "laporte"
        assert record.event == "abort"
        assert record.rolled_back == 1
        assert not record.allowed
        assert "aborted at operation 1" in record.reason
        assert "ABORT" in str(record)

    def test_denied_abort_is_audited(self):
        db = hospital_database()
        secretary = db.login("beaufort")
        script = UpdateScript(
            [
                Append("/patients", element("p2")),
                UpdateContent("/patients/franck/diagnosis", "oops"),
            ]
        )
        with pytest.raises(AccessDenied):
            secretary.execute(script, strict=True)
        aborts = db.audit.aborts()
        assert len(aborts) == 1
        assert aborts[0].rolled_back == 1
        assert "denied" in aborts[0].reason


class TestUnsecuredScriptAtomicity:
    @pytest.mark.parametrize("point", EXECUTOR_KILL_POINTS)
    @pytest.mark.parametrize("index", [0, 1])
    def test_admin_script_failure_changes_nothing(self, point, index):
        db = hospital_database()
        before_doc = serialize(db.document)
        before_version = db.version
        script = UpdateScript(
            [
                Rename("//service", "svc"),
                Remove("//diagnosis"),
            ]
        )
        with inject(point, after=index):
            with pytest.raises(UpdateAborted):
                db.admin_update(script)
        assert serialize(db.document) == before_doc
        assert db.version == before_version

    def test_internal_error_mid_script_rolls_back(self):
        db = hospital_database()
        before_doc = serialize(db.document)
        script = UpdateScript(
            [
                Rename("//service", "svc"),
                # XUpdateError: the document node has no siblings.
                InsertBefore("/", element("x")),
            ]
        )
        with pytest.raises(UpdateAborted) as info:
            db.admin_update(script)
        assert info.value.operation_index == 1
        assert info.value.operation == "InsertBefore"
        assert serialize(db.document) == before_doc


class TestTransactionObject:
    def test_commit_installs_and_bumps_version(self):
        db = hospital_database()
        version = db.version
        with db.transaction() as txn:
            new_doc = db.document.copy()
            txn.commit(new_doc)
        assert db.version == version + 1
        assert db.document is new_doc
        assert not txn.active

    def test_rollback_leaves_database_untouched(self):
        db = hospital_database()
        doc, version = db.document, db.version
        txn = db.transaction()
        txn.rollback()
        assert db.document is doc and db.version == version

    def test_exception_in_with_block_rolls_back(self):
        db = hospital_database()
        doc, version = db.document, db.version
        with pytest.raises(RuntimeError):
            with db.transaction():
                raise RuntimeError("boom")
        assert db.document is doc and db.version == version

    def test_concurrent_commit_is_refused(self):
        db = hospital_database()
        txn = db.transaction()
        db.admin_update(Rename("//service", "svc"))  # interleaved commit
        with pytest.raises(ConcurrentUpdateError):
            txn.commit(db.document.copy())
        assert not txn.active

    def test_double_commit_is_refused(self):
        db = hospital_database()
        txn = db.transaction()
        txn.commit(db.document.copy())
        with pytest.raises(RuntimeError):
            txn.commit(db.document.copy())
