"""Multi-document collection tests."""

import pytest

from repro.security import Policy, SubjectHierarchy
from repro.security.collection import (
    CollectionError,
    SecureCollection,
)
from repro.security.subjects import SubjectError
from repro.xupdate import Rename, UpdateContent


@pytest.fixture
def collection():
    c = SecureCollection()
    c.subjects.add_role("staff")
    c.subjects.add_role("nurse", member_of="staff")
    c.subjects.add_user("nina", member_of="nurse")
    c.subjects.add_user("admin_user", member_of="staff")
    c.policy.grant("read", "//node()", "staff")
    c.policy.deny("read", "//salary", "nurse")
    c.policy.deny("read", "//salary/text()", "nurse")
    c.policy.grant("update", "//bed/text()", "nurse")
    c.add_document("patients", "<patients><p1><bed>12</bed></p1></patients>")
    c.add_document(
        "payroll", "<payroll><emp><salary>9000</salary></emp></payroll>"
    )
    return c


class TestManagement:
    def test_names_and_membership(self, collection):
        assert collection.names() == ["patients", "payroll"]
        assert "patients" in collection
        assert len(collection) == 2

    def test_duplicate_name_rejected(self, collection):
        with pytest.raises(CollectionError):
            collection.add_document("patients", "<x/>")

    def test_unknown_document_rejected(self, collection):
        with pytest.raises(CollectionError):
            collection.database("ghost")

    def test_remove_document(self, collection):
        collection.remove_document("payroll")
        assert collection.names() == ["patients"]
        with pytest.raises(CollectionError):
            collection.remove_document("payroll")

    def test_mismatched_policy_rejected(self):
        subjects = SubjectHierarchy()
        other = SubjectHierarchy()
        with pytest.raises(ValueError):
            SecureCollection(subjects, Policy(other))

    def test_add_existing_document_object(self, collection):
        from repro.xmltree import parse_xml

        doc = parse_xml("<wards/>")
        db = collection.add_document("wards", doc)
        assert db.document is doc


class TestPolicySharing:
    def test_one_policy_governs_all_documents(self, collection):
        session = collection.login("nina")
        # Nurse sees patients fully...
        assert "bed" in session.read_xml("patients")
        # ...but salaries are pruned in the payroll document.
        assert "9000" not in session.read_xml("payroll")
        # Staff admin sees both.
        admin = collection.login("admin_user")
        assert "9000" in admin.read_xml("payroll")

    def test_policy_change_affects_every_document(self, collection):
        session = collection.login("admin_user")
        session.read_xml("payroll")  # warm
        collection.policy.deny("read", "//salary/text()", "staff")
        assert "9000" not in collection.login("admin_user").read_xml("payroll")

    def test_query_all(self, collection):
        session = collection.login("nina")
        counts = session.query_all("count(//*)")
        assert set(counts) == {"patients", "payroll"}
        assert counts["patients"] > 0


class TestWrites:
    def test_write_confined_to_one_document(self, collection):
        session = collection.login("nina")
        result = session.execute(
            "patients", UpdateContent("//bed", "7"), strict=True
        )
        assert result.fully_applied
        assert "7" in session.read_xml("patients")
        # Other document untouched.
        assert "<emp>" in collection.login("admin_user").read_xml("payroll")

    def test_denied_write_in_other_document(self, collection):
        session = collection.login("nina")
        result = session.execute(
            "payroll", Rename("//emp", "employee")
        )
        assert result.affected == []

    def test_shared_audit_log(self, collection):
        session = collection.login("nina")
        session.execute("patients", UpdateContent("//bed", "7"))
        session.execute("payroll", Rename("//emp", "employee"))
        users = {record.user for record in collection.audit}
        assert users == {"nina"}
        assert len(collection.audit) >= 2


class TestSessions:
    def test_role_cannot_login(self, collection):
        with pytest.raises(SubjectError):
            collection.login("nurse")

    def test_unknown_user_cannot_login(self, collection):
        with pytest.raises(SubjectError):
            collection.login("ghost")

    def test_per_document_sessions_cached(self, collection):
        session = collection.login("nina")
        assert session.session("patients") is session.session("patients")
