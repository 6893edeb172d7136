"""The section-2.2 covert channel: open in the insecure baseline,
closed by the secure executor."""

import pytest

from repro.security import SecureWriteExecutor
from repro.security.insecure import InsecureWriteExecutor
from repro.xmltree import serialize
from repro.xupdate import Remove, Rename, UpdateContent


@pytest.fixture
def secretary_view(db):
    return db.build_view("beaufort")


@pytest.fixture
def insecure():
    return InsecureWriteExecutor()


@pytest.fixture
def secure():
    return SecureWriteExecutor()


PROBE = Rename("/patients/robert[diagnosis/text()='pneumonia']", "robert")
MISS = Rename("/patients/robert[diagnosis/text()='influenza']", "robert")


class TestInsecureLeaks:
    def test_probe_hits_on_source(self, secretary_view, insecure):
        """The SQL-style attack: selection count leaks the diagnosis."""
        hit = insecure.apply(secretary_view, PROBE)
        miss = insecure.apply(secretary_view, MISS)
        assert len(hit.selected) == 1
        assert len(miss.selected) == 0
        # The attacker holds the update privilege, so the hit succeeds.
        assert len(hit.affected) == 1

    def test_write_privileges_still_enforced(self, secretary_view, insecure):
        """Insecure = source-evaluated, not privilege-free."""
        result = insecure.apply(
            secretary_view,
            UpdateContent("/patients/robert/diagnosis", "overwritten"),
        )
        # Secretary has no update on diagnosis text even insecurely.
        assert result.affected == []
        assert result.denials

    def test_paper_sql_example_shape(self, secretary_view, insecure):
        """2 rows updated: count(affected) is the leaked bit-count."""
        probe_all = Rename(
            "/patients/*[diagnosis/text()]", "x"
        )
        result = insecure.apply(secretary_view, probe_all)
        assert len(result.selected) == 2  # "2 rows updated"


class TestSecureCloses:
    def test_probe_selects_nothing_on_view(self, secretary_view, secure):
        hit = secure.apply(secretary_view, PROBE)
        miss = secure.apply(secretary_view, MISS)
        # Both probes are indistinguishable: zero selected either way.
        assert len(hit.selected) == len(miss.selected) == 0
        assert hit.affected == miss.affected == []

    def test_remove_probe_also_blind(self, secretary_view, secure):
        probe = Remove("/patients/robert[diagnosis/text()='pneumonia']")
        result = secure.apply(secretary_view, probe)
        assert result.selected == []

    def test_secure_and_insecure_agree_on_clean_operations(
        self, db, secretary_view, secure, insecure
    ):
        """When the PATH touches only visible data, both semantics
        produce the same new database."""
        op = Rename("/patients/franck", "francois")
        a = secure.apply(secretary_view, op)
        b = insecure.apply(secretary_view, op)
        assert a.document.facts() == b.document.facts()
        assert serialize(a.document) == serialize(b.document)


class TestInsecureOtherOperations:
    """The remaining operation branches of the insecure baseline."""

    def test_insecure_append(self, db):
        from repro.xmltree import element
        from repro.xupdate import Append

        view = db.build_view("beaufort")
        result = InsecureWriteExecutor().apply(
            view, Append("/patients", element("albert"))
        )
        assert len(result.affected) == 1  # secretary holds insert

    def test_insecure_insert_before_and_after(self, db):
        from repro.xmltree import element
        from repro.xupdate import InsertAfter, InsertBefore

        view = db.build_view("beaufort")
        executor = InsecureWriteExecutor()
        before = executor.apply(view, InsertBefore("/patients/robert", element("k")))
        after = executor.apply(view, InsertAfter("/patients/robert", element("k")))
        assert len(before.affected) == len(after.affected) == 1

    def test_insecure_remove_checks_delete(self, db):
        view = db.build_view("beaufort")
        result = InsecureWriteExecutor().apply(view, Remove("/patients/franck"))
        # Secretary has no delete privilege anywhere.
        assert result.affected == []
        assert result.denials

    def test_insecure_remove_with_privilege(self, db):
        view = db.build_view("laporte")
        result = InsecureWriteExecutor().apply(
            view, Remove("//diagnosis/text()")
        )
        assert len(result.affected) == 2  # doctor deletes both contents

    def test_insecure_update_content(self, db):
        view = db.build_view("laporte")
        result = InsecureWriteExecutor().apply(
            view, UpdateContent("//diagnosis", "flu")
        )
        assert len(result.affected) == 2

    def test_unknown_operation_type_rejected(self, db):
        view = db.build_view("beaufort")

        class Weird:
            path = "/"

        with pytest.raises(TypeError):
            InsecureWriteExecutor().apply(view, Weird())
