"""End-to-end reproduction of every worked example in the paper.

Each test class corresponds to one experiment id in DESIGN.md's index
(E1-E11) and asserts the exact output the paper prints.
"""

import pytest

from repro.core import hospital_database
from repro.security import Privilege
from repro.security.insecure import InsecureWriteExecutor
from repro.xmltree import RESTRICTED, element, render_tree
from repro.xupdate import Append, Remove, Rename, UpdateContent


def labels(doc):
    return sorted(doc.label(n) for n in doc.all_nodes())


class TestE1Figure1:
    """Fig. 1: read everywhere, position-only on the patient name."""

    def test_view_shape(self):
        from repro.security import Policy, SubjectHierarchy, ViewBuilder
        from repro.xmltree import parse_xml

        doc = parse_xml(
            "<patients><robert><diagnosis>pneumonia</diagnosis></robert></patients>"
        )
        subjects = SubjectHierarchy()
        subjects.add_user("s")
        policy = Policy(subjects)
        policy.grant("read", "//*", "s")
        policy.deny("read", "/patients/robert", "s")
        policy.grant("position", "/patients/robert", "s")
        view = ViewBuilder().build(doc, policy, "s")
        assert render_tree(view.doc).split("\n") == [
            "/",
            "  /patients",
            "    /RESTRICTED",
            "      /diagnosis",
            "        text()pneumonia",
        ]


class TestE2Figure2:
    """Fig. 2 / equation 1: the fact set F and derived child facts."""

    def test_fact_set(self, doc):
        assert labels(doc) == sorted(
            [
                "/",
                "patients",
                "franck",
                "service",
                "otolarynology",
                "diagnosis",
                "tonsillitis",
                "robert",
                "service",
                "pneumology",
                "diagnosis",
                "pneumonia",
            ]
        )

    def test_derived_child_facts(self, doc):
        """The child relations of section 3.3."""
        child = doc.child_facts()
        root = doc.root
        franck, robert = doc.children(root)
        assert (root, root.parent()) in child  # child(n1, /)
        assert (franck, root) in child
        assert (robert, root) in child
        service = doc.children(franck)[0]
        assert (service, franck) in child


class TestE3ToE6XUpdate:
    """Section 3.4's four update examples, exact new fact sets."""

    def test_e3_rename(self, doc, executor):
        new = executor.apply(doc, Rename("//service", "department")).document
        assert labels(new) == sorted(
            [
                "/",
                "patients",
                "franck",
                "department",
                "otolarynology",
                "diagnosis",
                "tonsillitis",
                "robert",
                "department",
                "pneumology",
                "diagnosis",
                "pneumonia",
            ]
        )

    def test_e4_update(self, doc, executor):
        new = executor.apply(
            doc, UpdateContent("/patients/franck/diagnosis", "pharyngitis")
        ).document
        expected = labels(doc)
        expected.remove("tonsillitis")
        expected.append("pharyngitis")
        assert labels(new) == sorted(expected)

    def test_e5_append(self, doc, executor):
        tree = element(
            "albert", element("service", "cardiology"), element("diagnosis")
        )
        new = executor.apply(doc, Append("/patients", tree)).document
        expected = labels(doc) + ["albert", "service", "cardiology", "diagnosis"]
        assert labels(new) == sorted(expected)
        # Geometry facts the paper derives: preceding_sibling(n7, n1'').
        albert = new.children(new.root)[-1]
        assert new.label(albert) == "albert"
        robert = new.children(new.root)[-2]
        assert new.label(robert) == "robert"
        assert robert in new.preceding_siblings(albert)
        # child(n1'', n1), child(n2'', n1''), ...
        assert albert in new.children(new.root)
        service = new.children(albert)[0]
        assert new.label(service) == "service"

    def test_e6_remove(self, doc, executor):
        new = executor.apply(
            doc, Remove("/patients/franck/diagnosis")
        ).document
        expected = labels(doc)
        expected.remove("diagnosis")
        expected.remove("tonsillitis")
        assert labels(new) == sorted(expected)


class TestE7SubjectHierarchy:
    """Fig. 3 / equations 10-12."""

    def test_equation_10_explicit_facts(self, subjects):
        assert set(subjects.isa_facts()) == {
            ("secretary", "staff"),
            ("doctor", "staff"),
            ("epidemiologist", "staff"),
            ("beaufort", "secretary"),
            ("laporte", "doctor"),
            ("richard", "epidemiologist"),
            ("robert", "patient"),
            ("franck", "patient"),
        }

    def test_axioms_11_12_closure(self, subjects):
        closed = set(subjects.closure_facts())
        # Reflexivity for all ten subjects.
        assert all((s, s) in closed for s in subjects.subjects)
        # Transitivity through the role chain.
        assert ("beaufort", "staff") in closed
        assert ("laporte", "staff") in closed
        assert ("richard", "staff") in closed


class TestE8PolicyAndPerm:
    """Equation 13 + axiom 14 on the running example."""

    def test_priorities_10_to_21(self, policy):
        assert [r.priority for r in policy] == list(range(10, 22))

    def test_rule_1_cancelled_partially_by_rule_2(self, db):
        table = db.permissions_for("beaufort")
        diag_text = db.engine.select(
            db.document, "/patients/franck/diagnosis/text()"
        )[0]
        diag = db.engine.select(db.document, "/patients/franck/diagnosis")[0]
        assert table.holds(diag, Privilege.READ)  # rule 1 survives here
        assert not table.holds(diag_text, Privilege.READ)  # rule 2 wins here
        winner = table.explain(diag_text, Privilege.READ)
        assert winner.priority == 11  # the deny of rule 2

    def test_doctor_unaffected_by_secretary_rules(self, db):
        table = db.permissions_for("laporte")
        diag_text = db.engine.select(
            db.document, "/patients/franck/diagnosis/text()"
        )[0]
        assert table.holds(diag_text, Privilege.READ)


class TestE9Views:
    """The four views printed in section 4.4.1, node for node."""

    def test_secretary_view(self, db):
        assert db.login("beaufort").read_tree().split("\n") == [
            "/",
            "  /patients",
            "    /franck",
            "      /service",
            "        text()otolarynology",
            "      /diagnosis",
            "        text()RESTRICTED",
            "    /robert",
            "      /service",
            "        text()pneumology",
            "      /diagnosis",
            "        text()RESTRICTED",
        ]

    def test_robert_view(self, db):
        assert db.login("robert").read_tree().split("\n") == [
            "/",
            "  /patients",
            "    /robert",
            "      /service",
            "        text()pneumology",
            "      /diagnosis",
            "        text()pneumonia",
        ]

    def test_epidemiologist_view(self, db):
        assert db.login("richard").read_tree().split("\n") == [
            "/",
            "  /patients",
            "    /RESTRICTED",
            "      /service",
            "        text()otolarynology",
            "      /diagnosis",
            "        text()tonsillitis",
            "    /RESTRICTED",
            "      /service",
            "        text()pneumology",
            "      /diagnosis",
            "        text()pneumonia",
        ]

    def test_doctor_view_is_whole_database(self, db):
        view = db.login("laporte").view()
        assert view.facts() == db.document.facts()
        assert view.restricted == frozenset()


class TestE10CovertChannel:
    """Section 2.2: the SQL attack and its closure."""

    PROBE = Rename("/patients/*[diagnosis/text()='pneumonia']", "flagged")

    def test_insecure_leaks(self, db):
        view = db.build_view("beaufort")
        result = InsecureWriteExecutor().apply(view, self.PROBE)
        assert len(result.selected) == 1  # the leak
        assert len(result.affected) == 1  # and the write even succeeds

    def test_secure_blind(self, db):
        result = db.login("beaufort").execute(self.PROBE)
        assert result.selected == []
        assert result.affected == []


class TestE11SecureWriteMatrix:
    """Section 4.4.2: each operation's privilege requirement."""

    def test_doctor_poses_diagnosis(self, db):
        result = db.login("laporte").execute(
            Append("/patients/franck/diagnosis", element("addendum"))
        )
        assert result.fully_applied

    def test_secretary_inserts_medical_file(self, db):
        result = db.login("beaufort").execute(
            Append("/patients", element("albert", element("diagnosis")))
        )
        assert result.fully_applied

    def test_secretary_updates_patient_name(self, db):
        result = db.login("beaufort").execute(
            Rename("/patients/franck", "francois")
        )
        assert result.fully_applied

    def test_secretary_cannot_update_diagnosis(self, db):
        result = db.login("beaufort").execute(
            UpdateContent("/patients/franck/diagnosis", "flu")
        )
        assert result.affected == []
        assert result.denials

    def test_doctor_deletes_diagnosis_content(self, db):
        result = db.login("laporte").execute(
            Remove("/patients/franck/diagnosis/text()")
        )
        assert result.fully_applied

    def test_patient_cannot_write_at_all(self, db):
        result = db.login("robert").execute(
            UpdateContent("/patients/robert/diagnosis", "cured")
        )
        assert result.affected == []

    def test_restricted_rename_via_wildcard_refused(self, db):
        """Epidemiologist selects names as RESTRICTED; even if granted
        update, renaming a RESTRICTED node is refused."""
        db.policy.grant("update", "/patients/*", "epidemiologist")
        result = db.login("richard").execute(Rename("/patients/*", "x"))
        assert len(result.selected) == 2
        assert result.affected == []
        assert all("RESTRICTED" in d.reason for d in result.denials)
