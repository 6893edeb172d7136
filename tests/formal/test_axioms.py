"""The formal transcription of axioms 11-25 on the paper's example."""

import pytest

from repro.formal import FormalModel
from repro.security import (
    PermissionResolver,
    Privilege,
    SecureWriteExecutor,
    SecureXMLDatabase,
    ViewBuilder,
)
from repro.xmltree import RESTRICTED, NodeKind, element
from repro.xupdate import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
)


@pytest.fixture
def fm(doc, subjects, policy):
    return FormalModel(doc, subjects, policy)


class TestIsaClosure:
    def test_matches_procedural_closure(self, fm, subjects):
        assert fm.derive_isa() == set(subjects.closure_facts())

    def test_reflexivity_axiom_11(self, fm, subjects):
        closure = fm.derive_isa()
        for s in subjects.subjects:
            assert (s, s) in closure

    def test_transitivity_axiom_12(self, fm):
        closure = fm.derive_isa()
        assert ("laporte", "staff") in closure


class TestPermAxiom14:
    @pytest.mark.parametrize(
        "user", ["beaufort", "laporte", "richard", "robert", "franck"]
    )
    def test_matches_procedural_for_every_user(
        self, fm, doc, policy, user, resolver
    ):
        table = resolver.resolve(doc, policy, user)
        procedural = {
            (nid, priv.value)
            for priv in Privilege
            for nid in table.nodes_with(priv)
        }
        assert fm.derive_perm(user) == procedural

    def test_secretary_denied_diagnosis_read(self, fm, doc):
        from repro.xpath import XPathEngine

        text_node = XPathEngine().select(
            doc, "/patients/franck/diagnosis/text()"
        )[0]
        perm = fm.derive_perm("beaufort")
        assert (text_node, "read") not in perm
        assert (text_node, "position") in perm


class TestViewAxioms15To17:
    @pytest.mark.parametrize(
        "user", ["beaufort", "laporte", "richard", "robert", "franck"]
    )
    def test_matches_procedural_view(
        self, fm, doc, policy, user, view_builder
    ):
        procedural = view_builder.build(doc, policy, user).facts()
        assert fm.derive_view(user) == procedural

    def test_secretary_sees_restricted_labels(self, fm):
        view = fm.derive_view("beaufort")
        labels = {v for (_n, v) in view}
        assert RESTRICTED in labels
        assert "tonsillitis" not in labels

    def test_doctor_sees_everything(self, fm, doc):
        assert fm.derive_view("laporte") == doc.facts()


class TestWriteAxioms18To25:
    CASES = [
        # (user, operation) pairs exercising each axiom group.
        ("laporte", UpdateContent("/patients/franck/diagnosis", "flu")),
        ("beaufort", UpdateContent("/patients/franck/diagnosis", "flu")),
        ("beaufort", Rename("/patients/franck", "francois")),
        ("laporte", Rename("/patients/franck", "francois")),
        ("laporte", Remove("/patients/franck/diagnosis/text()")),
        ("beaufort", Remove("/patients/franck")),
        (
            "beaufort",
            Append("/patients", element("albert", element("diagnosis"))),
        ),
        ("laporte", Append("//diagnosis", element("note"))),
        ("beaufort", InsertBefore("/patients/robert", element("karl"))),
        ("beaufort", InsertAfter("/patients/franck", element("karl"))),
    ]

    @pytest.mark.parametrize("user,op", CASES)
    def test_dbnew_matches_procedural(
        self, fm, doc, policy, user, op, view_builder
    ):
        view = view_builder.build(doc, policy, user)
        procedural = SecureWriteExecutor().apply(view, op).document.facts()
        assert fm.derive_dbnew(user, op) == procedural

    def test_rename_restricted_blocked_formally(
        self, doc, subjects, policy, view_builder
    ):
        """The RESTRICTED-rename prose rule in the formal layer."""
        fm = FormalModel(doc, subjects, policy)
        # Epidemiologist richard: patient names are RESTRICTED but he
        # has no update privilege anyway, so grant him one to isolate
        # the RESTRICTED check.
        policy.grant("update", "/patients/*", "epidemiologist")
        fm2 = FormalModel(doc, subjects, policy)
        op = Rename("/patients/*", "x")
        view = view_builder.build(doc, policy, "richard")
        procedural = SecureWriteExecutor().apply(view, op)
        formal = fm2.derive_dbnew("richard", op)
        assert procedural.affected == []  # all targets RESTRICTED
        assert formal == doc.facts()  # formally unchanged too


class TestStarMatchesComments:
    """The paper-compat ``*`` matches elements, text and comments in the
    Datalog transcription exactly as in the engine."""

    @staticmethod
    def commented_database():
        db = SecureXMLDatabase.from_xml("<a><b/></a>")
        db.document.append_child(db.document.root, NodeKind.COMMENT, "x")
        db.subjects.add_user("u")
        return db

    def test_star_grants_comments_like_the_engine(self):
        db = self.commented_database()
        db.policy.grant("read", "//*", "u")
        (comment,) = db.document.nodes_with_kind(NodeKind.COMMENT)
        table = db.permissions_for("u")
        assert table.holds(comment, Privilege.READ)
        held = {(nid, "read") for nid in table.nodes_with(Privilege.READ)}
        assert FormalModel(db.document, db.subjects, db.policy).derive_perm(
            "u"
        ) == held

    def test_star_removes_comments_on_the_view_like_the_engine(self):
        db = self.commented_database()
        for privilege in ("read", "delete"):
            db.policy.grant(privilege, "//*", "u")
        op = Remove("/a/*")
        procedural = SecureWriteExecutor().apply(db.build_view("u"), op)
        assert procedural.document.facts() == {
            (nid, label)
            for nid, label in db.document.facts()
            if nid.level < 2
        }
        formal = FormalModel(db.document, db.subjects, db.policy)
        assert formal.derive_dbnew("u", op) == procedural.document.facts()
