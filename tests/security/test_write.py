"""Secure write access controls (axioms 18-25), operation by operation."""

import pytest

from repro.security import (
    AccessDenied,
    Policy,
    Privilege,
    SecureWriteExecutor,
    SubjectHierarchy,
    ViewBuilder,
)
from repro.xmltree import RESTRICTED, element, parse_xml, serialize, text
from repro.xupdate import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
)


@pytest.fixture
def sx():
    return SecureWriteExecutor()


@pytest.fixture
def builder():
    return ViewBuilder()


def make_db(xml, grants, denies=()):
    """A one-user database: grants/denies are (priv, path) pairs."""
    doc = parse_xml(xml)
    subjects = SubjectHierarchy()
    subjects.add_user("u")
    policy = Policy(subjects)
    for priv, path in grants:
        policy.grant(priv, path, "u")
    for priv, path in denies:
        policy.deny(priv, path, "u")
    return doc, policy


def view_for(builder, doc, policy):
    return builder.build(doc, policy, "u")


class TestRename:
    def test_allowed_with_update_privilege(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("update", "//a")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Rename("//a", "b"))
        assert serialize(result.document) == "<r><b/></r>"
        assert result.fully_applied

    def test_denied_without_update_privilege(self, sx, builder):
        doc, policy = make_db("<r><a/></r>", [("read", "//node()")])
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Rename("//a", "b"))
        assert result.affected == []
        assert len(result.denials) == 1
        assert result.denials[0].privilege is Privilege.UPDATE
        assert serialize(result.document) == "<r><a/></r>"

    def test_invisible_node_not_even_selected(self, sx, builder):
        doc, policy = make_db(
            "<r><a/><b/></r>",
            [("read", "/r"), ("read", "//b"), ("update", "//node()")],
        )
        view = view_for(builder, doc, policy)
        # //a is not in the view, so the PATH selects nothing: no
        # denial is even reported (the user cannot learn a exists).
        result = sx.apply(view, Rename("//a", "x"))
        assert result.selected == []
        assert result.denials == []

    def test_restricted_node_cannot_be_renamed(self, sx, builder):
        """The paper's prose rule: RESTRICTED labels block rename."""
        doc, policy = make_db(
            "<r><a/></r>",
            [
                ("read", "/r"),
                ("position", "//a"),
                ("update", "//node()"),
            ],
        )
        view = view_for(builder, doc, policy)
        # The node appears as RESTRICTED; select it the way the user
        # would -- by the label they see.
        result = sx.apply(view, Rename(f"//{RESTRICTED}", "x"))
        assert len(result.selected) == 1
        assert result.affected == []
        assert any("RESTRICTED" in d.reason for d in result.denials)

    def test_partial_success_across_targets(self, sx, builder):
        doc, policy = make_db(
            "<r><a/><a/></r>",
            [("read", "//node()"), ("update", "/r/a[1]")],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Rename("//a", "b"))
        assert len(result.selected) == 2
        assert len(result.affected) == 1
        assert len(result.denials) == 1
        assert serialize(result.document) == "<r><b/><a/></r>"


class TestUpdateContent:
    def test_requires_update_and_read_on_child(self, sx, builder):
        doc, policy = make_db(
            "<r><a>old</a></r>",
            [("read", "//node()"), ("update", "//a/text()")],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, UpdateContent("//a", "new"))
        assert serialize(result.document) == "<r><a>new</a></r>"

    def test_denied_without_read_on_child(self, sx, builder):
        doc, policy = make_db(
            "<r><a>secret</a></r>",
            [
                ("read", "/r"),
                ("read", "//a"),
                ("position", "//a/text()"),
                ("update", "//a/text()"),
            ],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, UpdateContent("//a", "new"))
        assert result.affected == []
        assert any(d.privilege is Privilege.READ for d in result.denials)
        # The secret is untouched.
        assert "secret" in serialize(result.document)

    def test_denied_without_update_on_child(self, sx, builder):
        doc, policy = make_db("<r><a>old</a></r>", [("read", "//node()")])
        view = view_for(builder, doc, policy)
        result = sx.apply(view, UpdateContent("//a", "new"))
        assert result.affected == []
        assert any(d.privilege is Privilege.UPDATE for d in result.denials)

    def test_invisible_children_not_updated(self, sx, builder):
        """Axioms 20-21 range over child_view, not child_db."""
        doc, policy = make_db(
            "<r><a><x/><y/></a></r>",
            [
                ("read", "/r"),
                ("read", "//a"),
                ("read", "//x"),
                ("update", "//node()"),
            ],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, UpdateContent("//a", "v"))
        new = result.document
        a = new.children(new.root)[0]
        labels = [new.label(c) for c in new.children(a)]
        assert labels == ["v", "y"]  # y invisible -> untouched


class TestAppend:
    def test_allowed_with_insert(self, sx, builder):
        doc, policy = make_db(
            "<r/>", [("read", "//node()"), ("insert", "/r")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Append("/r", element("a", "v")))
        assert serialize(result.document) == "<r><a>v</a></r>"

    def test_denied_without_insert(self, sx, builder):
        doc, policy = make_db("<r/>", [("read", "//node()")])
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Append("/r", element("a")))
        assert result.affected == []
        assert result.denials[0].privilege is Privilege.INSERT

    def test_appends_to_source_even_with_invisible_last_child(
        self, sx, builder
    ):
        doc, policy = make_db(
            "<r><hidden/></r>",
            [("read", "/r"), ("insert", "/r")],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Append("/r", element("new")))
        new = result.document
        labels = [new.label(c) for c in new.children(new.root)]
        assert labels == ["hidden", "new"]


class TestSiblingInsertions:
    def test_insert_before_needs_insert_on_parent(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("insert", "/r")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, InsertBefore("//a", element("z")))
        new = result.document
        assert [new.label(c) for c in new.children(new.root)] == ["z", "a"]

    def test_insert_after_needs_insert_on_parent(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("insert", "/r")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, InsertAfter("//a", element("z")))
        new = result.document
        assert [new.label(c) for c in new.children(new.root)] == ["a", "z"]

    def test_denied_with_insert_only_on_target(self, sx, builder):
        """Insert on the node itself is NOT enough (axioms 23-24)."""
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("insert", "//a")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, InsertBefore("//a", element("z")))
        assert result.affected == []
        assert result.denials[0].privilege is Privilege.INSERT

    def test_document_node_target_denied(self, sx, builder):
        doc, policy = make_db(
            "<r/>", [("read", "//node()"), ("insert", "//node()")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, InsertBefore("/", element("z")))
        assert result.affected == []
        assert len(result.denials) == 1


class TestRemove:
    def test_allowed_with_delete(self, sx, builder):
        doc, policy = make_db(
            "<r><a><b/></a><c/></r>",
            [("read", "//node()"), ("delete", "//a")],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Remove("//a"))
        assert serialize(result.document) == "<r><c/></r>"

    def test_denied_without_delete(self, sx, builder):
        doc, policy = make_db("<r><a/></r>", [("read", "//node()")])
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Remove("//a"))
        assert result.affected == []
        assert result.denials[0].privilege is Privilege.DELETE

    def test_confidentiality_over_integrity(self, sx, builder):
        """Axiom 25: invisible descendants are deleted silently."""
        doc, policy = make_db(
            "<r><a><secret>x</secret></a></r>",
            [("read", "/r"), ("read", "//a"), ("delete", "//a")],
        )
        view = view_for(builder, doc, policy)
        # The user cannot see <secret>, yet removing <a> succeeds and
        # takes the whole subtree with it.
        result = sx.apply(view, Remove("//a"))
        assert result.fully_applied
        assert serialize(result.document) == "<r/>"

    def test_nested_selected_targets(self, sx, builder):
        doc, policy = make_db(
            "<r><a><a/></a></r>",
            [("read", "//node()"), ("delete", "//a")],
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Remove("//a"))
        # Outer removal swallows the inner target.
        assert serialize(result.document) == "<r/>"


class TestStrictModeAndScripts:
    def test_strict_raises_on_denial(self, sx, builder):
        doc, policy = make_db("<r><a/></r>", [("read", "//node()")])
        view = view_for(builder, doc, policy)
        with pytest.raises(AccessDenied) as exc:
            sx.apply(view, Rename("//a", "b"), strict=True)
        assert exc.value.denials

    def test_strict_passes_when_clean(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("update", "//a")]
        )
        view = view_for(builder, doc, policy)
        result = sx.apply(view, Rename("//a", "b"), strict=True)
        assert result.fully_applied

    def test_script_sees_intermediate_state(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>",
            [("read", "//node()"), ("update", "//node()")],
        )
        view = view_for(builder, doc, policy)
        script = UpdateScript(
            (Rename("//a", "b"), Rename("//b", "c"))
        )
        result = sx.apply(view, script)
        assert serialize(result.document) == "<r><c/></r>"

    def test_view_is_rebased_only_between_operations(self, monkeypatch):
        """A one-op ``Session.execute`` builds no view inside the
        executor (there is no next operation to select for); a two-op
        script still selects op 2 on op 1's result."""
        from repro.security import SecureXMLDatabase

        doc, policy = make_db(
            "<r><a/></r>",
            [("read", "//node()"), ("update", "//node()")],
        )
        session = SecureXMLDatabase(doc, policy.subjects, policy).login("u")
        session.view()  # warm: only builds inside execute() count below
        builds = []
        real = ViewBuilder.build

        def counting(self, *args, **kwargs):
            builds.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ViewBuilder, "build", counting)
        session.execute(UpdateScript((Rename("//a", "b"),)))
        assert builds == []
        result = session.execute(
            UpdateScript((Rename("//b", "c"), Rename("//c", "d")))
        )
        assert len(builds) == 1
        assert serialize(result.document) == "<r><d/></r>"

    def test_script_merges_denials(self, sx, builder):
        doc, policy = make_db(
            "<r><a/><keep/></r>",
            [("read", "//node()"), ("update", "//a")],
        )
        view = view_for(builder, doc, policy)
        script = UpdateScript(
            (Rename("//a", "b"), Rename("//keep", "x"))
        )
        result = sx.apply(view, script)
        assert len(result.affected) == 1
        assert len(result.denials) == 1

    def test_source_never_mutated(self, sx, builder):
        doc, policy = make_db(
            "<r><a/></r>", [("read", "//node()"), ("update", "//a")]
        )
        view = view_for(builder, doc, policy)
        sx.apply(view, Rename("//a", "b"))
        assert serialize(doc) == "<r><a/></r>"
