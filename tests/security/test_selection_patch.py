"""Views patched on a commit's touched roots against two oracles.

A commit patches no rule-path selection any more: the permission
automaton decides each node from its root-to-node label chain, which
only the commit's touched subtrees change, and an exception (predicate)
rule's selection is evaluated again on the new generation.  The view
cache then re-grows a held view on the touched roots plus each
exception selection's old-vs-new difference.  Each case here commits
one change shape to a database whose user reads one rule path (and
sees everything else as RESTRICTED), and holds the patched table and
view to (a) evaluating the path on the new document and (b) the
priority replay the resolver ran before decisions were made on demand
(:mod:`repro.testing.perm_oracle`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateAborted
from repro.security import Policy, Privilege, SecureXMLDatabase, SubjectHierarchy
from repro.testing.perm_oracle import granted, replay, replay_view
from repro.xmltree import NodeKind, element, parse_xml, serialize, text
from repro.xmltree.document import DocumentError
from repro.xmltree.labels import document_order_key
from repro.xupdate import (
    Append,
    ChangeSet,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateScript,
    XUpdateError,
)

from tests.security.test_view_maintenance_properties import update_operations
from tests.strategies import documents
from tests.xpath.test_skeleton_differential import patchable_paths

#: Rule paths outside the automaton's fragment: their selections are
#: evaluated again on every commit and diffed.
EXCEPTION_PATHS = ("//a[b]", "//b[1]", "//*[text()='one']", "//a/@x | //b")


def database(doc, path: str) -> SecureXMLDatabase:
    """User ``u`` reads ``path`` and holds ``position`` everywhere."""
    subjects = SubjectHierarchy()
    subjects.add_user("u")
    policy = Policy(subjects)
    policy.grant("position", "//node()", "u")
    policy.grant("read", path, "u")
    return SecureXMLDatabase(doc, subjects, policy)


def selected(db) -> tuple:
    """The nodes ``u`` reads, from the served table, in document order."""
    table = db.permissions_for("u")
    return tuple(sorted(table.nodes_with(Privilege.READ), key=document_order_key))


def patch_and_check(db, path, commit):
    """Warm ``u``'s view, ``commit()``, and hold the patched view and its
    table to both oracles.  Returns ``commit()``'s result."""
    db.build_view("u")
    before = db.stats()
    result = commit()
    view = db.build_view("u")
    assert db.stats()["view_incremental_patches"] == (
        before["view_incremental_patches"] + 1
    )
    assert db.stats()["view_full_builds"] == before["view_full_builds"]
    doc = db.document
    assert list(selected(db)) == db.engine.select(
        doc, path, variables={"USER": "u"}
    )
    winners = replay(db.engine, doc, db.policy.applicable_rules("u"), "u")
    assert view.permissions.nodes_with(Privilege.READ) == granted(winners)[
        Privilege.READ
    ]
    oracle_doc, restricted = replay_view(doc, winners)
    assert serialize(view.doc) == serialize(oracle_doc)
    assert view.restricted == restricted
    return result


@given(
    doc=documents(),
    path=st.one_of(patchable_paths(), st.sampled_from(EXCEPTION_PATHS)),
    ops=st.lists(update_operations(), min_size=1, max_size=4),
    as_script=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_patch_equals_reevaluation_and_the_replaced_algorithm(
    doc, path, ops, as_script
):
    db = database(doc, path)
    # One script publishes one merged change-set (nested and repeated
    # roots, nodes added then removed); single operations publish one each.
    steps = [UpdateScript(ops)] if as_script else ops
    for step in steps:
        try:
            patch_and_check(db, path, lambda: db.admin_update(step))
        except (XUpdateError, UpdateAborted, DocumentError):
            continue  # not applicable to this document shape


class TestForcedShapes:
    """The change shapes the patch has to get right, one at a time."""

    XML = (
        "<r><a><b>one</b><b>two</b></a><c/><a><b>three</b><d><b>deep</b></d></a>"
        "</r>"
    )

    def db(self, path):
        return database(parse_xml(self.XML), path)

    def test_nested_touched_roots(self):
        db = self.db("//b")
        before = selected(db)
        script = UpdateScript(
            [
                Append("/r/c", element("a", element("b", text("new")))),
                Append("/r/c/a", element("b", text("newer"))),
                Rename("/r/c/a/b[1]", "d"),
            ]
        )
        result = patch_and_check(db, "//b", lambda: db.admin_update(script))
        roots = result.changes.added | result.changes.relabelled
        assert any(x.is_ancestor_of(y) for x in roots for y in roots)
        assert len(selected(db)) == len(before) + 1

    def test_removed_root_that_was_selected(self):
        db = self.db("//a")
        before = selected(db)
        result = patch_and_check(db, "//a", lambda: db.admin_update(Remove("/r/a[1]")))
        assert result.changes.removed <= set(before)
        assert selected(db) == before[1:]

    def test_removed_ancestor_takes_a_run_of_selected_nodes(self):
        db = self.db("//b")
        before = selected(db)
        patch_and_check(db, "//b", lambda: db.admin_update(Remove("/r/a[2]")))
        assert selected(db) == before[:2]

    def test_additions_before_the_first_and_after_the_last_selected(self):
        db = self.db("/r/a")
        before = selected(db)
        script = UpdateScript(
            [
                InsertBefore("/r/a[1]", element("a")),
                InsertAfter("/r/a[last()]", element("a")),
            ]
        )
        patch_and_check(db, "/r/a", lambda: db.admin_update(script))
        after = selected(db)
        assert after[1:-1] == before
        assert after[0] < before[0] and before[-1] < after[-1]

    def test_change_touching_nothing_selected_returns_the_same_tuple(self):
        db = self.db("//b")
        before = selected(db)
        result = patch_and_check(
            db, "//b", lambda: db.admin_update(Append("/r/c", element("d", text("x"))))
        )
        assert result.changes
        assert selected(db) == before
        patch_and_check(db, "//b", lambda: db.commit(db.document.copy(), ChangeSet()))
        assert selected(db) == before

    def test_relabel_moves_a_node_between_selections(self):
        bs, ds = self.db("//b"), self.db("//d")
        old_bs, old_ds = selected(bs), selected(ds)
        for db, path in ((bs, "//b"), (ds, "//d")):
            patch_and_check(
                db, path, lambda: db.admin_update(Rename("/r/a[1]/b[2]", "d"))
            )
        new_bs, new_ds = selected(bs), selected(ds)
        assert len(new_bs) == len(old_bs) - 1 and len(new_ds) == len(old_ds) + 1
        assert ds.document.kind(new_ds[0]) is NodeKind.ELEMENT
