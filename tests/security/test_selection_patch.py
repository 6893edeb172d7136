"""``_patch_selection`` against two oracles.

The resolver keeps every cached rule-path selection in document order
and, on a commit, cuts each touched subtree out of it as one contiguous
run (two bisects) and merges the re-matched nodes back in.  That must
be indistinguishable from (a) evaluating the path on the new document
and (b) the scan-every-node-then-sort algorithm it replaced, which is
kept here verbatim as the reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateAborted
from repro.security.perm import _patch_selection
from repro.xmltree import NodeKind, element, parse_xml, text
from repro.xmltree.document import DocumentError
from repro.xmltree.labels import document_order_key
from repro.xpath.skeleton import analyze_path
from repro.xupdate import (
    Append,
    ChangeSet,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateScript,
    XUpdateError,
    XUpdateExecutor,
)

from tests.security.test_view_maintenance_properties import update_operations
from tests.strategies import documents
from tests.xpath.test_skeleton_differential import _ENGINES, patchable_paths


def scan_and_sort(nodes, new_doc, changes, skeleton, star_matches_text):
    """The algorithm ``_patch_selection`` replaced, unchanged."""
    touched = changes.added | changes.relabelled | changes.removed
    surviving = [
        nid
        for nid in nodes
        if nid in new_doc
        and not any(
            root == nid or root.is_ancestor_of(nid) for root in touched
        )
    ]
    candidates = set()
    for root in changes.added | changes.relabelled:
        if root in new_doc:
            candidates.update(new_doc.subtree(root))
    for nid in changes.revalued:
        if nid in new_doc:
            candidates.add(nid)
    matched = [
        nid
        for nid in candidates
        if skeleton.matches(new_doc, nid, star_matches_text)
    ]
    return tuple(
        sorted(set(surviving) | set(matched), key=document_order_key)
    )


def patch_and_check(selection, doc, changes, path, star=False):
    """Patch ``selection`` across ``changes`` and hold it to both oracles."""
    skeleton = analyze_path(path)
    assert skeleton is not None and skeleton.patchable
    patched, moved = _patch_selection(selection, doc, changes, skeleton, star)
    assert isinstance(patched, tuple)
    assert moved == set(selection) ^ set(patched)
    if not moved:
        assert patched is selection
    assert list(patched) == _ENGINES[star].select(doc, path)
    assert patched == scan_and_sort(selection, doc, changes, skeleton, star)
    return patched


@given(
    doc=documents(),
    path=patchable_paths(),
    star=st.booleans(),
    ops=st.lists(update_operations(), min_size=1, max_size=4),
    as_script=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_patch_equals_reevaluation_and_the_replaced_algorithm(
    doc, path, star, ops, as_script
):
    executor = XUpdateExecutor(_ENGINES[star])
    selection = tuple(_ENGINES[star].select(doc, path))
    # One script publishes one merged change-set (nested and repeated
    # roots, nodes added then removed); single operations publish one each.
    steps = [UpdateScript(ops)] if as_script else ops
    for step in steps:
        try:
            result = executor.apply(doc, step)
        except (XUpdateError, UpdateAborted, DocumentError):
            continue  # not applicable to this document shape
        patched = patch_and_check(
            selection, result.document, result.changes, path, star
        )
        if not result.changes:
            assert patched is selection
        doc, selection = result.document, patched


class TestForcedShapes:
    """The cases the run-cutting has to get right, one at a time."""

    XML = (
        "<r><a><b>one</b><b>two</b></a><c/><a><b>three</b><d><b>deep</b></d></a>"
        "</r>"
    )

    def setup_method(self):
        self.doc = parse_xml(self.XML)
        self.engine = _ENGINES[False]
        self.executor = XUpdateExecutor(self.engine)

    def select(self, path):
        return tuple(self.engine.select(self.doc, path))

    def test_nested_touched_roots(self):
        selection = self.select("//b")
        script = UpdateScript(
            [
                Append("/r/c", element("a", element("b", text("new")))),
                Append("/r/c/a", element("b", text("newer"))),
                Rename("/r/c/a/b[1]", "d"),
            ]
        )
        result = self.executor.apply(self.doc, script)
        roots = result.changes.added | result.changes.relabelled
        assert any(x.is_ancestor_of(y) for x in roots for y in roots)
        patched = patch_and_check(
            selection, result.document, result.changes, "//b"
        )
        assert len(patched) == len(selection) + 1

    def test_removed_root_that_was_selected(self):
        selection = self.select("//a")
        result = self.executor.apply(self.doc, Remove("/r/a[1]"))
        assert result.changes.removed <= set(selection)
        patched = patch_and_check(
            selection, result.document, result.changes, "//a"
        )
        assert patched == selection[1:]

    def test_removed_ancestor_takes_a_run_of_selected_nodes(self):
        selection = self.select("//b")
        result = self.executor.apply(self.doc, Remove("/r/a[2]"))
        patched = patch_and_check(
            selection, result.document, result.changes, "//b"
        )
        assert patched == selection[:2]

    def test_additions_before_the_first_and_after_the_last_selected(self):
        selection = self.select("/r/a")
        script = UpdateScript(
            [
                InsertBefore("/r/a[1]", element("a")),
                InsertAfter("/r/a[last()]", element("a")),
            ]
        )
        result = self.executor.apply(self.doc, script)
        patched = patch_and_check(
            selection, result.document, result.changes, "/r/a"
        )
        assert patched[1:-1] == selection
        assert patched[0] < selection[0] and selection[-1] < patched[-1]

    def test_change_touching_nothing_selected_returns_the_same_tuple(self):
        selection = self.select("//b")
        result = self.executor.apply(
            self.doc, Append("/r/c", element("d", text("x")))
        )
        assert result.changes
        patched = patch_and_check(
            selection, result.document, result.changes, "//b"
        )
        assert patched is selection
        assert patch_and_check(selection, self.doc, ChangeSet(), "//b") is selection

    def test_revalued_node_survives_and_rematches_once(self):
        # No operation publishes ``revalued`` yet, so build the delta by
        # hand: the node is selected, lies outside every cut, and is
        # re-matched -- it must not appear twice.
        holder = self.engine.select(self.doc, "/r/c")[0]
        changes = ChangeSet()
        changes.note_revalued(holder, "c")
        for path in ("//c", "//node()", "//b"):
            selection = self.select(path)
            patched = patch_and_check(selection, self.doc, changes, path)
            assert patched is selection

    def test_relabel_moves_a_node_between_selections(self):
        bs, ds = self.select("//b"), self.select("//d")
        result = self.executor.apply(self.doc, Rename("/r/a[1]/b[2]", "d"))
        new_bs = patch_and_check(bs, result.document, result.changes, "//b")
        new_ds = patch_and_check(ds, result.document, result.changes, "//d")
        assert len(new_bs) == len(bs) - 1 and len(new_ds) == len(ds) + 1
        assert self.doc.kind(new_ds[0]) is NodeKind.ELEMENT
