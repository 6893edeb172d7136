"""Unit tests for the XMLDocument store and its geometry accessors."""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree import (
    DOCUMENT_ID,
    DocumentError,
    LSDXScheme,
    NodeKind,
    PersistentDeweyScheme,
    RenumberingScheme,
    XMLDocument,
    document_order_key,
    parse_xml,
    serialize,
)

from tests.strategies import fragments


@pytest.fixture
def medical():
    return parse_xml(
        "<patients>"
        "<franck><service>otolarynology</service>"
        "<diagnosis>tonsillitis</diagnosis></franck>"
        "<robert><service>pneumology</service>"
        "<diagnosis>pneumonia</diagnosis></robert>"
        "</patients>"
    )


class TestConstruction:
    def test_empty_document_has_only_document_node(self):
        doc = XMLDocument()
        assert len(doc) == 1
        assert doc.root is None
        assert doc.document_node.is_document

    def test_add_root(self):
        doc = XMLDocument()
        root = doc.add_root("patients")
        assert doc.root == root
        assert doc.label(root) == "patients"

    def test_second_root_rejected(self):
        doc = XMLDocument()
        doc.add_root("a")
        with pytest.raises(DocumentError):
            doc.add_root("b")
        with pytest.raises(DocumentError):
            doc.append_child(DOCUMENT_ID, NodeKind.ELEMENT, "c")

    def test_text_cannot_have_children(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        t = doc.append_child(root, NodeKind.TEXT, "hello")
        with pytest.raises(DocumentError):
            doc.append_child(t, NodeKind.ELEMENT, "b")

    def test_document_kind_cannot_be_created(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        with pytest.raises(DocumentError):
            doc.append_child(root, NodeKind.DOCUMENT, "/")

    def test_unknown_node_raises(self):
        doc = XMLDocument()
        ghost = DOCUMENT_ID.child(object())  # never installed
        with pytest.raises(DocumentError):
            doc.node(ghost)
        assert doc.get(ghost) is None


class TestGeometry:
    def test_children_in_document_order(self, medical):
        root = medical.root
        kids = medical.children(root)
        assert [medical.label(k) for k in kids] == ["franck", "robert"]

    def test_parent_of_root_is_document(self, medical):
        assert medical.parent(medical.root) == DOCUMENT_ID
        assert medical.parent(DOCUMENT_ID) is None

    def test_descendants_order_and_count(self, medical):
        root = medical.root
        labels = [medical.label(n) for n in medical.descendants(root)]
        assert labels == [
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

    def test_descendants_or_self_includes_self(self, medical):
        root = medical.root
        nodes = list(medical.descendants_or_self(root))
        assert nodes[0] == root
        assert len(nodes) == 11

    def test_ancestors(self, medical):
        franck = medical.children(medical.root)[0]
        service = medical.children(franck)[0]
        chain = list(medical.ancestors(service))
        assert chain == [franck, medical.root, DOCUMENT_ID]

    def test_sibling_axes(self, medical):
        franck, robert = medical.children(medical.root)
        assert medical.following_siblings(franck) == [robert]
        assert medical.preceding_siblings(franck) == []
        assert medical.preceding_siblings(robert) == [franck]
        assert medical.following_siblings(robert) == []

    def test_following_crosses_subtrees(self, medical):
        franck = medical.children(medical.root)[0]
        service = medical.children(franck)[0]
        following = medical.following(service)
        labels = [medical.label(n) for n in following]
        # Everything after service's subtree in document order.
        assert labels == [
            "diagnosis",
            "tonsillitis",
            "robert",
            "service",
            "pneumology",
            "diagnosis",
            "pneumonia",
        ]

    def test_preceding_is_reverse_document_order(self, medical):
        robert = medical.children(medical.root)[1]
        preceding = medical.preceding(robert)
        labels = [medical.label(n) for n in preceding]
        assert labels == [
            "tonsillitis",
            "diagnosis",
            "otolarynology",
            "service",
            "franck",
        ]

    def test_following_and_preceding_partition(self, medical):
        """following + preceding + ancestors + descendants-or-self
        partition the element/text nodes (the XPath axes identity)."""
        all_nodes = set(medical.all_nodes())
        for nid in all_nodes:
            if medical.kind(nid) is NodeKind.ATTRIBUTE:
                continue
            parts = (
                set(medical.following(nid))
                | set(medical.preceding(nid))
                | set(medical.ancestors(nid))
                | set(medical.descendants_or_self(nid))
            )
            non_attr = {
                n for n in all_nodes if medical.kind(n) is not NodeKind.ATTRIBUTE
            }
            assert parts == non_attr

    def test_string_value_of_element(self, medical):
        franck = medical.children(medical.root)[0]
        assert medical.string_value(franck) == "otolarynologytonsillitis"

    def test_string_value_of_text(self, medical):
        franck = medical.children(medical.root)[0]
        service = medical.children(franck)[0]
        t = medical.children(service)[0]
        assert medical.string_value(t) == "otolarynology"


class TestFacts:
    def test_fact_count(self, medical):
        # document node + 11 element/text nodes
        assert len(medical.facts()) == 12

    def test_child_facts_match_children(self, medical):
        facts = medical.child_facts()
        for child, parent in facts:
            assert child in medical.children(parent)
        total = sum(len(medical.children(n)) for n in medical.all_nodes())
        assert len(facts) == total

    def test_path_string(self, medical):
        franck = medical.children(medical.root)[0]
        service = medical.children(franck)[0]
        t = medical.children(service)[0]
        assert medical.path_string(DOCUMENT_ID) == "/"
        assert medical.path_string(franck) == "/patients/franck"
        assert medical.path_string(t) == "/patients/franck/service/text()"

    def test_path_string_disambiguates_same_names(self):
        doc = parse_xml("<r><a/><a/></r>")
        first, second = doc.children(doc.root)
        assert doc.path_string(first) == "/r/a[1]"
        assert doc.path_string(second) == "/r/a[2]"


class TestMutation:
    def test_relabel(self, medical):
        franck = medical.children(medical.root)[0]
        medical.relabel(franck, "francois")
        assert medical.label(franck) == "francois"

    def test_relabel_document_node_rejected(self, medical):
        with pytest.raises(DocumentError):
            medical.relabel(DOCUMENT_ID, "nope")

    def test_remove_subtree_counts_nodes(self, medical):
        franck = medical.children(medical.root)[0]
        removed = medical.remove_subtree(franck)
        assert removed == 5
        assert franck not in medical
        assert len(medical.children(medical.root)) == 1

    def test_remove_document_node_rejected(self, medical):
        with pytest.raises(DocumentError):
            medical.remove_subtree(DOCUMENT_ID)

    def test_insert_before_and_after(self, medical):
        franck, robert = medical.children(medical.root)
        a = medical.insert_before(franck, NodeKind.ELEMENT, "aaa")
        z = medical.insert_after(robert, NodeKind.ELEMENT, "zzz")
        labels = [medical.label(k) for k in medical.children(medical.root)]
        assert labels == ["aaa", "franck", "robert", "zzz"]
        m = medical.insert_after(franck, NodeKind.ELEMENT, "mmm")
        labels = [medical.label(k) for k in medical.children(medical.root)]
        assert labels == ["aaa", "franck", "mmm", "robert", "zzz"]

    def test_insert_sibling_of_document_rejected(self, medical):
        with pytest.raises(DocumentError):
            medical.insert_before(DOCUMENT_ID, NodeKind.ELEMENT, "x")

    def test_existing_ids_stable_across_inserts(self, medical):
        """The paper's persistence requirement (default scheme)."""
        before = {nid for nid in medical.all_nodes()}
        franck = medical.children(medical.root)[0]
        for _ in range(20):
            medical.insert_after(franck, NodeKind.ELEMENT, "filler")
        assert before <= set(medical.all_nodes())
        assert medical.renumber_count == 0

    def test_copy_is_independent(self, medical):
        dup = medical.copy()
        franck = medical.children(medical.root)[0]
        medical.relabel(franck, "changed")
        assert dup.label(franck) == "franck"
        medical.remove_subtree(franck)
        assert franck in dup


class TestAttributes:
    def test_set_and_read_attribute(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        attr = doc.set_attribute(root, "id", "42")
        assert doc.attribute_value(root, "id") == "42"
        assert doc.attributes(root) == [attr]

    def test_overwrite_attribute_keeps_id(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        first = doc.set_attribute(root, "id", "1")
        second = doc.set_attribute(root, "id", "2")
        assert first == second
        assert doc.attribute_value(root, "id") == "2"

    def test_attribute_on_text_rejected(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        t = doc.append_child(root, NodeKind.TEXT, "x")
        with pytest.raises(DocumentError):
            doc.set_attribute(t, "id", "1")

    def test_attributes_not_in_child_axis(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        doc.set_attribute(root, "id", "1")
        doc.append_child(root, NodeKind.ELEMENT, "b")
        assert [doc.label(c) for c in doc.children(root)] == ["b"]
        assert [doc.label(a) for a in doc.attributes(root)] == ["id"]

    def test_missing_attribute_value_is_none(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        assert doc.attribute_value(root, "nope") is None


class TestRenumbering:
    def test_renumbering_scheme_rewrites_ids(self):
        doc = parse_xml("<r><a/><b/></r>", scheme=RenumberingScheme())
        a = doc.children(doc.root)[0]
        doc.insert_after(a, NodeKind.ELEMENT, "m")
        assert doc.renumber_count == 1
        assert doc.renumbered_nodes > 0
        assert doc.last_renumber_mapping  # stale ids are re-resolvable
        labels = [doc.label(k) for k in doc.children(doc.root)]
        assert labels == ["a", "m", "b"]

    def test_renumber_mapping_resolves_stale_ids(self):
        doc = parse_xml("<r><a/><b/></r>", scheme=RenumberingScheme())
        a = doc.children(doc.root)[0]
        doc.insert_after(a, NodeKind.ELEMENT, "m0")
        a = doc.last_renumber_mapping.get(a, a)
        assert doc.label(a) == "a"

    def test_persistent_scheme_never_renumbers(self):
        doc = parse_xml("<r><a/><b/></r>")
        a = doc.children(doc.root)[0]
        for i in range(50):
            doc.insert_after(a, NodeKind.ELEMENT, f"m{i}")
        assert doc.renumber_count == 0
        assert doc.last_renumber_mapping == {}


class TestCommentsAndValues:
    def test_comment_nodes_via_api(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        c = doc.append_child(root, NodeKind.COMMENT, "remark")
        assert doc.kind(c) is NodeKind.COMMENT
        assert c in doc.children(root)
        from repro.xpath import XPathEngine

        engine = XPathEngine()
        assert engine.select(doc, "//comment()") == [c]
        # comment() is excluded from element name tests.
        assert engine.select(doc, "/a/*") == []

    def test_set_value_on_attribute(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        attr = doc.set_attribute(root, "k", "v1")
        doc.set_value(attr, "v2")
        assert doc.attribute_value(root, "k") == "v2"

    def test_set_value_on_document_rejected(self):
        doc = XMLDocument()
        with pytest.raises(DocumentError):
            doc.set_value(DOCUMENT_ID, "x")

    def test_insert_sibling_of_attribute_rejected(self):
        doc = XMLDocument()
        root = doc.add_root("a")
        attr = doc.set_attribute(root, "k", "v")
        with pytest.raises(DocumentError):
            doc.insert_before(attr, NodeKind.ELEMENT, "b")
        with pytest.raises(DocumentError):
            doc.insert_after(attr, NodeKind.ELEMENT, "b")

    def test_mutation_stamp_tracks_all_mutations(self):
        doc = XMLDocument()
        before = doc.mutation_stamp
        root = doc.add_root("a")
        doc.set_attribute(root, "k", "v")
        doc.relabel(root, "b")
        assert doc.mutation_stamp > before


# ----------------------------------------------------------------------
# Ordered containers: sibling lists are kept strictly increasing under
# the stored document-order key (appends are O(1), everything else a
# bisect), whatever sequence of edits produced them.
class TestGraft:
    """``XMLDocument.graft``: the primitive views are grown with."""

    SOURCE = (
        '<r><a x="1" y="2"><b>t</b><c/></a><d><e><f/></e></d><g/></r>'
    )

    def setup_method(self):
        self.source = parse_xml(self.SOURCE)
        self.everything = set(self.source.all_nodes())
        self.r = self.source.root
        self.a, self.d, self.g = self.source.children(self.r)

    def grown(self, keep):
        doc = XMLDocument(self.source.scheme)
        installed = doc.graft(self.source, [self.r], keep)
        return doc, installed

    def test_whole_document_is_reproduced_with_shared_nodes(self):
        doc, installed = self.grown(self.everything)
        assert doc.all_nodes() == self.source.all_nodes()
        assert serialize(doc) == serialize(self.source)
        assert len(installed) == len(self.source) - 1
        assert all(doc.node(n) is self.source.node(n) for n in installed)
        assert_ordered(doc)

    def test_nothing_is_installed_below_an_unkept_node(self):
        e = self.source.children(self.d)[0]
        doc, installed = self.grown(self.everything - {self.d})
        assert self.d not in doc and e not in doc
        assert not set(self.source.subtree(self.d)) & set(installed)
        assert doc.children(self.r) == [self.a, self.g]
        assert_ordered(doc)
        # An unkept root installs nothing and is not an error.
        assert self.grown(self.everything - {self.r})[1] == []

    def test_shuffled_roots_land_in_document_order(self):
        doc, _ = self.grown({self.r})
        stamp = doc.mutation_stamp
        installed = doc.graft(
            self.source, [self.g, self.a, self.d], self.everything
        )
        assert doc.all_nodes() == self.source.all_nodes()
        assert installed[0] == self.g
        assert doc.mutation_stamp > stamp
        assert_ordered(doc)

    def test_attributes_are_grafted_like_any_child(self):
        x, y = self.source.attributes(self.a)
        doc, _ = self.grown(self.everything - {x})
        assert doc.attributes(self.a) == [y]
        assert doc.attribute_value(self.a, "y") == "2"

    def test_root_checks(self):
        doc, _ = self.grown({self.r, self.a})
        e = self.source.children(self.d)[0]
        with pytest.raises(DocumentError, match="already present"):
            doc.graft(self.source, [self.a], self.everything)
        with pytest.raises(DocumentError, match="parent not in"):
            doc.graft(self.source, [e], self.everything)
        with pytest.raises(DocumentError, match="document node"):
            doc.graft(self.source, [DOCUMENT_ID], self.everything)
        other = parse_xml("<r/>")
        with pytest.raises(DocumentError, match="no node"):
            other.graft(other, [other.root.child(7)], self.everything)
        # The checks hold for an unkept root too.
        with pytest.raises(DocumentError, match="already present"):
            doc.graft(self.source, [self.a], set())
        assert doc.all_nodes() == [DOCUMENT_ID, self.r, self.a]


# ----------------------------------------------------------------------
_EDITS = st.tuples(
    st.sampled_from(
        ("append", "append-text", "before", "after", "attr", "remove", "regraft")
    ),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def assert_ordered(doc):
    """The invariants every consumer of an XMLDocument relies on."""
    for parent, kids in doc._children.items():
        keys = [document_order_key(kid) for kid in kids]
        assert all(a < b for a, b in zip(keys, keys[1:])), (parent, kids)
        assert all(kid.parent() == parent and kid in doc for kid in kids)
    everything = doc.all_nodes()
    assert everything == sorted(nid for nid, _ in doc.facts())
    assert len(everything) == len(doc)


def kept_below(source, root, keep):
    """Reference for ``graft``: the node-by-node top-down walk."""
    out, stack = [], [root]
    while stack:
        nid = stack.pop()
        if nid in keep:
            out.append(nid)
            stack.extend(source._children[nid])
    return out


def regraft_shuffled(doc, target, rng):
    """Cut ``target`` and all its siblings out and graft them back as
    one shuffled root set, the way ``ViewCache._patch`` regrows dirty
    regions; roughly half the nodes below the roots are not kept."""
    before = doc.copy()
    roots = list(before._children[target.parent()])
    removed = sum(doc.remove_subtree(root) for root in roots)
    assert removed == len(before) - len(doc)
    assert_ordered(doc)
    rng.shuffle(roots)
    keep = {nid for nid in before.all_nodes() if rng.random() < 0.5}
    keep.update(roots)
    installed = doc.graft(before, roots, keep)
    assert_ordered(doc)
    expected = [nid for root in roots for nid in kept_below(before, root, keep)]
    assert sorted(installed) == sorted(expected)
    assert len(doc) == len(before) - removed + len(installed)
    assert all(doc.node(nid) is before.node(nid) for nid in installed)
    # Parents before children.
    seen = set()
    for nid in installed:
        assert nid in roots or nid.parent() in seen
        seen.add(nid)


@pytest.mark.parametrize(
    "scheme", (PersistentDeweyScheme, LSDXScheme, RenumberingScheme)
)
@given(edits=st.lists(_EDITS, max_size=30))
@settings(max_examples=60, deadline=None)
def test_sibling_lists_stay_ordered_under_any_edit_sequence(scheme, edits):
    doc = XMLDocument(scheme())
    doc.add_root("r")
    for edit, pick, extra in edits:
        nodes = doc.all_nodes()
        elements = [n for n in nodes if doc.kind(n) is NodeKind.ELEMENT]
        inner = [
            n for n in nodes
            if n.level >= 2 and doc.kind(n) is not NodeKind.ATTRIBUTE
        ]
        if edit == "append":
            doc.append_child(
                elements[pick % len(elements)], NodeKind.ELEMENT, "e"
            )
        elif edit == "append-text":
            doc.append_child(elements[pick % len(elements)], NodeKind.TEXT, "t")
        elif edit == "attr":
            doc.set_attribute(
                elements[pick % len(elements)], "abc"[extra % 3], str(extra)
            )
        elif not inner:
            continue
        elif edit == "before":
            doc.insert_before(inner[pick % len(inner)], NodeKind.ELEMENT, "e")
        elif edit == "after":
            doc.insert_after(inner[pick % len(inner)], NodeKind.COMMENT, "c")
        elif edit == "remove":
            target = inner[pick % len(inner)]
            gone = list(doc.subtree(target))
            assert doc.remove_subtree(target) == len(gone)
            # No trace: not a node, not anybody's child, not a parent.
            assert not any(nid in doc for nid in gone)
            assert not any(nid in doc._children for nid in gone)
            assert target not in doc._children[target.parent()]
            assert not set(gone) & set(doc.all_nodes())
        else:
            regraft_shuffled(doc, inner[pick % len(inner)], random.Random(extra))
        assert_ordered(doc)


# ----------------------------------------------------------------------
# copy-on-first-write sibling lists
# ----------------------------------------------------------------------
_COPY_EDITS = st.tuples(
    st.integers(min_value=0, max_value=2),  # which document of the three
    st.sampled_from(
        (
            "append", "before", "after", "attr", "relabel", "value",
            "remove", "graft", "renumber", "recopy",
        )
    ),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def deep_copy(doc):
    """The copy ``XMLDocument.copy`` replaced: every sibling list
    re-listed, so the result shares no list with anything."""
    dup = XMLDocument.__new__(XMLDocument)
    dup.__dict__.update(vars(doc))
    dup._nodes = dict(doc._nodes)
    dup._children = {k: list(v) for k, v in doc._children.items()}
    dup._owned = set(dup._children)
    dup._label_index = dup._kind_index = None
    dup.last_renumber_mapping = dict(doc.last_renumber_mapping)
    return dup


def apply_copy_edit(doc, edit, pick, extra, copy=XMLDocument.copy):
    """One edit, chosen from ``doc``'s own nodes by index, so applying
    it to a document and to its oracle does the same thing; a graft's
    source is taken with ``copy``."""
    nodes = doc.all_nodes()
    elements = [n for n in nodes if doc.kind(n) is NodeKind.ELEMENT]
    inner = [
        n for n in nodes
        if n.level >= 2 and doc.kind(n) is not NodeKind.ATTRIBUTE
    ]
    if edit == "append":
        kind = (NodeKind.ELEMENT, NodeKind.TEXT)[extra % 2]
        doc.append_child(elements[pick % len(elements)], kind, "e")
    elif edit == "attr":
        doc.set_attribute(elements[pick % len(elements)], "ab"[extra % 2], str(extra))
    elif edit == "relabel":
        doc.relabel(nodes[1 + pick % (len(nodes) - 1)], f"l{extra % 3}")
    elif edit == "value":
        doc.set_value(nodes[1 + pick % (len(nodes) - 1)], str(extra))
    elif edit == "renumber":
        if isinstance(doc.scheme, RenumberingScheme):
            doc.renumber_siblings(elements[pick % len(elements)])
    elif not inner:
        return
    elif edit == "before":
        doc.insert_before(inner[pick % len(inner)], NodeKind.ELEMENT, "e")
    elif edit == "after":
        doc.insert_after(inner[pick % len(inner)], NodeKind.COMMENT, "c")
    elif edit == "remove":
        doc.remove_subtree(inner[pick % len(inner)])
    else:  # graft: cut a subtree and grow it back from a copy, half kept
        target = inner[pick % len(inner)]
        source = copy(doc)
        doc.remove_subtree(target)
        keep = {
            nid for index, nid in enumerate(source.subtree(target))
            if index == 0 or (extra >> (index % 20)) & 1
        }
        doc.graft(source, [target], keep)


def assert_same_document(doc, oracle):
    assert doc._nodes == oracle._nodes
    assert {k: list(v) for k, v in doc._children.items()} == oracle._children
    assert doc.renumbered_nodes == oracle.renumbered_nodes
    assert_ordered(doc)


@pytest.mark.parametrize(
    "scheme", (PersistentDeweyScheme, LSDXScheme, RenumberingScheme)
)
@given(
    fragment=fragments(max_depth=3, max_children=3),
    edits=st.lists(_COPY_EDITS, max_size=25),
)
@settings(max_examples=60, deadline=None)
def test_copies_never_see_each_others_writes(scheme, fragment, edits):
    """A document, its copy and a copy of the copy, edited in turn:
    each always equals an oracle kept with deep-listed copies, so no
    write through a shared sibling list shows in another generation,
    in either direction -- renumbering included."""
    first = XMLDocument(scheme())
    fragment.attach(first, DOCUMENT_ID)
    docs = [first, first.copy()]
    docs.append(docs[1].copy())
    oracles = [deep_copy(first), deep_copy(first), deep_copy(first)]
    for which, edit, pick, extra in edits:
        if edit == "recopy":  # replace one document by a copy of another
            source = (which + 1 + extra % 2) % 3
            docs[which] = docs[source].copy()
            oracles[which] = deep_copy(oracles[source])
        else:
            apply_copy_edit(docs[which], edit, pick, extra)
            apply_copy_edit(oracles[which], edit, pick, extra, deep_copy)
        for doc, oracle in zip(docs, oracles):
            assert_same_document(doc, oracle)


def test_copy_shares_sibling_lists_until_the_first_write():
    doc = parse_xml("<r><a><b/></a><c/></r>")
    dup = doc.copy()
    root = doc.root
    assert all(dup._children[k] is v for k, v in doc._children.items())
    dup.append_child(root, NodeKind.ELEMENT, "d")
    # Only the one list written to was copied; the original is intact.
    private = [k for k, v in dup._children.items() if v is not doc._children.get(k)]
    assert sorted(private) == sorted([root, dup.children(root)[-1]])
    assert [doc.label(n) for n in doc.children(root)] == ["a", "c"]
    # The original lost ownership too: its next write copies as well.
    doc.remove_subtree(doc.children(root)[0])
    assert [dup.label(n) for n in dup.children(root)] == ["a", "c", "d"]


# ----------------------------------------------------------------------
# the per-parent name index
# ----------------------------------------------------------------------
def name_answers(doc):
    """``children_named`` for every parent and every label in use (and
    one in none), checked against ``children`` filtered by hand."""
    labels = {doc.label(n) for n in doc.all_nodes()} | {"absent"}
    answers = {}
    for parent in doc.all_nodes():
        for label in labels:
            got = list(doc.children_named(parent, label))
            assert got == [
                kid for kid in doc.children(parent)
                if doc.kind(kid) is NodeKind.ELEMENT and doc.label(kid) == label
            ], (parent, label)
            answers[parent, label] = got
    return answers


@pytest.mark.parametrize(
    "scheme", (PersistentDeweyScheme, LSDXScheme, RenumberingScheme)
)
@given(
    fragment=fragments(max_depth=3, max_children=3),
    edits=st.lists(_COPY_EDITS, max_size=25),
)
@settings(max_examples=60, deadline=None)
def test_children_named_matches_a_scan_in_every_generation(scheme, fragment, edits):
    """A document and two copies share index entries as they share
    sibling lists; after every append, insert, remove, relabel,
    attribute write, graft, renumbering or re-copy each generation's
    ``children_named`` still equals its filtered ``children``, and the
    generations not written to answer exactly as before."""
    first = XMLDocument(scheme())
    fragment.attach(first, DOCUMENT_ID)
    name_answers(first)  # entries built before the copies share them
    docs = [first, first.copy()]
    docs.append(docs[1].copy())
    answers = [name_answers(doc) for doc in docs]
    for which, edit, pick, extra in edits:
        if edit == "recopy":
            docs[which] = docs[(which + 1 + extra % 2) % 3].copy()
        else:
            apply_copy_edit(docs[which], edit, pick, extra)
        for index, doc in enumerate(docs):
            now = name_answers(doc)
            if index != which:
                assert now == answers[index], index
            answers[index] = now


def test_readers_racing_on_a_shared_document_all_see_the_scan():
    """Reader threads build and rebuild one document's entries while a
    writer keeps copying it and writing to the copies (dropping their
    shared entries): every answer any reader gets is the scan's."""
    doc = parse_xml("<r>" + "".join(f"<p{i % 7}><q/></p{i % 7}>" for i in range(60)) + "</r>")
    root = doc.root
    expected = {
        f"p{k}": [c for c in doc.children(root) if doc.label(c) == f"p{k}"]
        for k in range(7)
    }
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            for label, want in expected.items():
                got = list(doc.children_named(root, label))
                if got != want:
                    errors.append((label, got))
            doc._name_index.clear()  # force the next round to rebuild

    def writer():
        while not stop.is_set():
            dup = doc.copy()
            dup.append_child(root, NodeKind.ELEMENT, "p0")
            dup.relabel(dup.children(root)[0], "p1")
            if list(dup.children_named(root, "p0")) == expected["p0"]:
                errors.append("copy sees the original's entry")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
