"""Unit and property tests for the numbering schemes.

The paper's requirements (section 3.1): geometry derivable from the
numbers alone, and -- for persistent schemes -- numbers never change
across updates.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree import NodeKind, XMLDocument
from repro.xmltree.labels import (
    DOCUMENT_ID,
    LSDXScheme,
    NodeId,
    PersistentDeweyScheme,
    RenumberingRequired,
    RenumberingScheme,
    document_order_key,
    subtree_span,
)


class TestNodeId:
    def test_document_node_is_level_zero(self):
        assert DOCUMENT_ID.level == 0
        assert DOCUMENT_ID.is_document

    def test_document_node_has_no_parent(self):
        with pytest.raises(ValueError):
            DOCUMENT_ID.parent()

    def test_child_and_parent_roundtrip(self):
        child = DOCUMENT_ID.child(Fraction(1))
        assert child.parent() == DOCUMENT_ID
        assert child.level == 1

    def test_ancestors_enumerate_to_document(self):
        nid = DOCUMENT_ID.child(Fraction(1)).child(Fraction(2)).child(Fraction(3))
        chain = list(nid.ancestors())
        assert len(chain) == 3
        assert chain[-1] == DOCUMENT_ID

    def test_is_ancestor_is_proper(self):
        a = DOCUMENT_ID.child(Fraction(1))
        b = a.child(Fraction(1))
        assert a.is_ancestor_of(b)
        assert not a.is_ancestor_of(a)
        assert not b.is_ancestor_of(a)
        assert b.is_descendant_of(a)

    def test_unrelated_nodes_are_not_ancestors(self):
        a = DOCUMENT_ID.child(Fraction(1))
        b = DOCUMENT_ID.child(Fraction(2))
        assert not a.is_ancestor_of(b)
        assert not b.is_ancestor_of(a)

    def test_document_order_is_preorder(self):
        root = DOCUMENT_ID.child(Fraction(1))
        first = root.child(Fraction(1))
        first_kid = first.child(Fraction(1))
        second = root.child(Fraction(2))
        order = sorted(
            [second, first_kid, root, first, DOCUMENT_ID],
            key=document_order_key,
        )
        assert order == [DOCUMENT_ID, root, first, first_kid, second]

    def test_ordering_operators(self):
        a = DOCUMENT_ID.child(Fraction(1))
        b = DOCUMENT_ID.child(Fraction(2))
        assert a < b and a <= b and b > a and b >= a
        assert a <= a and a >= a

    def test_hashable_and_equal_by_value(self):
        a = DOCUMENT_ID.child(Fraction(1))
        b = DOCUMENT_ID.child(Fraction(1))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


# ----------------------------------------------------------------------
# The NodeId contract against a reference.  An id stores its hash and a
# flat document-order key; the definitions it replaced are re-stated
# here (value equality on the component tuples, hash(components), a
# tagged tuple of Fractions compared per call) and must still hold.
# ----------------------------------------------------------------------
def reference_key(nid):
    return tuple(
        (0, c) if isinstance(c, Fraction) else (1, c) for c in nid.components
    )


def reference_is_ancestor(a, b):
    n = len(a.components)
    return n < len(b.components) and b.components[:n] == a.components


_SCHEMES = (PersistentDeweyScheme, LSDXScheme, RenumberingScheme)


@st.composite
def inserted_ids(draw):
    """Every id a random append / insert-before / insert-after sequence
    ever produced under one scheme: repeated insert-before walks the
    components through zero into the negatives, insert-between makes
    mid-point Fractions, LSDX makes strings (ids a renumbering retired
    stay in the list; they are still values)."""
    doc = XMLDocument(draw(st.sampled_from(_SCHEMES))())
    ids = [doc.add_root("r")]
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("append", "before", "after")),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=25,
        )
    )
    for edit, pick in edits:
        live = [nid for nid in ids if nid in doc]
        target = live[pick % len(live)]
        if edit == "append" or target.level == 1:
            ids.append(doc.append_child(target, NodeKind.ELEMENT, "e"))
        elif edit == "before":
            ids.append(doc.insert_before(target, NodeKind.ELEMENT, "e"))
        else:
            ids.append(doc.insert_after(target, NodeKind.ELEMENT, "e"))
    return [DOCUMENT_ID, *ids, *doc.all_nodes()]


class TestNodeIdContract:
    @given(ids=inserted_ids())
    @settings(max_examples=150, deadline=None)
    def test_identity_and_order_agree_with_the_reference(self, ids):
        for a in ids:
            assert hash(a) == hash(a.components)
            for b in ids:
                assert (a == b) == (a.components == b.components)
                assert (a != b) == (a.components != b.components)
                ka, kb = reference_key(a), reference_key(b)
                assert (a < b) == (ka < kb)
                assert (a <= b) == (ka <= kb)
                assert (a > b) == (ka > kb)
                assert (a >= b) == (ka >= kb)
        by_reference = sorted(ids, key=reference_key)
        assert sorted(ids) == by_reference
        assert sorted(ids, key=document_order_key) == by_reference

    @given(ids=inserted_ids())
    @settings(max_examples=150, deadline=None)
    def test_ancestry_is_the_key_prefix_relation(self, ids):
        ordered = sorted(set(ids))
        for a in ids:
            ka = document_order_key(a)
            below = []
            for b in ids:
                kb = document_order_key(b)
                is_prefix = len(ka) < len(kb) and kb[: len(ka)] == ka
                assert a.is_ancestor_of(b) == is_prefix
                assert a.is_ancestor_of(b) == reference_is_ancestor(a, b)
                assert b.is_descendant_of(a) == is_prefix
            lo, hi = subtree_span(ordered, a)
            assert ordered[lo:hi] == [
                b for b in ordered if b == a or a.is_ancestor_of(b)
            ]

    @given(ids=inserted_ids())
    @settings(max_examples=50, deadline=None)
    def test_copies_and_pickles_are_equal_ids(self, ids):
        for nid in ids:
            for clone in (
                copy.copy(nid),
                copy.deepcopy(nid),
                pickle.loads(pickle.dumps(nid)),
                NodeId(nid.components),
                nid.parent().child(nid.components[-1]) if nid.level else nid,
            ):
                assert clone == nid and hash(clone) == hash(nid)
                assert clone.components == nid.components
                assert not clone < nid and not nid < clone
                assert document_order_key(clone) == document_order_key(nid)
                if nid.level:
                    assert nid.parent() < clone

    def test_integral_components_are_one_value_however_spelt(self):
        a, b = NodeId((Fraction(2),)), NodeId((2,))
        assert a == b and hash(a) == hash(b)
        assert not a < b and not b < a
        assert NodeId((Fraction(4, 2), Fraction(3, 2))) == NodeId(
            (2, Fraction(6, 4))
        )

    def test_integral_components_are_plain_ints_in_the_key(self):
        nid = NodeId((Fraction(1), Fraction(-3), Fraction(5, 2), Fraction(0)))
        parts = document_order_key(nid)[1::2]
        assert [type(p) for p in parts] == [int, int, Fraction, int]
        assert parts == (1, -3, Fraction(5, 2), 0)

    def test_schemes_stay_totally_ordered_against_each_other(self):
        # Never happens inside one document; the tag keeps sorting total.
        rational, lsdx = NodeId((Fraction(7),)), NodeId(("b",))
        assert rational < lsdx and not lsdx < rational

    def test_ids_are_immutable_and_carry_no_dict(self):
        nid = DOCUMENT_ID.child(Fraction(1))
        with pytest.raises(AttributeError):
            nid.components = ()
        with pytest.raises(AttributeError):
            nid.anything_else = 1
        with pytest.raises(AttributeError):
            del nid.components
        assert not hasattr(nid, "__dict__")
        assert nid.components == (Fraction(1),)


class TestPersistentDeweyScheme:
    def setup_method(self):
        self.scheme = PersistentDeweyScheme()

    def test_is_persistent(self):
        assert self.scheme.persistent

    def test_initial_component(self):
        assert self.scheme.initial_component() == Fraction(1)

    def test_between_two_components_is_midpoint(self):
        mid = self.scheme.component_between(Fraction(1), Fraction(2))
        assert Fraction(1) < mid < Fraction(2)

    def test_before_first(self):
        assert self.scheme.component_between(None, Fraction(1)) < Fraction(1)

    def test_after_last(self):
        assert self.scheme.component_between(Fraction(5), None) > Fraction(5)

    def test_empty_sibling_list(self):
        assert self.scheme.component_between(None, None) == Fraction(1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            self.scheme.component_between(Fraction(2), Fraction(1))

    def test_child_id_between_validates_parent(self):
        parent = DOCUMENT_ID.child(Fraction(1))
        stranger = DOCUMENT_ID.child(Fraction(2)).child(Fraction(1))
        with pytest.raises(ValueError):
            self.scheme.child_id_between(parent, stranger, None)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50))
    def test_random_insertions_never_collide(self, positions):
        """Dense insertion: components stay unique and ordered."""
        components = [self.scheme.initial_component()]
        for pos in positions:
            index = pos % (len(components) + 1)
            lo = components[index - 1] if index > 0 else None
            hi = components[index] if index < len(components) else None
            fresh = self.scheme.component_between(lo, hi)
            if lo is not None:
                assert fresh > lo
            if hi is not None:
                assert fresh < hi
            components.insert(index, fresh)
        assert components == sorted(components)
        assert len(set(components)) == len(components)


class TestLSDXScheme:
    def setup_method(self):
        self.scheme = LSDXScheme()

    def test_is_persistent(self):
        assert self.scheme.persistent

    def test_initial_key_not_ending_in_a(self):
        assert not self.scheme.initial_component().endswith("a")

    def test_between_adjacent_letters(self):
        key = self.scheme.component_between("b", "c")
        assert "b" < key < "c"

    def test_between_far_letters(self):
        key = self.scheme.component_between("b", "x")
        assert "b" < key < "x"

    def test_before_first(self):
        key = self.scheme.component_between(None, "b")
        assert key < "b"

    def test_after_last(self):
        key = self.scheme.component_between("z", None)
        assert key > "z"

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            self.scheme.component_between("c", "b")

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=60))
    @settings(max_examples=60)
    def test_random_insertions_never_collide(self, positions):
        components = [self.scheme.initial_component()]
        for pos in positions:
            index = pos % (len(components) + 1)
            lo = components[index - 1] if index > 0 else None
            hi = components[index] if index < len(components) else None
            fresh = self.scheme.component_between(lo, hi)
            if lo is not None:
                assert fresh > lo
            if hi is not None:
                assert fresh < hi
            components.insert(index, fresh)
        assert components == sorted(components)
        assert len(set(components)) == len(components)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=40))
    @settings(max_examples=60)
    def test_keys_never_end_in_minimal_letter(self, positions):
        """The LSDX invariant that keeps room below every key."""
        components = [self.scheme.initial_component()]
        for pos in positions:
            index = pos % (len(components) + 1)
            lo = components[index - 1] if index > 0 else None
            hi = components[index] if index < len(components) else None
            fresh = self.scheme.component_between(lo, hi)
            components.insert(index, fresh)
        for key in components:
            assert not key.endswith("a"), key


class TestRenumberingScheme:
    def setup_method(self):
        self.scheme = RenumberingScheme()

    def test_is_not_persistent(self):
        assert not self.scheme.persistent

    def test_append_works_without_renumbering(self):
        assert self.scheme.component_between(Fraction(3), None) == Fraction(4)

    def test_gap_insert_works(self):
        mid = self.scheme.component_between(Fraction(2), Fraction(6))
        assert Fraction(2) < mid < Fraction(6)

    def test_adjacent_insert_requires_renumbering(self):
        with pytest.raises(RenumberingRequired):
            self.scheme.component_between(Fraction(1), Fraction(2))

    def test_before_first_at_floor_requires_renumbering(self):
        with pytest.raises(RenumberingRequired):
            self.scheme.component_between(None, Fraction(1))
