"""Lazy (filter-based) enforcement equals materialized views.

The paper's conclusion asks whether filtered evaluation on the source
can produce answers "compatible with the authorized views", RESTRICTED
labels included.  These tests prove the two strategies coincide --
pointwise on the paper's example and differentially on random
documents, policies, queries and updates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security import SecureWriteExecutor, ViewBuilder
from repro.security.lazy import build_lazy_view
from repro.xmltree import RESTRICTED, render_tree, serialize
from repro.xpath import XPathEngine
from repro.xupdate import Remove, Rename, UpdateContent, UpdateScript

from tests.strategies import (
    RULE_PATHS,
    build_policy,
    build_subjects,
    documents,
    policy_rules,
)

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)
BUILDER = ViewBuilder()


def lazy_view(db, user):
    """The lazy counterpart of ``db.build_view(user)``."""
    return build_lazy_view(db.document, db.policy, user, db.resolver)

QUERY_PATHS = [
    "//*",
    "//node()",
    "//text()",
    "//a",
    "//a/*",
    "/*/*",
    "//*[1]",
    "count(//*)",
    "string(/*)",
    "//a/following-sibling::*",
    "//b/ancestor::*",
]


class TestPaperExample:
    def test_facts_identical(self, db):
        for user in ("beaufort", "robert", "richard", "laporte"):
            lazy = lazy_view(db, user)
            materialized = db.build_view(user)
            assert lazy.facts() == materialized.facts()

    def test_serialization_identical(self, db):
        for user in ("beaufort", "richard"):
            assert serialize(lazy_view(db, user)) == db.login(user).read_xml()

    def test_restricted_labels_surface(self, db):
        lazy = lazy_view(db, "beaufort")
        restricted = [n for n in lazy.all_nodes() if lazy.is_restricted(n)]
        assert len(restricted) == 2  # both diagnosis texts
        for nid in restricted:
            assert lazy.label(nid) == RESTRICTED
            assert db.document.label(nid) != RESTRICTED  # source intact

    def test_invisible_node_raises(self, db):
        from repro.xmltree import DocumentError

        lazy = lazy_view(db, "robert")
        franck = db.engine.select(db.document, "//franck")[0]
        assert franck not in lazy
        with pytest.raises(DocumentError):
            lazy.node(franck)
        assert lazy.get(franck) is None

    def test_string_value_hides_invisible_text(self, db):
        lazy = lazy_view(db, "beaufort")
        # For the secretary, element string-values read RESTRICTED in
        # place of the diagnosis text -- same as the materialized view.
        materialized = db.build_view("beaufort")
        for nid in lazy.all_nodes():
            assert lazy.string_value(nid) == materialized.doc.string_value(nid)

    def test_covert_channel_closed_in_lazy_mode(self, db):
        probe = Rename("/patients/*[diagnosis/text()='pneumonia']", "x")
        result = db.write_executor.apply(lazy_view(db, "beaufort"), probe)
        assert result.selected == []
        assert result.document.facts() == db.document.facts()


@given(documents(), policy_rules())
@settings(max_examples=80, deadline=None)
def test_fact_sets_differentially_equal(doc, rules):
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    lazy = build_lazy_view(doc, policy, "u2")
    materialized = BUILDER.build(doc, policy, "u2")
    assert lazy.facts() == materialized.facts()


@given(documents(), policy_rules(), st.sampled_from(QUERY_PATHS))
@settings(max_examples=100, deadline=None)
def test_queries_differentially_equal(doc, rules, query):
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    lazy = build_lazy_view(doc, policy, "u2")
    materialized = BUILDER.build(doc, policy, "u2")
    assert ENGINE.evaluate(lazy, query) == ENGINE.evaluate(
        materialized.doc, query
    )


def write_operation(kind, path):
    if kind == "rename":
        return Rename(path, "zzz")
    if kind == "update":
        return UpdateContent(path, "zzz")
    return Remove(path)


@given(
    documents(),
    policy_rules(),
    st.lists(
        st.tuples(
            st.sampled_from(["rename", "update", "remove"]),
            st.sampled_from(RULE_PATHS),
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=80, deadline=None)
def test_secure_writes_differentially_equal(doc, rules, steps):
    """The write executor produces identical dbnew under either view --
    for scripts too, where every operation after the first selects on
    ``rebased()`` of the view kind it was handed."""
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    operations = [write_operation(kind, path) for kind, path in steps]
    op = operations[0] if len(operations) == 1 else UpdateScript(operations)
    executor = SecureWriteExecutor()
    via_lazy = executor.apply(build_lazy_view(doc, policy, "u2"), op)
    via_materialized = executor.apply(BUILDER.build(doc, policy, "u2"), op)
    assert via_lazy.document.facts() == via_materialized.document.facts()
    assert via_lazy.selected == via_materialized.selected
    assert len(via_lazy.denials) == len(via_materialized.denials)


@given(documents(), policy_rules())
@settings(max_examples=60, deadline=None)
def test_serialize_works_on_lazy_views(doc, rules):
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    lazy = build_lazy_view(doc, policy, "u1")
    materialized = BUILDER.build(doc, policy, "u1")
    assert serialize(lazy) == serialize(materialized.doc)


class TestLazyRendering:
    def test_read_tree_on_lazy_session(self, db):
        lazy = render_tree(lazy_view(db, "richard"))
        materialized = db.login("richard").read_tree()
        assert lazy == materialized
        assert "/RESTRICTED" in lazy
