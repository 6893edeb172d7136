"""The view grower against its independent oracles.

``repro.security.view.grow`` is the only implementation of axioms
15-17 the product serves from -- a first build and a cache patch both
go through it.  Three other statements of the same axioms pin it:

- the Datalog theory (:mod:`repro.formal`), a literal transcription;
- :class:`~repro.security.lazy.LazyView`, which checks the axioms per
  node access and materializes nothing;
- the generated stylesheet (:mod:`repro.xslt.security`) applied to the
  source.

Documents carry attributes.  The formal path compiler has no attribute
axis, so the Datalog comparison draws element/text rule paths only; the
two procedural oracles also see rules that select attributes, which is
where value masking lives.  (Patched == fresh build after random
commits is ``test_view_maintenance_properties``.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import FormalModel
from repro.security import ViewBuilder
from repro.security.lazy import build_lazy_view
from repro.xmltree import RESTRICTED, NodeKind, parse_xml, serialize
from repro.xslt import apply_stylesheet, view_stylesheet

from tests.strategies import (
    ATTRIBUTE_RULE_PATHS,
    RULE_PATHS,
    build_policy,
    build_subjects,
    documents,
    policy_rules,
)

USERS = st.sampled_from(["u1", "u2"])


def assert_equals_lazy(view, lazy):
    assert view.facts() == lazy.facts()
    assert view.restricted == {
        nid for nid in lazy.all_nodes() if lazy.is_restricted(nid)
    }
    assert serialize(view.doc) == serialize(lazy)
    # The grown document is a well-formed XMLDocument in its own right.
    assert view.doc.all_nodes() == lazy.all_nodes()
    assert len(view.doc) == len(lazy)


@given(documents(max_depth=2), policy_rules(max_rules=6), USERS)
@settings(max_examples=60, deadline=None)
def test_grown_view_equals_datalog_and_lazy(doc, rules, user):
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    view = ViewBuilder().build(doc, policy, user)
    assert view.facts() == FormalModel(doc, subjects, policy).derive_view(user)
    assert_equals_lazy(view, build_lazy_view(doc, policy, user))


@given(
    documents(),
    policy_rules(paths=RULE_PATHS + ATTRIBUTE_RULE_PATHS),
    USERS,
)
@settings(max_examples=120, deadline=None)
def test_grown_view_equals_lazy_and_stylesheet_with_attribute_rules(
    doc, rules, user
):
    policy = build_policy(build_subjects(), rules)
    view = ViewBuilder().build(doc, policy, user)
    assert_equals_lazy(view, build_lazy_view(doc, policy, user))
    # The stylesheet builds a real element, whose attributes are unique
    # by name: two masked attributes of one element collapse there.
    owners = [nid.parent() for nid in view.restricted
              if doc.kind(nid) is NodeKind.ATTRIBUTE]
    if len(owners) == len(set(owners)):
        styled = apply_stylesheet(view_stylesheet(view.permissions, doc), doc)
        assert serialize(styled) == serialize(view.doc)
    # Source nodes are shared, masked ones replaced -- never mutated.
    for nid in view.doc.all_nodes():
        if nid in view.restricted:
            assert view.doc.label(nid) == RESTRICTED
            assert doc.node(nid) is not view.doc.node(nid)
        else:
            assert doc.node(nid) is view.doc.node(nid)


def test_position_only_attribute_hides_name_and_value_even_when_empty():
    doc = parse_xml('<r><a x="" y="secret"/></r>')
    subjects = build_subjects()
    policy = build_policy(
        subjects,
        [
            ("accept", "read", "//*", "u1"),
            ("accept", "position", "//@*", "u1"),
        ],
    )
    view = ViewBuilder().build(doc, policy, "u1")
    lazy = build_lazy_view(doc, policy, "u1")
    attributes = [
        view.doc.node(nid)
        for nid in view.doc.all_nodes()
        if view.doc.kind(nid) is NodeKind.ATTRIBUTE
    ]
    assert [(a.label, a.value) for a in attributes] == [
        (RESTRICTED, RESTRICTED)
    ] * 2
    assert "secret" not in serialize(view.doc)
    assert serialize(view.doc) == serialize(lazy)
