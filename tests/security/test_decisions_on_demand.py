"""Differential property: decisions on demand == replay == Datalog.

A permission table stores no decision: it runs the fingerprint's label
automaton down a node's ancestry and merges the exception rules'
selections by priority.  Over generated documents and policies -- the
shared ``RULE_PATHS``, the attribute paths, a predicate path and the
paper's ``*[$USER]`` rule -- and across generated commits, every node x
privilege of the served table (``holds`` and ``explain``) must equal
the priority replay over whole selections
(:mod:`repro.testing.perm_oracle`); the served view must be
byte-identical to the view grown from the replayed sets and to
:class:`~repro.security.lazy.LazyView`.  Documents carry comments and
processing instructions, which the paper-compat ``*`` partly matches;
on documents without them the view must also equal the stylesheet's,
and, when every rule path is inside the formal fragment, the facts
must equal the Datalog transcription of axiom 14.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateAborted
from repro.formal import FormalModel
from repro.formal.paths import UnsupportedPathError
from repro.security import Privilege, SecureXMLDatabase
from repro.security.lazy import build_lazy_view
from repro.testing.perm_oracle import replay, replay_view
from repro.xmltree import NodeKind, serialize
from repro.xmltree.document import DocumentError
from repro.xmltree.labels import DOCUMENT_ID
from repro.xslt import apply_stylesheet, view_stylesheet
from repro.xupdate import XUpdateError

from tests.security.test_view_maintenance_properties import (
    USERS,
    build_label_subjects,
    update_operations,
)
from tests.strategies import (
    ATTRIBUTE_RULE_PATHS,
    PRIVILEGES,
    RULE_PATHS,
    build_policy,
    documents,
    storable,
)

#: Every rule-path kind the table decides: automaton paths, attribute
#: and predicate exceptions, and rule 5's login-bound child step.
PATHS = RULE_PATHS + ATTRIBUTE_RULE_PATHS + (
    "//a[b]",
    "//*[$USER]/descendant-or-self::*",
)


@st.composite
def databases(draw):
    doc = draw(
        documents(
            max_depth=3, max_children=3, comments_and_pis=draw(st.booleans())
        ).filter(storable)
    )
    rules = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("accept", "deny")),
                st.sampled_from(PRIVILEGES),
                st.sampled_from(PATHS),
                st.sampled_from(USERS + ("r1",)),
            ),
            max_size=8,
        )
    )
    subjects = build_label_subjects()
    return SecureXMLDatabase(doc, subjects, build_policy(subjects, rules))


def assert_decisions_equal_oracles(db, user):
    doc = db.document
    table = db.permissions_for(user)
    winners = replay(db.engine, doc, db.policy.applicable_rules(user), user)
    for privilege in Privilege:
        outcome = winners[privilege]
        for nid in {DOCUMENT_ID, *doc.all_nodes()}:
            rule = outcome.get(nid)
            assert table.explain(nid, privilege) is rule, (user, nid, privilege)
            held = rule is not None and rule.effect == "accept"
            assert table.holds(nid, privilege) == held, (user, nid, privilege)
    # The Datalog model and the stylesheet know elements, text and
    # attributes only; comments and processing instructions are checked
    # against the replay and LazyView.
    plain = not any(
        doc.kind(nid) in (NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION)
        for nid in doc.all_nodes()
    )
    held = {
        (nid, privilege.value)
        for privilege in Privilege
        for nid in table.nodes_with(privilege)
    }
    try:
        if plain:
            assert FormalModel(doc, db.subjects, db.policy).derive_perm(user) == held
    except UnsupportedPathError:
        pass  # attribute and predicate paths: outside the formal fragment

    view = db.build_view(user)
    oracle_doc, restricted = replay_view(doc, winners)
    assert serialize(view.doc) == serialize(oracle_doc)
    assert view.restricted == restricted
    assert view.facts() == oracle_doc.facts()
    assert serialize(build_lazy_view(doc, db.policy, user)) == serialize(view.doc)
    # The stylesheet builds real elements, whose attributes are unique
    # by name: two masked attributes of one element collapse there.
    owners = [
        nid.parent() for nid in restricted if doc.kind(nid) is NodeKind.ATTRIBUTE
    ]
    if plain and len(owners) == len(set(owners)):
        styled = apply_stylesheet(view_stylesheet(view.permissions, doc), doc)
        assert serialize(styled) == serialize(view.doc)


@settings(max_examples=60, deadline=None)
@given(db=databases(), ops=st.lists(update_operations(), max_size=3))
def test_decisions_on_demand_equal_replay_datalog_and_views(db, ops):
    for user in USERS:
        assert_decisions_equal_oracles(db, user)
    for op in ops:
        try:
            db.admin_update(op)
        except (XUpdateError, UpdateAborted, DocumentError):
            continue
        for user in USERS:
            assert_decisions_equal_oracles(db, user)
