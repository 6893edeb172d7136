"""Differential properties of incremental view maintenance.

The serving layer's contract: a view served from the shared cache --
whether a hit, a facade, or an incrementally patched materialization --
is *fact-for-fact identical* to deriving the view from scratch with
:class:`ViewBuilder` (axioms 15-17) against the current document and
policy.  Patching is an optimization; these properties make it
unobservable, across random documents, random policies (with and
without ``$USER``), random update scripts, and every fault-harness
kill-point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateAborted
from repro.faults import KILL_POINTS, InjectedFault, inject
from repro.security import SecureXMLDatabase, SubjectHierarchy
from repro.security.view import ViewBuilder
from repro.xmltree import element, serialize, text
from repro.xupdate import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
    XUpdateError,
)

from repro.xmltree.document import DocumentError

from tests.strategies import (
    ATTRIBUTE_RULE_PATHS,
    LABELS,
    PRIVILEGES,
    RULE_PATHS,
    build_policy,
    documents,
    fragments,
    storable,
)

#: Users deliberately named after document labels so ``$USER``-predicated
#: rule paths actually select nodes (lone ``[$USER]`` reads
#: ``[name()=$USER]``).
USERS = ("a", "d")

#: Paths for random update operations -- absolute, document-node-safe.
OP_PATHS = (
    "/*",
    "//a",
    "//b",
    "//a/*",
    "//c",
    "//diagnosis",
    "//b/c",
    "//text()",
)


def build_label_subjects() -> SubjectHierarchy:
    subjects = SubjectHierarchy()
    subjects.add_role("r1")
    for user in USERS:
        subjects.add_user(user, member_of="r1")
    return subjects


@st.composite
def update_operations(draw):
    """One random XUpdate operation within the supported fragment."""
    kind = draw(st.sampled_from(("rename", "update", "append", "before", "after", "remove")))
    path = draw(st.sampled_from(OP_PATHS))
    if kind == "rename":
        return Rename(path, draw(st.sampled_from(LABELS)))
    if kind == "update":
        return UpdateContent(path, draw(st.sampled_from(("x", "y", "zz"))))
    fragment = draw(fragments(max_depth=2, max_children=2))
    if kind == "append":
        return Append(path, fragment)
    if kind == "before":
        return InsertBefore(path, fragment)
    if kind == "after":
        return InsertAfter(path, fragment)
    return Remove(path)


@st.composite
def label_policy_rules(draw, max_rules: int = 6):
    """Random rule tuples over the label-named subject hierarchy."""
    n = draw(st.integers(min_value=0, max_value=max_rules))
    return [
        (
            draw(st.sampled_from(("accept", "deny"))),
            draw(st.sampled_from(PRIVILEGES)),
            draw(st.sampled_from(RULE_PATHS + ATTRIBUTE_RULE_PATHS)),
            draw(st.sampled_from(USERS + ("r1",))),
        )
        for _ in range(n)
    ]


@st.composite
def maintained_databases(draw):
    """A random database, optionally with a ``$USER``-dependent rule."""
    doc = draw(documents(max_depth=3, max_children=3).filter(storable))
    subjects = build_label_subjects()
    policy = build_policy(subjects, draw(label_policy_rules()))
    if draw(st.booleans()):
        policy.grant("read", "//*[$USER]/descendant-or-self::*", "r1")
    if draw(st.booleans()):
        policy.grant("position", "/*", "r1")
    return SecureXMLDatabase(doc, subjects, policy)


def assert_served_equals_scratch(db: SecureXMLDatabase) -> None:
    """The core differential: cache-served view == from-scratch build."""
    builder = ViewBuilder()  # fresh resolver: no shared cache state
    for user in USERS:
        served = db.build_view(user)
        scratch = builder.build(db.document, db.policy, user)
        assert served.user == user
        assert served.facts() == scratch.facts()
        assert served.restricted == scratch.restricted
        assert serialize(served.doc) == serialize(scratch.doc)
        for privilege in ("read", "position", "update"):
            from repro.security import Privilege

            p = Privilege.parse(privilege)
            assert served.permissions.nodes_with(p) == scratch.permissions.nodes_with(p)


@settings(max_examples=40, deadline=None)
@given(
    db=maintained_databases(),
    ops=st.lists(update_operations(), min_size=1, max_size=4),
)
def test_patched_views_equal_scratch_after_admin_commits(db, ops):
    for user in USERS:
        db.build_view(user)  # warm the cache so later serves are patches
    for op in ops:
        try:
            db.admin_update(op)
        except (XUpdateError, UpdateAborted, DocumentError):
            continue  # op not applicable to this document shape
        assert_served_equals_scratch(db)


@settings(max_examples=25, deadline=None)
@given(
    db=maintained_databases(),
    ops=st.lists(update_operations(), min_size=1, max_size=3),
)
def test_patched_views_equal_scratch_after_session_commits(db, ops):
    sessions = {user: db.login(user) for user in USERS}
    for session in sessions.values():
        session.view()
    for index, op in enumerate(ops):
        user = USERS[index % len(USERS)]
        try:
            sessions[user].execute(op)  # non-strict: partial application
        except (XUpdateError, UpdateAborted, DocumentError):
            continue
        assert_served_equals_scratch(db)


class TestKillPoints:
    """Every fault-harness kill-point, against the shared cache.

    An aborted script must leave served views identical to their
    pre-script state; whether or not the point fired, serving must
    still equal the from-scratch derivation.
    """

    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_served_views_stay_correct(self, point):
        from repro.core import hospital_database

        db = hospital_database()
        users = ("laporte", "beaufort", "richard", "robert")
        before = {u: db.build_view(u).fingerprint() for u in users}
        script = UpdateScript(
            [
                UpdateContent("/patients/franck/diagnosis", "flu"),
                Append("//diagnosis", element("note", text("checked"))),
                Remove("/patients/robert/diagnosis/text()"),
            ]
        )
        doctor = db.login("laporte")
        aborted = False
        with inject(point, after=1):
            try:
                doctor.execute(script, strict=True)
            except UpdateAborted as exc:
                assert isinstance(exc.__cause__, InjectedFault)
                aborted = True
        if aborted:
            # Nothing committed: served views are byte-identical.
            for user in users:
                assert db.build_view(user).fingerprint() == before[user]
        builder = ViewBuilder()
        for user in users:
            served = db.build_view(user)
            scratch = builder.build(db.document, db.policy, user)
            assert served.facts() == scratch.facts()
            assert served.restricted == scratch.restricted
