"""Permission tables carried across a commit == derived from scratch.

After a commit the view cache rebinds each cached table on its first
lookup instead of deriving it: the fingerprint's automaton reads no
document, so it is bound to the new generation as it is, and only
exception (predicate) rule paths are evaluated again.  The properties
here hold every carried table to the priority replay over whole
selections (:mod:`repro.testing.perm_oracle`) on every node and
privilege, and pin the rules around it: a commit compiles no automaton,
a served view's table keeps answering for its own generation, and the
exception delta the view patch uses is the full symmetric difference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hospital_database
from repro.errors import UpdateAborted
from repro.security import PermissionResolver, Privilege
from repro.security.automaton import fragment_tokens
from repro.security.view import ViewBuilder
from repro.testing.perm_oracle import replay
from repro.xmltree import element, serialize, text
from repro.xmltree.document import DocumentError
from repro.xupdate import (
    Append,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    XUpdateError,
)

from tests.security.test_view_maintenance_properties import (
    USERS,
    maintained_databases,
    update_operations,
)


def cached_tables(db, users):
    """user -> the table ``db.permissions_for`` serves (which advances
    the user's cache entry across any commits since it was derived)."""
    return {user: db.permissions_for(user) for user in users}


def assert_table_equals_oracle(table, db, user):
    """Every node x privilege of ``table``'s generation, ``holds`` and
    ``explain`` against the priority replay."""
    doc = table.doc
    winners = replay(db.engine, doc, db.policy.applicable_rules(user), user)
    for privilege in Privilege:
        outcome = winners[privilege]
        for nid in doc.all_nodes():
            rule = outcome.get(nid)
            assert table.explain(nid, privilege) is rule, (user, nid, privilege)
            held = rule is not None and rule.effect == "accept"
            assert table.holds(nid, privilege) == held, (user, nid, privilege)


def commit_and_check(db, users, commit):
    """Warm every user's table and view, run ``commit``, and check each
    cached table against the oracle.  Returns False when the commit did
    not apply."""
    served = {user: db.build_view(user) for user in users}
    held = {user: view.permissions.facts() for user, view in served.items()}
    try:
        commit()
    except (XUpdateError, UpdateAborted, DocumentError):
        return False
    compiled = db.stats()["full_resolves"]
    after = cached_tables(db, users)
    # Every table held across the commit was rebound, none compiled.
    assert db.stats()["full_resolves"] == compiled
    for user, table in after.items():
        assert table.doc is db.document
        assert_table_equals_oracle(table, db, user)
        scratch = PermissionResolver().resolve(db.document, db.policy, user)
        assert table.facts() == scratch.facts()
        old = served[user].permissions
        # The exception delta is exactly what moved in the read and
        # position exception selections.
        moved = set()
        for privilege in (Privilege.READ, Privilege.POSITION):
            for rule in db.policy.rules_for(user, privilege):
                if fragment_tokens(rule.path) is None:
                    variables = {"USER": user}
                    was = db.engine.select(old.doc, rule.path, variables=variables)
                    now = db.engine.select(table.doc, rule.path, variables=variables)
                    moved |= set(was) ^ set(now)
        assert table.exception_delta(old) == moved
    for user, view in served.items():
        # A served view's table still answers for its own generation.
        assert view.permissions.facts() == held[user], user
    return True


@settings(max_examples=60, deadline=None)
@given(
    db=maintained_databases(),
    ops=st.lists(update_operations(), min_size=1, max_size=4),
)
def test_patched_tables_equal_a_full_resolve(db, ops):
    """Random documents, policies ($USER and predicate rules among
    them) and XUpdate operations, committed one by one."""
    for op in ops:
        commit_and_check(db, USERS, lambda: db.admin_update(op))


HOSPITAL_USERS = ("laporte", "beaufort", "robert", "franck", "richard")


def hospital_with_predicate_rule():
    """The paper's hospital plus a predicate rule (an exception to the
    automaton: its selection is evaluated again on every commit)."""
    db = hospital_database()
    db.policy.grant(
        "read", "/patients/*[service='pneumology']/diagnosis", "epidemiologist"
    )
    return db


def test_hospital_commits_patch_doctor_secretary_patient_and_predicate_tables():
    db = hospital_with_predicate_rule()
    doctor = db.login("laporte")
    commits = [
        # A diagnosis text changes: every table is carried by identity.
        lambda: doctor.execute(UpdateContent("/patients/robert/diagnosis", "flu")),
        # A note under a diagnosis: the doctor and the secretary change.
        lambda: doctor.execute(Append("//diagnosis", element("note", text("ok")))),
        # A service becomes a diagnosis: the secretary's deny and the
        # predicate rule move.
        lambda: db.admin_update(Rename("/patients/franck/service", "diagnosis")),
        lambda: db.admin_update(UpdateContent("/patients/robert/service", "ent")),
        # A new patient named after a user: that patient's $USER table.
        lambda: db.admin_update(
            InsertBefore(
                "/patients/franck",
                element(
                    "robert",
                    element("service", text("pneumology")),
                    element("diagnosis", text("asthma")),
                ),
            )
        ),
        lambda: db.admin_update(Remove("/patients/franck")),
    ]
    for user in HOSPITAL_USERS:
        db.build_view(user)
    compiled = db.stats()["full_resolves"]
    evaluated = db.stats()["path_evals"]
    for commit in commits:
        assert commit_and_check(db, HOSPITAL_USERS, commit)
    stats = db.stats()
    assert stats["full_resolves"] == compiled
    # Only the epidemiologist's predicate rule is evaluated again.
    assert stats["path_evals"] > evaluated


def test_a_commit_changing_no_decision_keeps_the_table_object():
    """Tables are per generation, but a commit carries each one's
    automaton over unchanged: nothing compiled, no exception moved, and
    every surviving node decided as before."""
    db = hospital_database()
    doctor = db.login("laporte")
    tables = {user: db.permissions_for(user) for user in HOSPITAL_USERS}
    compiled = db.stats()["full_resolves"]
    doctor.execute(UpdateContent("/patients/robert/diagnosis", "flu"))
    for user, table in tables.items():
        now = db.permissions_for(user)
        assert now.doc is db.document and table.doc is not db.document
        assert now.exception_delta(table) == set()
        for nid in table.doc.all_nodes():
            if nid in now.doc and now.doc.label(nid) == table.doc.label(nid):
                for privilege in Privilege:
                    assert now.explain(nid, privilege) is table.explain(
                        nid, privilege
                    )
    assert db.stats()["full_resolves"] == compiled


# ----------------------------------------------------------------------
# One cache entry per fingerprint, at every lag
# ----------------------------------------------------------------------

LOOKUPS = ("table", "can", "view")


def assert_lookup_equals_scratch(db, user, lookup):
    """One served lookup against the from-scratch derivation: a table
    against ``PermissionResolver().resolve``, ``can`` on every node and
    privilege against the same, a view against ``ViewBuilder().build``
    on facts, ``restricted`` and serialization."""
    scratch = PermissionResolver().resolve(db.document, db.policy, user)
    if lookup == "table":
        table = db.permissions_for(user)
        assert table.user == user
        assert_table_equals_oracle(table, db, user)
    elif lookup == "can":
        session = db.login(user)
        for nid in db.document.all_nodes():
            for privilege in Privilege:
                assert session.can(privilege, nid) == scratch.holds(nid, privilege)
    else:
        served = db.build_view(user)
        fresh = ViewBuilder().build(db.document, db.policy, user)
        assert served.user == served.permissions.user == user
        assert served.facts() == fresh.facts()
        assert served.restricted == fresh.restricted
        assert serialize(served.doc) == serialize(fresh.doc)
        assert served.permissions.facts() == scratch.facts()


@settings(max_examples=50, deadline=None)
@given(
    db=maintained_databases(),
    steps=st.lists(
        st.tuples(
            st.lists(update_operations(), max_size=4),  # commits first: lag 0-4
            st.sampled_from(USERS),
            st.sampled_from(LOOKUPS),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_lookups_at_every_lag_equal_scratch(db, steps):
    """Commits interleaved with table, ``can`` and view lookups: each
    lookup finds its entry 0-4 commits behind (more when the other user
    was looked up in between), and what it serves -- carried, advanced
    by the composed change-set, or derived again -- equals a
    from-scratch derivation."""
    for ops, user, lookup in steps:
        for op in ops:
            try:
                db.admin_update(op)
            except (XUpdateError, UpdateAborted, DocumentError):
                continue
        assert_lookup_equals_scratch(db, user, lookup)


def test_a_lookup_two_commits_behind_advances_table_and_view():
    db = hospital_with_predicate_rule()
    doctor = db.login("laporte")
    db.build_view("beaufort")
    doctor.execute(UpdateContent("/patients/robert/diagnosis", "flu"))
    doctor.execute(Append("//diagnosis", element("note", text("ok"))))
    before = db.stats()
    assert_lookup_equals_scratch(db, "beaufort", "table")
    after = db.stats()
    assert after["full_resolves"] == before["full_resolves"]
    # The held view was patched with its table, so the view lookup that
    # follows is a hit.
    assert after["view_incremental_patches"] == before["view_incremental_patches"] + 1
    assert_lookup_equals_scratch(db, "beaufort", "view")
    assert db.stats()["view_hits"] == after["view_hits"] + 1


def test_an_entry_older_than_the_change_log_is_derived_again():
    from repro.security.viewcache import CHANGE_LOG_SIZE

    db = hospital_database()
    for user in ("beaufort", "richard"):
        db.build_view(user)
    doctor = db.login("laporte")

    def commits(count):
        for index in range(count):
            doctor.execute(UpdateContent("/patients/robert/diagnosis", f"dx{index}"))

    commits(CHANGE_LOG_SIZE)
    before = db.stats()
    assert_lookup_equals_scratch(db, "beaufort", "view")  # the log holds all
    assert db.stats()["view_incremental_patches"] == before["view_incremental_patches"] + 1
    commits(1)
    before = db.stats()
    assert_lookup_equals_scratch(db, "richard", "view")  # one past the log
    after = db.stats()
    assert after["view_incremental_patches"] == before["view_incremental_patches"]
    assert after["view_full_builds"] == before["view_full_builds"] + 1


def test_an_in_place_edit_is_never_served_stale():
    """An edit of ``db.document`` outside any commit moves its mutation
    stamp: the cached table and view are derived again, alone or with
    a commit on top."""
    db = hospital_database()
    users = ("laporte", "beaufort", "richard")
    for user in users:
        db.build_view(user)
    (diagnosis,) = db.engine.select(db.document, "/patients/franck/diagnosis")
    db.document.relabel(diagnosis, "service")
    for user in users:
        assert db.build_view(user).permissions.facts() == db.permissions_for(user).facts()
        for lookup in LOOKUPS:
            assert_lookup_equals_scratch(db, user, lookup)
    db.document.relabel(diagnosis, "diagnosis")
    db.login("laporte").execute(UpdateContent("/patients/robert/diagnosis", "flu"))
    for user in users:
        for lookup in LOOKUPS:
            assert_lookup_equals_scratch(db, user, lookup)
