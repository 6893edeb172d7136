"""Permission tables patched across a commit == resolved from scratch.

After a commit the view cache advances each cached table on its first
lookup instead of re-resolving it: each rule path's selection
contributes the nodes whose membership changed, and axiom 14 is
replayed on those only.  The
properties here hold that patch to the full replay on every commit, and
pin the sharing rules around it: a commit that changes no decision
keeps the very same table object, a patch never mutates anything an
already-served view (or its per-user facade) holds, and the patch's own
read/position delta is the full symmetric difference.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hospital_database
from repro.errors import UpdateAborted
from repro.security import PermissionResolver, Privilege
from repro.security.policy import ACCEPT
from repro.security.view import ViewBuilder
from repro.xmltree import element, serialize, text
from repro.xmltree.document import DocumentError
from repro.xpath import XPathEngine
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

VIEW_PRIVILEGES = (Privilege.READ, Privilege.POSITION)


def cached_tables(db, users):
    """user -> the table ``db.permissions_for`` serves (which advances
    the user's cache entry across any commits since it was derived)."""
    return {user: db.permissions_for(user) for user in users}


def resolve_oracle(db, user):
    """The replay the resolver ran before tables were patched, kept as
    the reference: every rule, in priority order, overwrites the outcome
    on everything its path selects."""
    engine = XPathEngine(lone_variable_name_test=True, star_matches_text=True)
    granted, winning = {}, {}
    for privilege in Privilege:
        outcome = {}
        for rule in db.policy.rules_for(user, privilege):
            selected = engine.select(db.document, rule.path, variables={"USER": user})
            outcome.update(dict.fromkeys(selected, rule))
        winning[privilege] = outcome
        granted[privilege] = {n for n, r in outcome.items() if r.effect == ACCEPT}
    return granted, winning


def snapshot(table):
    return copy.deepcopy((table.granted, table.winning_rule))


def full_delta(new, old):
    out = set()
    for privilege in VIEW_PRIVILEGES:
        out |= new.granted.get(privilege, set()) ^ old.granted.get(privilege, set())
    return out


def commit_and_check(db, users, commit):
    """Warm every user's table and view, run ``commit``, and check each
    cached table against a from-scratch resolve.  Returns False when the
    commit did not apply."""
    served = {user: db.build_view(user) for user in users}
    held = {user: snapshot(view.permissions) for user, view in served.items()}
    before = cached_tables(db, users)
    try:
        commit()
    except (XUpdateError, UpdateAborted, DocumentError):
        return False
    resolves = (db.stats()["full_resolves"], db.stats()["delta_resolves"])
    after = cached_tables(db, users)
    # Every table held across the commit was patched, none re-resolved.
    assert (db.stats()["full_resolves"], db.stats()["delta_resolves"]) == resolves
    fresh = PermissionResolver()
    for user, patched in after.items():
        scratch = fresh.resolve(db.document, db.policy, user)
        assert patched.granted == scratch.granted, user
        assert patched.winning_rule == scratch.winning_rule, user
        assert (scratch.granted, scratch.winning_rule) == resolve_oracle(db, user)
        old = before.get(user)
        if old is None:
            continue
        # The same shared table (a per-user facade shares its dicts)
        # exactly when no decision changed.
        assert (patched.winning_rule is old.winning_rule) == (
            patched.winning_rule == old.winning_rule
        )
        assert patched.read_position_delta(old) == full_delta(patched, old)
    for user, view in served.items():
        # What a served view (a shared table or a per-user facade of
        # it) holds is never written to by a patch.
        assert snapshot(view.permissions) == held[user], user
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
    """The paper's hospital plus a predicate rule (never patchable by
    skeleton: its selection is re-evaluated on every commit)."""
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
    for commit in commits:
        assert commit_and_check(db, HOSPITAL_USERS, commit)
    stats = db.stats()
    assert stats["tables_patched"] > 0
    assert stats["tables_carried"] > 0


def test_a_commit_changing_no_decision_keeps_the_table_object():
    db = hospital_database()
    doctor = db.login("laporte")
    tables = {user: db.permissions_for(user) for user in HOSPITAL_USERS}
    doctor.execute(UpdateContent("/patients/robert/diagnosis", "flu"))
    for user, table in tables.items():
        assert db.permissions_for(user) is table
        assert db.permissions_for(user).read_position_delta(table) == set()


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
        assert table.granted == scratch.granted
        assert table.winning_rule == scratch.winning_rule
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
        assert served.permissions.granted == scratch.granted


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
    assert after["delta_resolves"] == before["delta_resolves"]
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
        assert db.build_view(user).permissions.granted == db.permissions_for(user).granted
        for lookup in LOOKUPS:
            assert_lookup_equals_scratch(db, user, lookup)
    db.document.relabel(diagnosis, "diagnosis")
    db.login("laporte").execute(UpdateContent("/patients/robert/diagnosis", "flu"))
    for user in users:
        for lookup in LOOKUPS:
            assert_lookup_equals_scratch(db, user, lookup)
