"""Permission tables patched across a commit == resolved from scratch.

After a commit the resolver advances each cached table on its first
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
from repro.xmltree import element, text
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
    """user -> the shared table the resolver holds for the user's
    fingerprint, looked up (which finishes a patch a commit left
    pending); users whose fingerprint it does not hold are skipped."""
    resolver = db.resolver
    out = {}
    for user in users:
        fingerprint = resolver.fingerprint(db.policy, user)
        if fingerprint in resolver._tables:
            db.permissions_for(user)
            out[user] = resolver._tables[fingerprint].table
    return out


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
        # Same object exactly when no decision changed.
        assert (patched is old) == (patched.winning_rule == old.winning_rule)
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
