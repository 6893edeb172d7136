"""The shared view cache: sharing, incremental patching, fallbacks.

Correctness is pinned elsewhere (the differential property suite); this
file tests the cache *decisions*: who shares what, when a patch happens
versus a rebuild, and that the counters surface it all through
``db.stats()``.
"""

import pytest

from repro.core import hospital_database
from repro.security import SecureXMLDatabase, SubjectHierarchy, Policy
from repro.security.view import ViewBuilder
from repro.xmltree import XMLDocument, element, serialize, text
from repro.xupdate import Rename, UpdateContent


def role_database(users=("n1", "n2", "n3")) -> SecureXMLDatabase:
    """A database where several users share one role (one fingerprint)."""
    doc = XMLDocument()
    root = doc.add_root("patients")
    element("patient", element("diagnosis", text("flu"))).attach(doc, root)
    element("patient", element("diagnosis", text("cold"))).attach(doc, root)
    subjects = SubjectHierarchy()
    subjects.add_role("nurse")
    for user in users:
        subjects.add_user(user, member_of="nurse")
    policy = Policy(subjects)
    policy.grant("read", "//*", "nurse")
    policy.deny("read", "//diagnosis/descendant-or-self::*", "nurse")
    policy.grant("position", "//diagnosis", "nurse")
    return SecureXMLDatabase(doc, subjects, policy)


class TestSharing:
    def test_same_fingerprint_users_share_one_materialization(self):
        db = role_database()
        v1 = db.build_view("n1")
        v2 = db.build_view("n2")
        assert v1.doc is v2.doc  # one pruned document serves both
        assert v1.user == "n1" and v2.user == "n2"
        assert v2.permissions.user == "n2"
        stats = db.stats()
        assert stats["view_full_builds"] == 1
        assert stats["view_hits"] == 1

    def test_repeated_requests_hit(self):
        db = role_database()
        db.build_view("n1")
        before = db.stats()["view_hits"]
        db.build_view("n1")
        assert db.stats()["view_hits"] == before + 1

    def test_facade_views_are_correct_per_user(self):
        db = role_database()
        shared = db.build_view("n1")
        fresh = ViewBuilder().build(db.document, db.policy, "n2")
        assert db.build_view("n2").facts() == fresh.facts()
        assert shared.facts() == fresh.facts()  # same table, same view

    def test_user_dependent_policies_do_not_share(self):
        db = hospital_database()  # rule 5 binds $USER for patients
        robert = db.build_view("robert")
        franck = db.build_view("franck")
        assert robert.doc is not franck.doc
        assert serialize(robert.doc) != serialize(franck.doc)


class TestMaintenance:
    def test_commit_with_changeset_patches_instead_of_rebuilding(self):
        db = role_database()
        for user in ("n1", "n2"):
            db.build_view(user)
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))
        before = db.stats()
        view = db.build_view("n1")
        after = db.stats()
        assert after["view_incremental_patches"] == before["view_incremental_patches"] + 1
        assert after["view_full_builds"] == before["view_full_builds"]
        # and the patched view is exactly the from-scratch derivation
        fresh = ViewBuilder().build(db.document, db.policy, "n1")
        assert view.facts() == fresh.facts()
        assert view.restricted == fresh.restricted

    def test_commit_without_changeset_falls_back_to_full_build(self):
        db = role_database()
        db.build_view("n1")
        with db.transaction() as txn:
            txn.commit(db.document.copy())  # no change-set published
        before = db.stats()
        db.build_view("n1")
        after = db.stats()
        assert after["view_full_builds"] == before["view_full_builds"] + 1
        assert (
            after["view_incremental_patches"]
            == before["view_incremental_patches"]
        )

    def test_policy_change_is_a_new_fingerprint(self):
        db = role_database()
        stale = db.build_view("n1")
        db.policy.grant("read", "//diagnosis/descendant-or-self::*", "nurse")
        view = db.build_view("n1")  # same version, different rules
        fresh = ViewBuilder().build(db.document, db.policy, "n1")
        assert view.facts() == fresh.facts()
        assert view.facts() != stale.facts()

    def test_multi_commit_gap_composes_changesets(self):
        db = role_database()
        db.build_view("n1")
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))
        db.admin_update(Rename("//patient[2]", "inpatient"))
        view = db.build_view("n1")  # two versions behind: one patch
        assert db.stats()["view_incremental_patches"] == 1
        fresh = ViewBuilder().build(db.document, db.policy, "n1")
        assert view.facts() == fresh.facts()

    def test_restricted_labels_survive_patching(self):
        db = role_database()
        db.build_view("n1")
        db.admin_update(UpdateContent("//patient[1]/diagnosis", "measles"))
        view = db.build_view("n1")
        fresh = ViewBuilder().build(db.document, db.policy, "n1")
        assert view.restricted == fresh.restricted
        assert serialize(view.doc) == serialize(fresh.doc)


class TestAblationAndSurface:
    def test_per_session_builds_share_nothing(self):
        """The rebuild-per-session baseline (E20) is ``ViewBuilder().build``
        per session; the database itself always serves from the cache."""
        db = role_database()
        v1 = ViewBuilder().build(db.document, db.policy, "n1")
        v2 = ViewBuilder().build(db.document, db.policy, "n2")
        assert v1.doc is not v2.doc
        assert v1.facts() == v2.facts() == db.build_view("n1").facts()
        assert db.build_view("n1").doc is db.build_view("n2").doc
        assert db.stats()["view_full_builds"] == 1

    def test_stats_surface(self):
        db = role_database()
        stats = db.stats()
        for key in (
            "version",
            "full_resolves",
            "delta_resolves",
            "table_cache_hits",
            "view_hits",
            "view_full_builds",
            "view_incremental_patches",
        ):
            assert key in stats

    def test_table_cache_shares_across_users(self):
        db = role_database()
        db.permissions_for("n1")
        before = db.stats()["table_cache_hits"]
        table = db.permissions_for("n2")
        assert db.stats()["table_cache_hits"] == before + 1
        assert table.user == "n2"

    def test_session_can_does_not_materialize_a_view(self):
        db = role_database()
        session = db.login("n1")
        assert session.can("read", db.document.root)
        assert db.stats()["view_full_builds"] == 0


def test_concurrent_lookups_racing_commits_stay_correct():
    """View and table lookups from several threads race a committer
    (with a shortened switch interval): no lookup fails or degrades,
    and once the commits stop every served table and view equals the
    from-scratch derivation."""
    import random
    import sys
    import threading

    from repro.security import PermissionResolver

    db = hospital_database()
    users = ("laporte", "beaufort", "richard", "robert", "franck")
    doctor = db.login("laporte")
    stop = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                user = rng.choice(users)
                if rng.random() < 0.5:
                    db.build_view(user)
                else:
                    db.permissions_for(user)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    def committer():
        try:
            for index in range(30):
                doctor.execute(UpdateContent("/patients/robert/diagnosis", f"dx{index}"))
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
    threads.append(threading.Thread(target=committer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = db.stats()
    assert stats["version"] == 30
    assert stats["degraded_view_serves"] == stats["degraded_rebuilds"] == 0
    for user in users:
        scratch = PermissionResolver().resolve(db.document, db.policy, user)
        assert db.permissions_for(user).granted == scratch.granted
        fresh = ViewBuilder().build(db.document, db.policy, user)
        assert serialize(db.build_view(user).doc) == serialize(fresh.doc)
