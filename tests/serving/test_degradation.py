"""Graceful degradation: cache failures never fail a read.

The degradation ladder (DESIGN.md §9), bottom-up:

1. a resolver path-patch that raises drops the cached selection and
   re-evaluates from scratch;
2. a view-cache patch that raises discards the entry and rebuilds the
   materialization;
3. a shared-cache failure of any kind falls back to a per-session
   ``ViewBuilder`` build.

Every rung is counted (``degraded_rebuilds`` / ``degraded_view_serves``
in ``db.stats()``) and the served view is always identical to the
from-scratch derivation.
"""

import pytest

from repro.core import hospital_database
from repro.security import Policy, SecureXMLDatabase, SubjectHierarchy, SubjectError
from repro.security.view import ViewBuilder
from repro.xmltree import XMLDocument, element, serialize, text
from repro.xupdate import Rename


def role_database(users=("n1", "n2")) -> SecureXMLDatabase:
    """Users sharing one role: one fingerprint, one cached view."""
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


def fresh_view(db, user):
    return ViewBuilder().build(db.document, db.policy, user)


class TestSharedCacheFallback:
    def test_cache_crash_falls_back_to_per_session_build(self, monkeypatch):
        db = hospital_database()

        def broken(database, user):
            raise RuntimeError("cache corrupted")

        monkeypatch.setattr(db._view_cache, "view_for", broken)
        view = db.build_view("laporte")  # the read still succeeds
        fresh = fresh_view(db, "laporte")
        assert view.facts() == fresh.facts()
        assert serialize(view.doc) == serialize(fresh.doc)
        assert db.stats()["degraded_view_serves"] == 1

    def test_every_read_is_served_while_degraded(self, monkeypatch):
        db = hospital_database()
        monkeypatch.setattr(
            db._view_cache,
            "view_for",
            lambda database, user: (_ for _ in ()).throw(KeyError("bug")),
        )
        for user in ("laporte", "beaufort", "richard"):
            view = db.build_view(user)
            assert view.facts() == fresh_view(db, user).facts()
        assert db.stats()["degraded_view_serves"] == 3

    def test_domain_errors_still_propagate(self, monkeypatch):
        # SubjectError is a real answer, not a cache failure: it must
        # not be swallowed into a degraded rebuild.
        db = hospital_database()
        with pytest.raises(SubjectError):
            db.build_view("nobody")
        assert db.stats()["degraded_view_serves"] == 0

    def test_sessions_read_through_the_fallback(self, monkeypatch):
        db = hospital_database()
        monkeypatch.setattr(
            db._view_cache,
            "view_for",
            lambda database, user: (_ for _ in ()).throw(RuntimeError("bug")),
        )
        xml = db.login("laporte").read_xml()
        assert "diagnosis" in xml


class TestViewPatchDegradation:
    def test_failing_patch_discards_entry_and_rebuilds(self, monkeypatch):
        db = role_database()
        db.build_view("n1")  # populate the cache
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))

        def broken_patch(*args, **kwargs):
            raise RuntimeError("mid-patch failure")

        monkeypatch.setattr(db._view_cache, "_patch", broken_patch)
        before = db.stats()
        view = db.build_view("n1")  # patch path raises; rebuild kicks in
        after = db.stats()
        assert after["view_degraded_rebuilds"] == before["view_degraded_rebuilds"] + 1
        assert after["view_full_builds"] == before["view_full_builds"] + 1
        assert after["view_incremental_patches"] == before["view_incremental_patches"]
        fresh = fresh_view(db, "n1")
        assert view.facts() == fresh.facts()
        assert serialize(view.doc) == serialize(fresh.doc)
        assert after["degraded_view_serves"] == 0  # ladder stopped in-cache

    def test_degraded_entry_recovers_afterwards(self, monkeypatch):
        db = role_database()
        db.build_view("n1")
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))
        monkeypatch.setattr(
            db._view_cache, "_patch", lambda *a, **k: 1 / 0
        )
        db.build_view("n1")  # degraded rebuild re-primes the cache
        monkeypatch.undo()
        db.admin_update(Rename("//patient[2]/diagnosis", "dx2"))
        before = db.stats()
        view = db.build_view("n1")  # healthy again: a normal patch
        after = db.stats()
        assert (
            after["view_incremental_patches"]
            == before["view_incremental_patches"] + 1
        )
        assert view.facts() == fresh_view(db, "n1").facts()

    def test_degraded_rebuilds_roll_up_in_db_stats(self, monkeypatch):
        db = role_database()
        db.build_view("n1")
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))
        monkeypatch.setattr(
            db._view_cache, "_patch", lambda *a, **k: 1 / 0
        )
        total_before = db.stats()["degraded_rebuilds"]
        db.build_view("n1")
        assert db.stats()["degraded_rebuilds"] == total_before + 1


class TestResolverPatchDegradation:
    def test_failing_path_patch_drops_and_rederives(self, monkeypatch):
        db = role_database()
        db.build_view("n1")  # primes the entry the commit advances

        def broken(*args, **kwargs):
            raise RuntimeError("rebind bug")

        monkeypatch.setattr(db.resolver, "rebind", broken)
        db.admin_update(Rename("//patient[1]/diagnosis", "dx"))
        before = db.stats()
        view = db.build_view("n1")
        after = db.stats()
        assert after["degraded_rebuilds"] == before["degraded_rebuilds"] + 1
        assert after["view_full_builds"] == before["view_full_builds"] + 1
        # the dropped entry is derived from scratch -- still correct
        fresh = fresh_view(db, "n1")
        assert view.facts() == fresh.facts()
        assert serialize(view.doc) == serialize(fresh.doc)
