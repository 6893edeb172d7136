"""Privilege checks: ``Session.can()`` == the Datalog theory of axiom 14.

Every privilege check -- ``Session.can()``, ``SecureXMLDatabase.check``
and the node checks inside a secured write -- reads the user's
permission table, which decides on demand from the fingerprint's
label automaton and which every commit rebinds to the new generation.  These tests pin that table-backed answer to the Datalog
transcription in :mod:`repro.formal` for every user x node x privilege
of the paper's hospital database (as built, after a commit, after a
policy change), check that a probe never materializes a view, and
that the table cache never answers for a mutated document.
"""

import pytest

from repro.core import hospital_database
from repro.formal import FormalModel
from repro.security import Policy, SubjectHierarchy
from repro.security.database import SecureXMLDatabase
from repro.security.privileges import Privilege
from repro.xmltree import parse_xml


@pytest.fixture
def db():
    return hospital_database()


def _fresh_db():
    """A small database with a grant, a later deny and an insert rule."""
    doc = parse_xml(
        "<patients><patient><name>x</name><diagnosis>flu</diagnosis>"
        "</patient></patients>"
    )
    subjects = SubjectHierarchy()
    subjects.add_role("staff")
    subjects.add_user("alice", member_of="staff")
    subjects.add_user("bob", member_of="staff")
    policy = Policy(subjects)
    policy.grant("read", "//*", "staff")
    policy.deny("read", "//diagnosis/descendant-or-self::*", "staff")
    policy.grant("insert", "/patients", "staff")
    return SecureXMLDatabase(doc, subjects, policy)


def _assert_can_matches_theory(db):
    """``can()`` == ``FormalModel.derive_perm`` for every user, node and
    privilege of the database's current state."""
    model = FormalModel(db.document, db.subjects, db.policy)
    nodes = db.document.all_nodes()
    for user in sorted(db.subjects.users):
        session = db.login(user)
        held = {
            (nid, privilege.value)
            for nid in nodes
            for privilege in Privilege
            if session.can(privilege.value, nid)
        }
        assert held == model.derive_perm(user), user


class TestCanMatchesTheory:
    def test_as_built(self, db):
        _assert_can_matches_theory(db)

    def test_after_a_commit(self, db):
        _assert_can_matches_theory(db)  # warm: the commit rebinds tables
        db.admin_update(
            '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
            '<xupdate:append select="/patients/franck">'
            '<xupdate:element name="diagnosis">flu</xupdate:element>'
            "</xupdate:append></xupdate:modifications>"
        )
        _assert_can_matches_theory(db)

    def test_after_a_policy_change(self, db):
        _assert_can_matches_theory(db)  # warm every table first
        db.policy.deny("read", "//diagnosis/descendant-or-self::*", "staff")
        _assert_can_matches_theory(db)


class TestDecisionsMatchResolver:
    @pytest.mark.parametrize("user", ["laporte", "beaufort", "richard", "robert"])
    def test_can_agrees_with_table_everywhere(self, db, user):
        session = db.login(user)
        table = db.resolver.resolve(db.document, db.policy, user)
        for nid in db.document.all_nodes():
            for privilege in Privilege:
                assert session.can(privilege.value, nid) == table.holds(
                    nid, privilege
                ), (user, nid, privilege)

    def test_decisions_survive_commits(self, db):
        session = db.login("laporte")
        db.admin_update(
            '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
            '<xupdate:append select="//diagnosis">'
            "<xupdate:element name=\"flu\"/></xupdate:append>"
            "</xupdate:modifications>"
        )
        table = db.resolver.resolve(db.document, db.policy, "laporte")
        for nid in db.document.all_nodes():
            assert session.can("read", nid) == table.holds(nid, Privilege.READ)

    def test_policy_mutation_changes_decisions(self, db):
        session = db.login("laporte")
        target = db.engine.select(db.document, "//diagnosis")[0]
        assert session.can("read", target)
        db.policy.deny("read", "//diagnosis/descendant-or-self::*", "staff")
        assert not session.can("read", target)


class TestZeroMaterialization:
    def test_probes_build_no_view(self, db):
        session = db.login("robert")
        for nid in db.document.all_nodes():
            session.can("read", nid)
        stats = db.stats()
        assert stats["full_resolves"] == 1  # one table, then lookups
        assert stats["view_full_builds"] == 0

    def test_rules_compiled_counts_engine_cache_misses(self, db):
        # A rule outside the automaton's fragment is compiled once, into
        # the engine's cache (the only compiled cache there is);
        # resolving the same policy again compiles nothing.
        db.policy.grant("read", "/patients/*[service='pneumology']", "patient")
        db.resolver.resolve(db.document, db.policy, "robert")
        compiled = db.stats()["rules_compiled"]
        assert compiled > 0
        assert compiled == db.engine.paths_compiled
        db.resolver.resolve(db.document, db.policy, "robert")
        assert db.stats()["rules_compiled"] == compiled


class TestWriteChecks:
    def test_write_denials_match_table_semantics(self, db):
        # beaufort (secretary) may insert under /patients but a doctor
        # may not -- the write check reproduces the axiom-18 answers.
        from repro.xmltree import element
        from repro.xupdate.operations import Append

        op = Append(path="/patients", tree=element("patient"))
        ok = db.login("beaufort").execute(op)
        assert ok.fully_applied
        refused = db.login("laporte").execute(op)
        assert refused.denials


class TestDeciderInternals:
    def test_closed_world_no_rule_means_deny(self):
        db = _fresh_db()
        nid = next(iter(db.document.all_nodes()))
        assert not db.login("alice").can("delete", nid)
        assert db.permissions_for("alice").explain(nid, Privilege.DELETE) is None

    def test_latest_rule_wins(self):
        db = _fresh_db()
        diagnosis = db.engine.select(db.document, "//diagnosis")[0]
        assert not db.login("alice").can("read", diagnosis)
        # The later deny overrides the grant.
        rule = db.permissions_for("alice").explain(diagnosis, Privilege.READ)
        assert rule is not None and rule.effect == "deny"

    def test_memo_tracks_document_mutation(self):
        # The table cache is pinned to the document's mutation stamp:
        # a document edited in place is never answered from a stale
        # table.
        db = _fresh_db()
        nid = db.engine.select(db.document, "//name")[0]
        assert db.permissions_for("alice").holds(nid, Privilege.READ)
        db.document.relabel(nid, "diagnosis")  # bumps the mutation stamp
        assert not db.permissions_for("alice").holds(nid, Privilege.READ)
