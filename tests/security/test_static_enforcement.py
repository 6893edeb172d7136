"""Static enforcement: NFA decisions == resolver, zero materialization.

The enforcement ladder's top rung must be *invisible* except in cost:
``Session.can()`` and write checks answer identically whether they run
through the chain automata or the resolved permission table.  These
tests pin that equivalence on the paper's hospital database and assert
-- through the ``db.stats()`` counters -- that eligible probes never
evaluate a rule path, derive a table, or materialize a view.
"""

import pytest

from repro.core import hospital_database
from repro.security import Policy, SubjectHierarchy
from repro.security.database import SecureXMLDatabase
from repro.security.privileges import Privilege
from repro.security.static import StaticDecider, automata_eligible, decider_for
from repro.xmltree import parse_xml


@pytest.fixture
def db():
    return hospital_database()


def _fresh_static_db():
    """A database whose whole policy is automata-eligible."""
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
    def test_eligible_probes_touch_nothing(self):
        db = _fresh_static_db()
        session = db.login("alice")
        for nid in db.document.all_nodes():
            for privilege in ("read", "insert", "delete"):
                session.can(privilege, nid)
        stats = db.stats()
        assert stats["static_decisions"] > 0
        assert stats["static_fallbacks"] == 0
        assert stats["path_evals"] == 0
        assert stats["full_resolves"] == 0
        assert stats["delta_resolves"] == 0
        assert stats["view_full_builds"] == 0

    def test_ineligible_lane_falls_back(self, db):
        # robert is a patient: his read lane contains the $USER rule.
        session = db.login("robert")
        session.can("read", next(iter(db.document.all_nodes())))
        stats = db.stats()
        assert stats["static_fallbacks"] > 0
        assert stats["full_resolves"] > 0  # the fallback derived a table

    def test_fallback_only_for_out_of_fragment_lanes(self, db):
        # robert's *insert* lane has no rules at all -- still eligible.
        session = db.login("robert")
        before = db.stats()["static_fallbacks"]
        assert not session.can("insert", next(iter(db.document.all_nodes())))
        assert db.stats()["static_fallbacks"] == before

    def test_rules_compiled_counts_engine_cache_misses(self, db):
        # The second rung compiles each rule path once, into the
        # engine's cache (the only compiled cache there is); resolving
        # the same policy again compiles nothing.
        db.resolver.resolve(db.document, db.policy, "robert")
        compiled = db.stats()["rules_compiled"]
        assert compiled > 0
        assert compiled == db.engine.paths_compiled
        db.resolver.resolve(db.document, db.policy, "robert")
        assert db.stats()["rules_compiled"] == compiled


class TestEligibilityTagging:
    def test_rule_eligibility(self, db):
        by_path = {rule.path: automata_eligible(rule) for rule in db.policy}
        assert by_path["//*"]
        assert by_path["//diagnosis/*"]
        assert by_path["/patients"]
        assert not by_path["/patients/*[$USER]/descendant-or-self::*"]

    def test_policy_eligibility_summary(self, db):
        assert db.policy.automata_eligible_rules() == tuple(
            r for r in db.policy if "$" not in r.path
        )
        eligibility = db.policy.static_eligibility("robert")
        assert eligibility[Privilege.READ] is False  # $USER rule
        assert eligibility[Privilege.INSERT] is True
        staff = db.policy.static_eligibility("laporte")
        assert all(staff.values())

    def test_deciders_shared_by_fingerprint(self, db):
        # laporte and any other pure-doctor would share; here compare
        # the same user twice and two users with different rules.
        a = decider_for(db.policy, "laporte", True)
        assert decider_for(db.policy, "laporte", True) is a
        assert decider_for(db.policy, "richard", True) is not a


class TestWriteChecks:
    def test_secure_writes_use_static_lane(self):
        db = _fresh_static_db()
        session = db.login("alice")
        from repro.xmltree import element
        from repro.xupdate.operations import Append, Remove

        result = session.execute(
            Append(path="/patients", tree=element("patient"))
        )
        assert result.fully_applied
        denied = session.execute(Remove(path="/patients/patient[1]"))
        assert denied.denials  # no delete rule anywhere
        stats = db.stats()
        assert stats["static_decisions"] > 0

    def test_write_denials_match_table_semantics(self, db):
        # beaufort (secretary) may insert under /patients but a doctor
        # may not -- the static lane must reproduce the axiom-18 answers.
        from repro.xmltree import element
        from repro.xupdate.operations import Append

        op = Append(path="/patients", tree=element("patient"))
        ok = db.login("beaufort").execute(op)
        assert ok.fully_applied
        refused = db.login("laporte").execute(op)
        assert refused.denials


class TestDeciderInternals:
    def test_closed_world_no_rule_means_deny(self):
        db = _fresh_static_db()
        decider = decider_for(db.policy, "alice", True)
        nid = next(iter(db.document.all_nodes()))
        granted, rule = decider.decide(db.document, nid, Privilege.DELETE)
        assert granted is False and rule is None

    def test_latest_rule_wins(self):
        db = _fresh_static_db()
        decider = decider_for(db.policy, "alice", True)
        diagnosis = db.engine.select(db.document, "//diagnosis")[0]
        granted, rule = decider.decide(db.document, diagnosis, Privilege.READ)
        assert granted is False  # the later deny overrides the grant
        assert rule is not None and rule.effect == "deny"

    def test_memo_tracks_document_mutation(self):
        db = _fresh_static_db()
        decider = decider_for(db.policy, "alice", True)
        doc = db.document.copy()
        nid = db.engine.select(doc, "//name")[0]
        assert decider.decide(doc, nid, Privilege.READ)[0] is True
        doc.relabel(nid, "diagnosis")  # bumps the mutation stamp
        granted, _ = decider.decide(doc, nid, Privilege.READ)
        assert granted is False  # not served from the stale memo
