"""Conflict resolution (axiom 14): latest matching rule wins."""

import pytest

from repro.security import (
    PermissionResolver,
    Policy,
    Privilege,
    SubjectHierarchy,
)
from repro.xmltree import parse_xml


@pytest.fixture
def tiny_doc():
    return parse_xml("<r><a>t1</a><b>t2</b></r>")


@pytest.fixture
def tiny_subjects():
    h = SubjectHierarchy()
    h.add_role("role")
    h.add_role("subrole", member_of="role")
    h.add_user("user", member_of="subrole")
    return h


@pytest.fixture
def rsv():
    return PermissionResolver()


def node_of(doc, path):
    from repro.xpath import XPathEngine

    return XPathEngine().select(doc, path)[0]


class TestAxiom14:
    def test_no_rules_means_no_perm(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        table = rsv.resolve(tiny_doc, policy, "user")
        for priv in Privilege:
            assert table.nodes_with(priv) == frozenset()

    def test_simple_accept(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        b = node_of(tiny_doc, "//b")
        assert table.holds(a, Privilege.READ)
        assert not table.holds(b, Privilege.READ)

    def test_later_deny_overrides_accept(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//*", "role")
        policy.deny("read", "//a", "subrole")
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        b = node_of(tiny_doc, "//b")
        assert not table.holds(a, Privilege.READ)
        assert table.holds(b, Privilege.READ)

    def test_later_accept_overrides_deny(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.deny("read", "//a", "role")
        policy.grant("read", "//a", "subrole")
        table = rsv.resolve(tiny_doc, policy, "user")
        assert table.holds(node_of(tiny_doc, "//a"), Privilege.READ)

    def test_accept_deny_accept_chain(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        policy.deny("read", "//a", "role")
        policy.grant("read", "//a", "role")
        table = rsv.resolve(tiny_doc, policy, "user")
        assert table.holds(node_of(tiny_doc, "//a"), Privilege.READ)

    def test_deny_on_disjoint_path_does_not_override(
        self, tiny_doc, tiny_subjects, rsv
    ):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        policy.deny("read", "//b", "role")  # later, but different nodes
        table = rsv.resolve(tiny_doc, policy, "user")
        assert table.holds(node_of(tiny_doc, "//a"), Privilege.READ)

    def test_rules_for_unrelated_subject_ignored(
        self, tiny_doc, tiny_subjects, rsv
    ):
        tiny_subjects.add_user("other")
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "other")
        table = rsv.resolve(tiny_doc, policy, "user")
        assert not table.holds(node_of(tiny_doc, "//a"), Privilege.READ)

    def test_deny_through_different_ancestor_applies(
        self, tiny_doc, tiny_subjects, rsv
    ):
        """The deny may target any subject s'' with isa(s, s'')."""
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        policy.deny("read", "//a", "user")  # directly at the user
        table = rsv.resolve(tiny_doc, policy, "user")
        assert not table.holds(node_of(tiny_doc, "//a"), Privilege.READ)

    def test_privileges_independent(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        policy.deny("update", "//a", "role")
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        assert table.holds(a, Privilege.READ)
        assert not table.holds(a, Privilege.UPDATE)

    def test_user_variable_binds_to_resolved_user(self, tiny_subjects, rsv):
        doc = parse_xml("<r><user/><other/></r>")
        policy = Policy(tiny_subjects)
        policy.grant("read", "/r/*[$USER]", "role")
        table = rsv.resolve(doc, policy, "user")
        assert table.holds(node_of(doc, "//user"), Privilege.READ)
        assert not table.holds(node_of(doc, "//other"), Privilege.READ)


class TestExplanation:
    def test_explain_returns_winning_rule(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        deny = policy.deny("read", "//a", "subrole")
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        assert table.explain(a, Privilege.READ) == deny

    def test_explain_none_when_no_rule_matched(
        self, tiny_doc, tiny_subjects, rsv
    ):
        policy = Policy(tiny_subjects)
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        assert table.explain(a, Privilege.READ) is None

    def test_explain_and_holds_replay_axiom_14_on_the_hospital(self):
        """Every (user, privilege, node) of the paper's hospital: the
        deciding rule is the last applicable one whose path selects the
        node -- axiom 14 replayed one node at a time, the way the
        resolver did before it kept one dict per privilege."""
        from repro.core import hospital_database

        db = hospital_database()
        doc, policy = db.document, db.policy
        engine = db.resolver.engine
        decided = 0
        for user in sorted(db.subjects.users):
            table = db.resolver.resolve(doc, policy, user)
            shared = db.permissions_for(user)
            for privilege in Privilege:
                winner = {}
                for rule in policy.rules_for(user, privilege):
                    for nid in engine.select(
                        doc, rule.path, variables={"USER": user}
                    ):
                        winner[nid] = rule
                decided += len(winner)
                for nid in doc.all_nodes():
                    assert table.explain(nid, privilege) is winner.get(nid)
                    assert shared.explain(nid, privilege) is winner.get(nid)
                    held = nid in winner and winner[nid].effect == "accept"
                    assert table.holds(nid, privilege) == held
        assert decided  # not vacuous: rules did select nodes

    def test_facts_projection(self, tiny_doc, tiny_subjects, rsv):
        policy = Policy(tiny_subjects)
        policy.grant("read", "//a", "role")
        table = rsv.resolve(tiny_doc, policy, "user")
        a = node_of(tiny_doc, "//a")
        assert ("user", a, "read") in table.facts()


class TestPaperPolicy:
    """Spot checks of equation 13 against the running example."""

    def test_secretary_reads_structure_not_diagnosis_content(
        self, doc, policy, rsv
    ):
        table = rsv.resolve(doc, policy, "beaufort")
        diag_text = node_of(doc, "/patients/franck/diagnosis/text()")
        diag = node_of(doc, "/patients/franck/diagnosis")
        assert table.holds(diag, Privilege.READ)
        assert not table.holds(diag_text, Privilege.READ)
        assert table.holds(diag_text, Privilege.POSITION)  # rule 3

    def test_secretary_write_privileges(self, doc, policy, rsv):
        table = rsv.resolve(doc, policy, "beaufort")
        patients = node_of(doc, "/patients")
        franck = node_of(doc, "//franck")
        assert table.holds(patients, Privilege.INSERT)  # rule 8
        assert table.holds(franck, Privilege.UPDATE)  # rule 9
        assert not table.holds(patients, Privilege.DELETE)

    def test_doctor_diagnosis_privileges(self, doc, policy, rsv):
        table = rsv.resolve(doc, policy, "laporte")
        diag = node_of(doc, "/patients/franck/diagnosis")
        diag_text = node_of(doc, "/patients/franck/diagnosis/text()")
        assert table.holds(diag, Privilege.INSERT)  # rule 10
        assert table.holds(diag_text, Privilege.UPDATE)  # rule 11
        assert table.holds(diag_text, Privilege.DELETE)  # rule 12

    def test_patient_reads_only_own_file(self, doc, policy, rsv):
        table = rsv.resolve(doc, policy, "robert")
        robert = node_of(doc, "//robert")
        franck = node_of(doc, "//franck")
        assert table.holds(robert, Privilege.READ)
        assert not table.holds(franck, Privilege.READ)

    def test_epidemiologist_position_on_names(self, doc, policy, rsv):
        table = rsv.resolve(doc, policy, "richard")
        franck = node_of(doc, "//franck")
        assert not table.holds(franck, Privilege.READ)  # rule 6
        assert table.holds(franck, Privilege.POSITION)  # rule 7
