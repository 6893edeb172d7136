"""Subject hierarchy tests: figure 3 and the axioms 11-12 closure."""

import pytest

from repro.security import SubjectError, SubjectHierarchy


@pytest.fixture
def hierarchy(subjects):
    return subjects  # the figure-3 fixture from conftest


class TestConstruction:
    def test_roles_and_users_disjoint(self, hierarchy):
        assert "staff" in hierarchy.roles
        assert "laporte" in hierarchy.users
        assert "staff" not in hierarchy.users
        assert hierarchy.is_user("robert")
        assert not hierarchy.is_user("doctor")

    def test_duplicate_subject_rejected(self, hierarchy):
        with pytest.raises(SubjectError):
            hierarchy.add_role("staff")
        with pytest.raises(SubjectError):
            hierarchy.add_user("staff")

    def test_empty_name_rejected(self):
        with pytest.raises(SubjectError):
            SubjectHierarchy().add_role("")

    def test_isa_requires_declared_subjects(self, hierarchy):
        with pytest.raises(SubjectError):
            hierarchy.add_isa("ghost", "staff")
        with pytest.raises(SubjectError):
            hierarchy.add_isa("laporte", "ghost")

    def test_cycle_rejected(self, hierarchy):
        with pytest.raises(SubjectError):
            hierarchy.add_isa("staff", "laporte")

    def test_redundant_edge_harmless(self, hierarchy):
        hierarchy.add_isa("laporte", "doctor")  # already there
        assert hierarchy.isa("laporte", "doctor")

    def test_multiple_parents_allowed(self):
        h = SubjectHierarchy()
        h.add_role("a")
        h.add_role("b")
        h.add_user("u")
        h.add_isa("u", "a")
        h.add_isa("u", "b")
        assert h.isa("u", "a") and h.isa("u", "b")


class TestEdgeChecksWalkUpOnly:
    """``add_isa`` checks redundancy and cycles by walking up from its
    two subjects, not through the global closure (which every
    declaration invalidates): same verdicts, messages and events."""

    def test_messages_are_unchanged(self, hierarchy):
        with pytest.raises(SubjectError, match=r"^unknown subject 'ghost'$"):
            hierarchy.add_isa("ghost", "staff")
        with pytest.raises(SubjectError, match=r"^unknown subject 'ghost'$"):
            hierarchy.add_isa("laporte", "ghost")
        with pytest.raises(
            SubjectError,
            match=r"^isa\('staff', 'laporte'\) would create a cycle$",
        ):
            hierarchy.add_isa("staff", "laporte")  # laporte isa doctor isa staff
        assert not hierarchy.isa("staff", "laporte")

    def test_events_arrive_in_replay_order(self):
        h = SubjectHierarchy()
        events = []
        h.subscribe(lambda *event: events.append(event))
        h.add_role("staff")
        h.add_role("doctor", member_of="staff")
        h.add_user("laporte", member_of="doctor")
        h.add_isa("laporte", "staff")  # redundant: implied through doctor
        h.add_isa("laporte", "doctor")  # redundant: already explicit
        h.add_isa("doctor", "doctor")  # self-edge: a no-op, never an event
        with pytest.raises(SubjectError):
            h.add_isa("staff", "laporte")
        assert events == [
            ("add_role", "staff"),
            ("add_role", "doctor"),
            ("add_isa", "doctor", "staff"),
            ("add_user", "laporte"),
            ("add_isa", "laporte", "doctor"),
            ("add_isa", "laporte", "staff"),
            ("add_isa", "laporte", "doctor"),
        ]
        assert ("laporte", "staff") in set(h.isa_facts())

    def test_self_edge_records_nothing(self, hierarchy):
        """isa is reflexive by axiom 11; a *recorded* self-edge used to
        make every later ``ancestors()`` report a cycle."""
        facts = set(hierarchy.isa_facts())
        ancestors = hierarchy.ancestors("doctor")
        members = hierarchy.members("doctor")
        hierarchy.add_isa("doctor", "doctor")
        hierarchy.add_isa("laporte", "laporte")
        assert set(hierarchy.isa_facts()) == facts
        assert hierarchy.direct_parents("doctor") == {"staff"}
        assert hierarchy.ancestors("doctor") == ancestors
        assert hierarchy.members("doctor") == members
        assert hierarchy.isa("doctor", "doctor")
        assert hierarchy.isa("laporte", "staff")
        with pytest.raises(SubjectError, match="unknown subject"):
            hierarchy.add_isa("ghost", "ghost")

    def test_cycle_through_a_diamond_is_found(self):
        h = SubjectHierarchy()
        for name in ("top", "left", "right", "bottom"):
            h.add_role(name)
        h.add_isa("left", "top")
        h.add_isa("right", "top")
        h.add_isa("bottom", "left")
        h.add_isa("bottom", "right")
        with pytest.raises(SubjectError, match="cycle"):
            h.add_isa("top", "bottom")
        assert h.ancestors("bottom") == {"bottom", "left", "right", "top"}

    def test_loading_many_users_never_builds_the_closure(self, monkeypatch):
        builds = []
        build = SubjectHierarchy._closure_map

        def counting(self):
            if self._closure is None:
                builds.append(len(self.subjects))
            return build(self)

        monkeypatch.setattr(SubjectHierarchy, "_closure_map", counting)
        h = SubjectHierarchy()
        h.add_role("staff")
        h.add_role("patient", member_of="staff")
        for index in range(2000):
            h.add_user(f"patient{index:05d}", member_of="patient")
        assert builds == []
        assert len(h.members("patient")) == 2001
        assert h.ancestors("patient01999") == {"patient01999", "patient", "staff"}
        assert builds == [2002]


class TestClosure:
    """Axioms 11 (reflexivity) and 12 (transitivity)."""

    def test_reflexive(self, hierarchy):
        for subject in hierarchy.subjects:
            assert hierarchy.isa(subject, subject)

    def test_transitive(self, hierarchy):
        assert hierarchy.isa("laporte", "doctor")
        assert hierarchy.isa("doctor", "staff")
        assert hierarchy.isa("laporte", "staff")

    def test_not_symmetric(self, hierarchy):
        assert not hierarchy.isa("staff", "laporte")
        assert not hierarchy.isa("doctor", "laporte")

    def test_separate_trees_unrelated(self, hierarchy):
        assert not hierarchy.isa("robert", "staff")
        assert not hierarchy.isa("laporte", "patient")

    def test_ancestors_of_figure3_users(self, hierarchy):
        assert hierarchy.ancestors("laporte") == {"laporte", "doctor", "staff"}
        assert hierarchy.ancestors("beaufort") == {
            "beaufort",
            "secretary",
            "staff",
        }
        assert hierarchy.ancestors("richard") == {
            "richard",
            "epidemiologist",
            "staff",
        }
        assert hierarchy.ancestors("robert") == {"robert", "patient"}

    def test_members_of_role(self, hierarchy):
        assert hierarchy.members("patient") == {"patient", "robert", "franck"}
        assert hierarchy.members("staff") == {
            "staff",
            "secretary",
            "doctor",
            "epidemiologist",
            "beaufort",
            "laporte",
            "richard",
        }

    def test_closure_facts_contain_explicit_facts(self, hierarchy):
        explicit = set(hierarchy.isa_facts())
        closed = set(hierarchy.closure_facts())
        assert explicit <= closed
        # Paper's equation 10 lists exactly these explicit facts.
        assert explicit == {
            ("secretary", "staff"),
            ("doctor", "staff"),
            ("epidemiologist", "staff"),
            ("laporte", "doctor"),
            ("beaufort", "secretary"),
            ("richard", "epidemiologist"),
            ("robert", "patient"),
            ("franck", "patient"),
        }

    def test_closure_updates_after_new_edge(self):
        h = SubjectHierarchy()
        h.add_role("a")
        h.add_role("b")
        h.add_user("u", member_of="a")
        assert not h.isa("u", "b")
        h.add_isa("a", "b")
        assert h.isa("u", "b")

    def test_unknown_subject_queries_raise(self, hierarchy):
        with pytest.raises(SubjectError):
            hierarchy.ancestors("ghost")
        with pytest.raises(SubjectError):
            hierarchy.members("ghost")
        with pytest.raises(SubjectError):
            hierarchy.direct_parents("ghost")
