"""The XSLT security processor reproduces authorized views exactly."""

import pytest
from hypothesis import given, settings

from repro.security import Policy, SubjectHierarchy, ViewBuilder
from repro.security.lazy import build_lazy_view
from repro.xmltree import parse_xml, serialize
from repro.xslt import apply_stylesheet, match_path, view_stylesheet

from tests.strategies import build_policy, build_subjects, documents, policy_rules

BUILDER = ViewBuilder()


class TestMatchPath:
    def test_unique_positional_paths(self):
        doc = parse_xml('<r a="1"><x/><x/><y>t</y></r>')
        paths = {match_path(doc, nid) for nid in doc.all_nodes() if not nid.is_document}
        # One unique pattern per node.
        assert len(paths) == len(doc.all_nodes()) - 1

    def test_pattern_matches_only_its_node(self):
        from repro.xpath import XPathEngine

        doc = parse_xml("<r><x/><x><x/></x></r>")
        engine = XPathEngine()
        for nid in doc.all_nodes():
            if nid.is_document:
                continue
            selected = engine.select(doc, match_path(doc, nid))
            assert selected == [nid]


class TestPaperViews:
    @pytest.mark.parametrize(
        "user", ["beaufort", "robert", "richard", "laporte"]
    )
    def test_stylesheet_equals_materialized_view(self, db, user):
        view = db.build_view(user)
        stylesheet = view_stylesheet(view)
        output = apply_stylesheet(stylesheet, db.document)
        assert serialize(output) == serialize(view.doc)

    def test_stylesheet_sizes_are_small(self, db):
        """The processor emits one template per pruned/RESTRICTED
        boundary node, not per document node."""
        secretary = view_stylesheet(db.build_view("beaufort"))
        doctor = view_stylesheet(db.build_view("laporte"))
        assert len(secretary) == 3  # copy-through + 2 restricted texts
        assert len(doctor) == 1  # copy-through only


class TestFromPermissionTable:
    def test_permission_table_entry_point(self, db):
        table = db.permissions_for("richard")
        stylesheet = view_stylesheet(table, db.document)
        output = apply_stylesheet(stylesheet, db.document)
        assert serialize(output) == serialize(db.build_view("richard").doc)

    def test_table_without_document_rejected(self, db):
        table = db.permissions_for("richard")
        with pytest.raises(ValueError):
            view_stylesheet(table)


class TestAttributes:
    def test_invisible_attribute_pruned(self):
        doc = parse_xml('<r secret="s"><a/></r>')
        subjects = SubjectHierarchy()
        subjects.add_user("u")
        policy = Policy(subjects)
        policy.grant("read", "//node()", "u")
        view = BUILDER.build(doc, policy, "u")
        output = apply_stylesheet(view_stylesheet(view), doc)
        assert serialize(output) == "<r><a/></r>"

    def test_restricted_attribute_rewritten(self):
        doc = parse_xml('<r secret="s"><a/></r>')
        subjects = SubjectHierarchy()
        subjects.add_user("u")
        policy = Policy(subjects)
        policy.grant("read", "//node()", "u")
        policy.grant("position", "//@*", "u")
        view = BUILDER.build(doc, policy, "u")
        output = apply_stylesheet(view_stylesheet(view), doc)
        assert serialize(output) == serialize(view.doc)
        assert "s" not in serialize(output).replace("RESTRICTED", "")


@given(documents(), policy_rules())
@settings(max_examples=80, deadline=None)
def test_differential_stylesheet_equals_view(doc, rules):
    """On random documents and policies, applying the generated
    stylesheet to the source equals the materialized view."""
    subjects = build_subjects()
    policy = build_policy(subjects, rules)
    view = BUILDER.build(doc, policy, "u2")
    output = apply_stylesheet(view_stylesheet(view), doc)
    assert serialize(output) == serialize(view.doc)


class TestFromLazyView:
    def test_lazy_view_entry_point(self, db):
        """view_stylesheet accepts a LazyView and matches it exactly."""
        lazy = build_lazy_view(
            db.document, db.policy, "beaufort", db.resolver
        )
        output = apply_stylesheet(view_stylesheet(lazy), db.document)
        assert serialize(output) == serialize(db.build_view("beaufort").doc)
