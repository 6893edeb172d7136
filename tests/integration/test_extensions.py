"""Integration tests across the beyond-the-paper layers: lazy views,
XSLT processor after updates, storage + sessions."""

import pytest

from repro.core import hospital_database
from repro.security.lazy import build_lazy_view
from repro.storage import dump_database, load_database
from repro.xmltree import element, render_tree, serialize, text
from repro.xslt import apply_stylesheet, view_stylesheet
from repro.xupdate import Append, Remove, Rename, UpdateContent, parse_xupdate


def lazy_view(db, user):
    return build_lazy_view(db.document, db.policy, user, db.resolver)


def lazy_execute(db, user, operation, strict=False):
    """``Session.execute`` with the selection made on a lazy view: the
    database's own secure executor, committed through a transaction."""
    with db.transaction() as txn:
        result = db.write_executor.apply(
            lazy_view(db, user), operation, strict=strict
        )
        txn.commit(result.document, result.changes)
    return result


class TestLazyWorkflow:
    """The full hospital workflow with every selection made on a
    lazily-enforced view."""

    def test_end_to_end_lazy(self):
        db = hospital_database()
        lazy_execute(
            db,
            "beaufort",
            Append("/patients", element("albert", element("diagnosis"))),
            strict=True,
        )
        lazy_execute(
            db,
            "laporte",
            Append("/patients/albert/diagnosis", text("angina")),
            strict=True,
        )
        lazy_execute(
            db,
            "laporte",
            UpdateContent("/patients/albert/diagnosis", "pericarditis"),
            strict=True,
        )
        tree = render_tree(lazy_view(db, "beaufort"))
        assert "/albert" in tree
        assert "pericarditis" not in tree
        assert "RESTRICTED" in tree
        assert tree == db.login("beaufort").read_tree()

    def test_lazy_and_materialized_sessions_interleave(self):
        db = hospital_database()
        materialized = db.login("beaufort")
        lazy_execute(
            db, "laporte", UpdateContent("/patients/franck/diagnosis", "flu")
        )
        # The session picks up the commit selected on the lazy view.
        assert "RESTRICTED" in materialized.read_tree()
        materialized.execute(Rename("/patients/franck", "francois"))
        assert "francois" in render_tree(lazy_view(db, "laporte"))

    def test_lazy_script_execution(self):
        db = hospital_database()
        script = parse_xupdate(
            '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
            '<xupdate:update select="/patients/franck/diagnosis">a</xupdate:update>'
            '<xupdate:update select="/patients/robert/diagnosis">b</xupdate:update>'
            "</xupdate:modifications>"
        )
        # Two operations: the second selects on LazyView.rebased().
        result = lazy_execute(db, "laporte", script)
        assert len(result.affected) == 2
        via_session = hospital_database().login("laporte").execute(script)
        assert result.document.facts() == via_session.document.facts()


class TestXsltAfterUpdates:
    def test_stylesheet_recompiles_against_new_state(self):
        db = hospital_database()
        db.login("beaufort").execute(
            Append("/patients", element("albert", element("diagnosis"))),
            strict=True,
        )
        view = db.build_view("beaufort")
        output = apply_stylesheet(view_stylesheet(view), db.document)
        assert serialize(output) == serialize(view.doc)

    def test_stale_stylesheet_is_not_silently_wrong(self):
        """A stylesheet compiled before an update may mis-render the new
        state -- recompile per state; this guards the documentation."""
        db = hospital_database()
        old_view = db.build_view("beaufort")
        old_sheet = view_stylesheet(old_view)
        db.login("laporte").execute(
            Remove("/patients/franck/diagnosis/text()"), strict=True
        )
        fresh_view = db.build_view("beaufort")
        fresh_sheet = view_stylesheet(fresh_view)
        fresh_out = apply_stylesheet(fresh_sheet, db.document)
        assert serialize(fresh_out) == serialize(fresh_view.doc)
        # The stale sheet still runs without crashing, but only the
        # freshly compiled one is guaranteed to match the current view.
        apply_stylesheet(old_sheet, db.document)


class TestStoragePlusSessions:
    def test_full_cycle_save_reload_work(self):
        db = hospital_database()
        db.login("laporte").execute(
            UpdateContent("/patients/franck/diagnosis", "pharyngitis"),
            strict=True,
        )
        reloaded = load_database(dump_database(db))
        # Reloaded database keeps the updated content and the policy.
        assert "pharyngitis" in reloaded.login("laporte").read_xml()
        assert "RESTRICTED" in reloaded.login("beaufort").read_tree()
        # And writes keep working.
        result = reloaded.login("laporte").execute(
            UpdateContent("/patients/franck/diagnosis", "cured"), strict=True
        )
        assert result.fully_applied

