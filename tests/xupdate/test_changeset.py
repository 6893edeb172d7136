"""Change-set recording: executors must publish exact structural deltas."""

import pytest

from repro.xmltree import XMLDocument, element, text
from repro.xupdate import (
    Append,
    ChangeSet,
    InsertAfter,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
    XUpdateExecutor,
)


@pytest.fixture
def doc():
    d = XMLDocument()
    root = d.add_root("patients")
    element("patient", element("service", text("cardio")), element("diagnosis")).attach(
        d, root
    )
    return d


@pytest.fixture
def executor():
    return XUpdateExecutor()


class TestRecording:
    def test_rename_records_the_relabelled_nodes(self, doc, executor):
        result = executor.apply(doc, Rename("//service", "svc"))
        cs = result.changes
        assert cs.relabelled == set(result.affected)
        assert {result.document.label(n) for n in cs.relabelled} == {"svc"}
        assert not cs.added and not cs.removed and not cs.conservative

    def test_update_content_records_each_child(self, doc, executor):
        result = executor.apply(doc, UpdateContent("//service", "neuro"))
        cs = result.changes
        assert cs.relabelled == set(result.affected)
        # The text child is the relabelled node, not its element parent.
        assert {result.document.label(n) for n in cs.relabelled} == {"neuro"}
        assert cs.touched_roots() == cs.relabelled

    def test_append_records_the_inserted_root(self, doc, executor):
        fragment = element("note", element("author", text("dr")))
        result = executor.apply(doc, Append("//diagnosis", fragment))
        cs = result.changes
        assert cs.added == set(result.affected)
        # Only the fragment's root is recorded, not its descendants.
        (root,) = cs.added
        assert result.document.label(root) == "note"
        assert cs.touched_roots() == {root}

    def test_remove_records_the_deleted_root(self, doc, executor):
        (patient,) = doc.children(doc.root)
        result = executor.apply(doc, Remove("//patient"))
        cs = result.changes
        assert cs.removed == set(result.affected) == {patient}
        # Only the deleted root is recorded; it is gone from the result.
        assert cs.touched_roots() == {patient}
        assert patient not in result.document

    def test_insert_after_records_added_root(self, doc, executor):
        result = executor.apply(doc, InsertAfter("//diagnosis", element("extra")))
        assert result.changes.added == set(result.affected)
        assert [result.document.label(n) for n in result.changes.added] == ["extra"]

    def test_script_merges_per_operation_changes(self, doc, executor):
        script = UpdateScript(
            [
                Rename("//service", "svc"),
                Append("//diagnosis", element("note")),
            ]
        )
        result = executor.apply(doc, script)
        cs = result.changes
        assert cs.relabelled and cs.added
        assert {result.document.label(n) for n in cs.relabelled} == {"svc"}
        assert {result.document.label(n) for n in cs.added} == {"note"}

    def test_no_targets_means_empty_changeset(self, doc, executor):
        result = executor.apply(doc, Rename("//nonexistent", "x"))
        assert not result.changes
        assert result.changes.touched_roots() == set()


class TestChangeSetAlgebra:
    def test_unknown_is_conservative_and_truthy(self):
        cs = ChangeSet.unknown()
        assert cs.conservative and bool(cs)

    def test_empty_is_falsy(self):
        assert not ChangeSet()

    def test_merge_unions_everything(self, doc):
        root = doc.root
        a = ChangeSet()
        a.note_added(root)
        kid = doc.children(root)[0]
        b = ChangeSet()
        b.note_relabelled(kid)
        merged = a.merge(b)
        assert merged.added == {root} and merged.relabelled == {kid}
        assert merged.touched_roots() == {root, kid}
        assert not merged.conservative
        assert a.merge(ChangeSet.unknown()).conservative

    def test_merge_all_folds(self, doc):
        root = doc.root
        parts = []
        kid = doc.children(root)[0]
        for nid in (root, kid):
            cs = ChangeSet()
            cs.note_relabelled(nid)
            parts.append(cs)
        merged = ChangeSet.merge_all(parts)
        assert merged.relabelled == {root, kid}

    def test_touched_roots_covers_every_category(self, doc):
        root = doc.root
        kid = doc.children(root)[0]
        cs = ChangeSet()
        cs.note_added(root)
        cs.note_removed(kid)
        cs.note_relabelled(kid)
        assert cs.touched_roots() == {root, kid}
        assert ChangeSet(relabelled={kid}).touched_roots() == {kid}


class TestSecureExecutorChanges:
    def test_secure_write_publishes_changes(self):
        from repro.core import hospital_database

        db = hospital_database()
        doctor = db.login("laporte")
        result = doctor.execute(UpdateContent("/patients/franck/diagnosis", "flu"))
        assert result.changes.relabelled
        assert {
            result.document.label(n) for n in result.changes.relabelled
        } == {"flu"}
        assert not result.changes.conservative

    def test_insecure_executor_is_conservative(self):
        from repro.core import hospital_database
        from repro.security.insecure import InsecureWriteExecutor

        db = hospital_database()
        view = db.build_view("laporte")
        result = InsecureWriteExecutor().apply(
            view, Rename("//diagnosis", "dx")
        )
        assert result.changes.conservative
