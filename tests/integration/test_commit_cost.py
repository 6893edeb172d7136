"""Counting guard: a commit costs its change, not the document.

A write installs ``dbnew = db +- delta`` (formulae (2)-(9)), so the
commit and the maintenance it triggers -- the new document generation,
the permission tables patched on the commit's dirty nodes, the reader's
view patched on its dirty regions -- must do work proportional to the
delta.  Two counts per write + read cycle stand in for that work, with
no stopwatch:

- ``NodeId.__hash__`` calls outside XPath evaluation.  Evaluation is
  left out because the child step still tests every sibling of
  ``/patients`` (the per-parent name index is a separate item); every
  other dict or set touch of an id is counted.
- sibling lists a ``copy()`` made during the cycle ended up not sharing
  with the document it was copied from.

Re-listing every sibling list per copy and re-resolving each cached
permission table over whole selections made both grow with the
document: 5,499 -> 43,299 hashes and 1,204 -> 9,604 lists from 120 to
960 patients.

The database is the benchmark's hospital (``tests/hospital.py``).

A write's privilege checks are table lookups too: the view it selects
on already holds the user's permission table, so no check replays a
rule's chain automaton (``PathSkeleton.matches``) per node.
"""

from repro.security.privileges import Privilege
from repro.security.write import SecureWriteExecutor
from repro.xmltree import XMLDocument
from repro.xmltree.labels import NodeId
from repro.xpath.compiler import CompiledXPath
from repro.xpath.skeleton import PathSkeleton

from tests.hospital import bench_hospital, update_script


def cycle_counts(patients: int, monkeypatch) -> dict:
    """Counts for laporte's one-op update + beaufort's point read, once
    views, selections and tables are warm."""
    db = bench_hospital(patients)
    writer, reader = db.login("laporte"), db.login("beaufort")
    for warm in range(3):
        writer.execute(update_script("patient00007", f"warm{warm}"))
        reader.query("/patients/patient00007/diagnosis")

    counting = [True]
    hashes = [0]
    copies = []
    original_hash = NodeId.__hash__
    original_call = CompiledXPath.__call__
    original_copy = XMLDocument.copy

    def counted_hash(self):
        if counting[0]:
            hashes[0] += 1
        return original_hash(self)

    def uncounted_call(self, ctx):
        counting[0] = False
        try:
            return original_call(self, ctx)
        finally:
            counting[0] = True

    def recorded_copy(self):
        dup = original_copy(self)
        copies.append((self, dup))
        return dup

    with monkeypatch.context() as patch:
        patch.setattr(NodeId, "__hash__", counted_hash)
        patch.setattr(CompiledXPath, "__call__", uncounted_call)
        patch.setattr(XMLDocument, "copy", recorded_copy)
        result = writer.execute(update_script("patient00042", "dxnew"))
        read = reader.query("/patients/patient00042/diagnosis")
    assert len(result.affected) == 1 and len(read) == 1
    assert copies, "a write copies the document"
    lists = sum(
        1
        for source, dup in copies
        for parent, kids in dup._children.items()
        if kids is not source._children.get(parent)
    )
    return {"hashes": hashes[0], "lists": lists}


def test_commit_work_does_not_grow_with_the_document(monkeypatch):
    """8x the patients: both counts grow < 1.5x (they are flat)."""
    small = cycle_counts(120, monkeypatch)
    large = cycle_counts(960, monkeypatch)
    for count in ("hashes", "lists"):
        assert large[count] < 1.5 * max(small[count], 1), (count, small, large)


def test_a_commit_patches_tables_instead_of_resolving():
    """The cycle re-resolves no table: each cached fingerprint is
    carried or patched by the commit, and the reader's view is patched."""
    db = bench_hospital(120)
    writer, reader = db.login("laporte"), db.login("beaufort")
    writer.execute(update_script("patient00007", "warm"))
    reader.query("/patients/patient00007/diagnosis")
    before = db.stats()
    writer.execute(update_script("patient00042", "dxnew"))
    reader.query("/patients/patient00042/diagnosis")
    after = db.stats()
    assert after["full_resolves"] == before["full_resolves"]
    assert after["delta_resolves"] == before["delta_resolves"]
    assert (
        after["tables_carried"] + after["tables_patched"]
        > before["tables_carried"] + before["tables_patched"]
    )
    assert after["view_incremental_patches"] > before["view_incremental_patches"]
    assert after["view_full_builds"] == before["view_full_builds"]


def test_write_checks_replay_no_rule_automaton(monkeypatch):
    """A warm one-op write makes no ``PathSkeleton.matches`` call inside
    ``SecureWriteExecutor.apply``: every check reads the view's table."""
    db = bench_hospital(120)
    writer = db.login("laporte")
    for warm in range(3):
        writer.execute(update_script("patient00007", f"warm{warm}"))

    depth = [0]
    matches = [0]
    original_apply = SecureWriteExecutor.apply
    original_matches = PathSkeleton.matches

    def counted_apply(self, *args, **kwargs):
        depth[0] += 1  # apply recurses once per script operation
        try:
            return original_apply(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_matches(self, *args, **kwargs):
        if depth[0]:
            matches[0] += 1
        return original_matches(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SecureWriteExecutor, "apply", counted_apply)
        patch.setattr(PathSkeleton, "matches", counted_matches)
        result = writer.execute(update_script("patient00042", "dxnew"))
    assert len(result.affected) == 1
    assert matches[0] == 0


def test_can_after_a_served_view_is_one_table_lookup():
    """``Session.can()`` by a user whose view was just served hits the
    cached table: no rule-path evaluation, no view build."""
    db = bench_hospital(120)
    writer, reader = db.login("laporte"), db.login("beaufort")
    writer.execute(update_script("patient00042", "dxnew"))
    reader.query("/patients/patient00042/diagnosis")
    (service,) = db.engine.select(db.document, "/patients/patient00042/service")
    before = db.stats()
    held = reader.can("read", service)
    after = db.stats()
    assert after["table_cache_hits"] == before["table_cache_hits"] + 1
    assert after["path_evals"] == before["path_evals"]
    assert after["view_full_builds"] == before["view_full_builds"]
    assert held == db.resolver.resolve(db.document, db.policy, "beaufort").holds(
        service, Privilege.READ
    )
