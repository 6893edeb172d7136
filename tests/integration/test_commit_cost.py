"""Counting guard: a commit costs its change, not the document.

A write installs ``dbnew = db +- delta`` (formulae (2)-(9)), so the
commit and the maintenance it triggers -- the new document generation,
the permission tables patched on the commit's dirty nodes, the reader's
view patched on its dirty regions -- must do work proportional to the
delta.  Two counts per write + read cycle stand in for that work, with
no stopwatch:

- ``NodeId.__hash__`` calls, XPath evaluation included: every dict or
  set touch of an id.  A child step by name is a lookup in the parent's
  name index (``XMLDocument.children_named``), so ``/patients/<name>``
  does not test every sibling of ``/patients``.
- sibling lists a ``copy()`` made during the cycle ended up not sharing
  with the document it was copied from.

Re-listing every sibling list per copy and re-resolving each cached
permission table over whole selections made both grow with the
document: 5,499 -> 43,299 hashes and 1,204 -> 9,604 lists from 120 to
960 patients.  A child step that scanned its siblings made a warm
point read hash 376 -> 2,896 ids and rule 5's selection for one user
507 -> 3,867; both are now the same count at either size.

The database is the benchmark's hospital (``tests/hospital.py``).

A commit compiles no permission automaton and, for a predicate-free
fingerprint, evaluates no rule path: a cached table is rebound to the
new generation, and a read two commits behind patches its view by the
composed change-set.

A write's privilege checks ask the view's table, which walks the
fingerprint's automaton down the node's ancestry: a warm check builds
no transition, and a warm ``can`` steps at most depth + 1 times.  The
table itself stores no decision, so its memory does not grow with the
document.

A served write encodes its script once: the text is parsed once, before
the retry loop, and the log records that text, so the commit serializes
no XML (``dump_xupdate`` used to serialize the script and re-parse it).
"""

import gc
import sys
import threading
import tracemalloc

from repro.security import PermissionResolver
from repro.security.automaton import LabelAutomaton
from repro.security.privileges import Privilege
from repro.security.write import SecureWriteExecutor
from repro.serving import DatabaseServer, GroupCommitter
from repro.wal import WriteAheadLog
from repro.xmltree import XMLDocument
from repro.xmltree.labels import NodeId
from repro.xmltree.serializer import serialize
from repro.xupdate.parser import parse_xupdate

from tests.hospital import bench_hospital, update_script


def count_hashes(action, monkeypatch):
    """``(action(), NodeId.__hash__ calls it made)``."""
    hashes = [0]
    original_hash = NodeId.__hash__

    def counted_hash(self):
        hashes[0] += 1
        return original_hash(self)

    with monkeypatch.context() as patch:
        patch.setattr(NodeId, "__hash__", counted_hash)
        result = action()
    return result, hashes[0]


def cycle_counts(patients: int, monkeypatch) -> dict:
    """Counts for laporte's one-op update + beaufort's point read, once
    views, selections and tables are warm."""
    db = bench_hospital(patients)
    writer, reader = db.login("laporte"), db.login("beaufort")
    for warm in range(3):
        writer.execute(update_script("patient00007", f"warm{warm}"))
        reader.query("/patients/patient00007/diagnosis")

    copies = []
    original_copy = XMLDocument.copy

    def recorded_copy(self):
        dup = original_copy(self)
        copies.append((self, dup))
        return dup

    def cycle():
        result = writer.execute(update_script("patient00042", "dxnew"))
        return result, reader.query("/patients/patient00042/diagnosis")

    with monkeypatch.context() as patch:
        patch.setattr(XMLDocument, "copy", recorded_copy)
        (result, read), hashes = count_hashes(cycle, monkeypatch)
    assert len(result.affected) == 1 and len(read) == 1
    assert copies, "a write copies the document"
    lists = sum(
        1
        for source, dup in copies
        for parent, kids in dup._children.items()
        if kids is not source._children.get(parent)
    )
    return {"hashes": hashes, "lists": lists}


def test_commit_work_does_not_grow_with_the_document(monkeypatch):
    """8x the patients: both counts grow < 1.5x (they are flat), and
    the cycle, evaluation included, hashes exactly as many ids."""
    small = cycle_counts(120, monkeypatch)
    large = cycle_counts(960, monkeypatch)
    for count in ("hashes", "lists"):
        assert large[count] < 1.5 * max(small[count], 1), (count, small, large)
    assert large["hashes"] == small["hashes"], (small, large)


def point_read_hashes(patients: int, monkeypatch) -> int:
    """Ids hashed by beaufort's warm point read of one diagnosis."""
    db = bench_hospital(patients)
    reader = db.login("beaufort")
    path = "/patients/patient00042/diagnosis"
    reader.query(path)
    read, hashes = count_hashes(lambda: reader.query(path), monkeypatch)
    assert len(read) == 1
    return hashes


def test_a_warm_point_read_hashes_the_same_at_any_size(monkeypatch):
    """``/patients/<name>/diagnosis`` looks its two names up: its count
    does not depend on how many siblings ``<name>`` has."""
    assert point_read_hashes(960, monkeypatch) == point_read_hashes(120, monkeypatch)


def rule_5_hashes(patients: int, monkeypatch) -> int:
    """Ids hashed by rule 5's selection for one patient user."""
    db = bench_hospital(patients)
    path = "/patients/*[$USER]/descendant-or-self::*"
    user = {"USER": "patient00042"}
    db.engine.select(db.document, path, variables=user)
    selected, hashes = count_hashes(
        lambda: db.engine.select(db.document, path, variables=user), monkeypatch
    )
    # The paper-compat ``*`` matches the two text nodes too.
    assert [db.document.label(n) for n in selected][::2] == [
        "patient00042", "cardiology", "dx0000002a"
    ]
    return hashes


def test_rule_5_selects_one_user_in_a_flat_count(monkeypatch):
    """``*[$USER]`` is a name lookup bound per login: selecting one
    user's subtree costs that subtree, not the patient count."""
    assert rule_5_hashes(960, monkeypatch) == rule_5_hashes(120, monkeypatch)


def test_a_commit_patches_tables_instead_of_resolving():
    """The cycle compiles no automaton and evaluates no rule path: the
    reader's cached table is rebound to the new generation and its
    view is patched."""
    db = bench_hospital(120)
    writer, reader = db.login("laporte"), db.login("beaufort")
    writer.execute(update_script("patient00007", "warm"))
    reader.query("/patients/patient00007/diagnosis")
    before = db.stats()
    writer.execute(update_script("patient00042", "dxnew"))
    reader.query("/patients/patient00042/diagnosis")
    after = db.stats()
    assert after["full_resolves"] == before["full_resolves"]
    assert after["path_evals"] == before["path_evals"]
    assert db.permissions_for("beaufort").doc is db.document
    assert after["view_incremental_patches"] > before["view_incremental_patches"]
    assert after["view_full_builds"] == before["view_full_builds"]


def test_a_read_two_commits_behind_patches_its_table():
    """The reader's entry is two commits behind: its table is rebound
    and its view patched by the composed change-set, not derived."""
    db = bench_hospital(120)
    writer, reader = db.login("laporte"), db.login("beaufort")
    writer.execute(update_script("patient00007", "warm"))
    reader.query("/patients/patient00007/diagnosis")
    writer.execute(update_script("patient00042", "dx1"))
    writer.execute(update_script("patient00043", "dx2"))
    before = db.stats()
    reader.query("/patients/patient00042/diagnosis")
    after = db.stats()
    assert after["full_resolves"] == before["full_resolves"]
    assert after["path_evals"] == before["path_evals"]
    assert after["view_incremental_patches"] == before["view_incremental_patches"] + 1
    assert after["view_full_builds"] == before["view_full_builds"]


def count_method(cls, name, patch, inside=None) -> list:
    """Count calls to ``cls.name`` (only those made while ``inside``
    returns true, when given)."""
    calls = [0]
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        if inside is None or inside():
            calls[0] += 1
        return original(*args, **kwargs)

    patch.setattr(cls, name, counted)
    return calls


def test_write_checks_replay_no_rule_automaton(monkeypatch):
    """A warm one-op write builds no automaton transition inside
    ``SecureWriteExecutor.apply``: every check walks transitions the
    view's table already built."""
    db = bench_hospital(120)
    writer = db.login("laporte")
    for warm in range(3):
        writer.execute(update_script("patient00007", f"warm{warm}"))

    depth = [0]
    original_apply = SecureWriteExecutor.apply

    def counted_apply(self, *args, **kwargs):
        depth[0] += 1  # apply recurses once per script operation
        try:
            return original_apply(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    before = db.stats()
    with monkeypatch.context() as patch:
        patch.setattr(SecureWriteExecutor, "apply", counted_apply)
        built = count_method(
            LabelAutomaton, "_transition", patch, inside=lambda: depth[0]
        )
        steps = count_method(LabelAutomaton, "step", patch, inside=lambda: depth[0])
        result = writer.execute(update_script("patient00042", "dxnew"))
    assert len(result.affected) == 1
    assert steps[0] > 0  # the checks did ask the automaton
    assert built[0] == 0
    assert db.stats()["full_resolves"] == before["full_resolves"]


def test_a_warm_can_walks_at_most_depth_plus_one_transitions(monkeypatch):
    """``can`` on a node ``depth`` levels below the document node steps
    the automaton at most depth + 1 times, and builds nothing."""
    db = bench_hospital(120)
    reader = db.login("beaufort")
    (service,) = db.engine.select(db.document, "/patients/patient00042/service")
    reader.can("read", service)
    with monkeypatch.context() as patch:
        steps = count_method(LabelAutomaton, "step", patch)
        built = count_method(LabelAutomaton, "_transition", patch)
        assert reader.can("read", service)
    assert steps[0] <= service.level + 1
    assert built[0] == 0


def retained_table_bytes(patients: int) -> int:
    """Bytes laporte's table keeps alive once every node was decided."""
    db = bench_hospital(patients)
    resolver = PermissionResolver(db.engine)
    db.policy.applicable_rules("laporte")  # the subjects' closure is not the table
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = resolver.resolve(db.document, db.policy, "laporte")
        assert len(table.nodes_with(Privilege.READ)) == len(db.document) - 1
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.holds(db.document.root, Privilege.READ)
    return retained


def test_a_table_retains_the_same_memory_at_any_size():
    """The table stores no decision: 8x the patients, < 1.5x the bytes."""
    small, large = retained_table_bytes(120), retained_table_bytes(960)
    assert large < 1.5 * small, (small, large)


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


def count_calls(function, patch) -> list:
    """Record the arguments of every call to ``function``.

    ``from ... import name`` binds the function in each importing
    module, so every ``repro`` module's binding is replaced."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    patch.setattr(module, attr, counted)
    return calls


def served_hospital(tmp_path):
    """``(server, committer)`` over a logged hospital, warmed up."""
    db = bench_hospital(120)
    db.attach_wal(WriteAheadLog(str(tmp_path / "db.wal")))
    db.wal.checkpoint(db)
    server = DatabaseServer(db)
    committer = GroupCommitter(server)
    for warm in range(3):
        committer.commit("laporte", update_script("patient00007", f"w{warm}"))
    return server, committer


def test_a_served_write_parses_once_and_serializes_nothing(
    tmp_path, monkeypatch
):
    _, committer = served_hospital(tmp_path)
    script = update_script("patient00042", "dxnew")
    with monkeypatch.context() as patch:
        parses = count_calls(parse_xupdate, patch)
        serializes = count_calls(serialize, patch)
        result = committer.commit("laporte", script)
    assert len(result.affected) == 1
    assert parses == [(script,)]
    assert serializes == []


def test_a_raced_member_is_resubmitted_without_reparsing(
    tmp_path, monkeypatch
):
    """A real commit race: another commit lands while the member's
    first attempt runs, so its transaction raises
    ``ConcurrentUpdateError`` and the committer re-submits it."""
    server, committer = served_hospital(tmp_path)
    script = update_script("patient00042", "dxnew")
    original_apply = SecureWriteExecutor.apply
    raced = []

    def racing_apply(self, *args, **kwargs):
        result = original_apply(self, *args, **kwargs)
        if not raced:
            raced.append(True)
            interloper = update_script("patient00043", "interloper")
            server.database.admin_update(interloper)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(SecureWriteExecutor, "apply", racing_apply)
        parses = count_calls(parse_xupdate, patch)
        serializes = count_calls(serialize, patch)
        result = committer.commit("laporte", script)
    assert raced and server.stats()["commit_races"] == 1
    assert len(result.affected) == 1
    # The interloper's own text is parsed too; the member's, once.
    assert [call for call in parses if call == (script,)] == [(script,)]
    assert serializes == []


def test_an_in_process_write_never_waits_on_a_condition(
    tmp_path, monkeypatch
):
    """``DatabaseServer.execute``'s committer has one seat per group: a
    group seals on submit and goes straight to its run, so a write
    neither waits for followers nor polls for them -- no
    ``threading.Condition.wait`` anywhere on the path (a ticket
    ``Event.wait`` would be one too).  A lone write through a
    many-seat committer seals at once as well: nothing is coming."""
    server, committer = served_hospital(tmp_path)
    waits = []
    original = threading.Condition.wait
    me = threading.get_ident()

    def wait(self, timeout=None):
        if threading.get_ident() == me:
            waits.append(timeout)
        return original(self, timeout)

    monkeypatch.setattr(threading.Condition, "wait", wait)
    for index in range(5):
        result = server.execute(
            "laporte", update_script("patient00042", f"dx{index}")
        )
        assert len(result.affected) == 1
    assert committer.commit(
        "laporte", update_script("patient00043", "dx")
    ).fully_applied
    assert waits == []
    assert committer.coming == 0
