"""The benchmark harness's coupling to product names.

``bench/`` judges every change and does not change alongside one, but
it reads the product by name: ``bench/harness.py`` diffs the ``stats``
ledger a served database answers with (its ``_COUNTERS`` table, plus
the keys it subscripts directly), and ``bench/trace.py`` wraps methods
and functions by name (``_METHODS``, ``_FUNCTIONS``).  This test reads
those tables with ``ast`` -- without importing ``bench`` -- so a
renamed counter or method fails tier-1, not the next benchmark run.
"""

import ast
import importlib
from pathlib import Path

from repro.netserve.server import NetServer
from repro.serving import DatabaseServer
from repro.wal import WriteAheadLog

from tests.hospital import bench_hospital

BENCH = Path(__file__).resolve().parent.parent / "bench"


def module_tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in node.targets
        ):
            return node.value
    raise AssertionError(f"bench assigns no {name}")


def imported_names(tree: ast.Module) -> dict:
    """name -> the ``repro`` module ``from ... import name`` reads it from."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def served_stats(tmp_path) -> dict:
    """The keys of a ``stats`` reply: the server's ledger plus the
    network front end's ``net_`` counters, as ``NetServer`` merges them."""
    db = bench_hospital(4)
    db.attach_wal(WriteAheadLog(str(tmp_path / "db.wal")))
    db.wal.checkpoint(db)
    server = DatabaseServer(db)
    stats = server.stats()
    stats.update({f"net_{k}": v for k, v in NetServer(server).stats().items()})
    return stats


def test_every_counter_the_harness_reads_is_in_the_stats_ledger(tmp_path):
    tree = module_tree("harness.py")
    counters = ast.literal_eval(assigned(tree, "_COUNTERS"))
    read = set(counters.values())
    for node in ast.walk(tree):
        # ``after.stats["key"]``: keys the harness reads outside the table.
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "stats"
            and isinstance(node.slice, ast.Constant)
        ):
            read.add(node.slice.value)
    assert "full_resolves" in read and "grouped_records" in read
    missing = read - set(served_stats(tmp_path))
    assert not missing, sorted(missing)


def test_every_traced_name_exists():
    tree = module_tree("trace.py")
    sources = imported_names(tree)
    methods = assigned(tree, "_METHODS")
    assert isinstance(methods, ast.Tuple) and methods.elts
    for entry in methods.elts:
        owner, attribute, _span = entry.elts
        cls = getattr(importlib.import_module(sources[owner.id]), owner.id)
        assert callable(getattr(cls, ast.literal_eval(attribute), None)), (
            owner.id, ast.literal_eval(attribute)
        )
    functions = assigned(tree, "_FUNCTIONS")
    for entry in functions.elts:
        name = entry.elts[0].id
        assert callable(getattr(importlib.import_module(sources[name]), name))
