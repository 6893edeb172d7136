"""Cost guards for view growth and script rebasing -- ratios and counts,
no stopwatch thresholds.

A view is grown from the nodes its user may see, so building a 7-node
view costs those nodes and their sibling lists, not the document; and a
secure script
re-derives its view between operations with the executor's own
resolver, constructing nothing per operation.

The database is the benchmark's hospital (``tests/hospital.py``).
"""

import time

from repro.security import PermissionResolver, SecureWriteExecutor, ViewBuilder
from repro.xmltree import serialize
from repro.xpath import XPathEngine
from repro.xupdate import parse_xupdate

from tests.hospital import bench_hospital, update_script, xupdate_script


def _best_build_seconds(db, user, table, rounds=5):
    """Best of ``rounds`` (a scheduling hiccup is not growth)."""
    builder = ViewBuilder(db.resolver)
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        view = builder.build(db.document, db.policy, user, permissions=table)
        best = min(best, time.perf_counter() - started)
    return best, view


def test_a_narrow_view_does_not_pay_for_the_document():
    """On 3,200 patients (16,002 nodes) a patient's 7-node view, table
    given, builds at least 10x faster than the doctor's whole-document
    view.  Copy-then-prune made the two cost the same (~1x); growing
    from the selected nodes makes it ~70x."""
    db = bench_hospital(3200)
    patient = "patient01234"
    tables = {
        user: db.resolver.resolve(db.document, db.policy, user)
        for user in (patient, "laporte")
    }
    narrow, patient_view = _best_build_seconds(db, patient, tables[patient])
    wide, doctor_view = _best_build_seconds(db, "laporte", tables["laporte"])
    assert len(patient_view.doc) == 7
    assert len(doctor_view.doc) == len(db.document) == 16002
    assert serialize(patient_view.doc) == (
        f"<patients><{patient}><service>cardiology</service>"
        f"<diagnosis>dx{1234:08x}</diagnosis></{patient}></patients>"
    )
    assert wide / narrow >= 10, (narrow, wide)


def four_op_script():
    return parse_xupdate(
        xupdate_script(
            "".join(
                f'<xupdate:update select="/patients/patient{index:05d}'
                f'/diagnosis">v{index}</xupdate:update>'
                for index in range(4)
            )
        )
    )


def count_constructions(monkeypatch):
    built = {"PermissionResolver": 0, "XPathEngine": 0}
    for cls in (PermissionResolver, XPathEngine):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kw):
            built[_name] += 1
            _original(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_a_script_constructs_no_resolver_and_no_engine(monkeypatch):
    """Every operation after the first selects on the view rebased with
    the executor's own resolver: a 4-op script builds 0 resolvers and 0
    engines (it used to build 3 of each, re-compiling every applicable
    rule path per operation)."""
    db = bench_hospital(120)
    doctor = db.login("laporte")
    doctor.execute(update_script("patient00007", "warm"))
    built = count_constructions(monkeypatch)
    compiled = db.engine.paths_compiled
    result = doctor.execute(four_op_script())
    assert len(result.affected) == 4
    assert built == {"PermissionResolver": 0, "XPathEngine": 0}
    # Four new operation paths; every rule path came from the cache.
    assert db.engine.paths_compiled - compiled == 4
    assert doctor.query("string(/patients/patient00003/diagnosis)") == "v3"


def test_a_default_executor_builds_its_resolver_once(monkeypatch):
    db = bench_hospital(20)
    view = ViewBuilder(db.resolver).build(db.document, db.policy, "laporte")
    built = count_constructions(monkeypatch)
    executor = SecureWriteExecutor()
    assert built == {"PermissionResolver": 1, "XPathEngine": 1}
    result = executor.apply(view, four_op_script())
    assert built == {"PermissionResolver": 1, "XPathEngine": 1}
    via_database = db.write_executor.apply(view, four_op_script())
    assert len(result.affected) == 4
    assert result.document.facts() == via_database.document.facts()
