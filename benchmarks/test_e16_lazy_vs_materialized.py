"""E16 (added, ablation): lazy (filter) vs materialized enforcement.

The paper's conclusion proposes evaluating filtered queries on the
source instead of materializing per-user views, and asks whether the
answers stay compatible (they do -- tests/security/test_lazy.py).
This ablation measures the trade-off the choice actually buys:

- *selective query* (one rooted path): lazy enforcement touches only
  the nodes on the path; materialization pays for the whole document.
- *broad query* (``//*``): both walk everything; materialization's
  pruned copy amortizes if reused, lazy re-checks per query.
- *write*: both must resolve permissions; lazy skips the copy.

Rows: strategy | workload | time.
"""

import pytest

from conftest import synthetic_hospital

from repro.security import SecureWriteExecutor
from repro.security.lazy import build_lazy_view
from repro.xupdate import UpdateContent

PATIENTS = 400
SELECTIVE = "/patients/patient00123/diagnosis/text()"
BROAD = "//*"


@pytest.fixture(scope="module")
def db():
    return synthetic_hospital(PATIENTS)


def lazy_view(db, user):
    """A fresh lazily-enforced view: ``lazy`` is a library class, not a
    session mode, so the lazy rows build it and query it directly."""
    return build_lazy_view(db.document, db.policy, user, db.resolver)


def lazy_query(db, user, path, view=None):
    return db.engine.evaluate(
        view if view is not None else lazy_view(db, user),
        path,
        variables={"USER": user},
    )


def test_e16_selective_query_materialized(benchmark, db):
    def run():
        session = db.login("beaufort")  # fresh view each time
        return session.query(SELECTIVE)

    result = benchmark(run)
    assert len(result) == 1


def test_e16_selective_query_lazy(benchmark, db):
    def run():
        return lazy_query(db, "beaufort", SELECTIVE)

    result = benchmark(run)
    assert len(result) == 1


def test_e16_broad_query_materialized(benchmark, db):
    def run():
        session = db.login("beaufort")
        return session.query(BROAD)

    result = benchmark(run)
    assert len(result) > PATIENTS


def test_e16_broad_query_lazy(benchmark, db):
    def run():
        return lazy_query(db, "beaufort", BROAD)

    result = benchmark(run)
    assert len(result) > PATIENTS


def test_e16_repeated_queries_materialized(benchmark, db):
    """One view, many queries: materialization's amortization case."""
    session = db.login("beaufort")
    session.view()

    def run():
        total = 0.0
        for i in (1, 2, 3, 4, 5):
            total += session.query(f"count(/patients/*[{i}]/diagnosis)")
        return total

    total = benchmark(run)
    assert total == 5.0


def test_e16_repeated_queries_lazy(benchmark, db):
    view = lazy_view(db, "beaufort")

    def run():
        total = 0.0
        for i in (1, 2, 3, 4, 5):
            total += lazy_query(
                db, "beaufort", f"count(/patients/*[{i}]/diagnosis)", view
            )
        return total

    total = benchmark(run)
    assert total == 5.0


def test_e16_secure_write_materialized(benchmark, db):
    executor = SecureWriteExecutor()
    op = UpdateContent("/patients/patient00099/diagnosis", "revised")

    def run():
        view = db.build_view("laporte")
        return executor.apply(view, op)

    result = benchmark(run)
    assert len(result.affected) == 1


def test_e16_secure_write_lazy(benchmark, db):
    executor = SecureWriteExecutor()
    op = UpdateContent("/patients/patient00099/diagnosis", "revised")

    def run():
        view = lazy_view(db, "laporte")
        return executor.apply(view, op)

    result = benchmark(run)
    assert len(result.affected) == 1
