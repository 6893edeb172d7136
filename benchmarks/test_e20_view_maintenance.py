"""E20 (added): shared view cache + incremental maintenance at scale.

The serving scenario the paper's hospital implies but never measures:
many concurrent staff sessions whose permission tables are identical
(no ``$USER`` in any applicable rule), against a database that keeps
changing.  Before this layer, every session rebuilt its authorized
view from scratch on every commit -- O(sessions x document) per write.
With change-sets, fingerprint sharing and incremental patching, one
session pays a (subtree-sized) patch and the rest are O(1) facades.

Rows: mode | patients | sessions | total serve time for the series.
``test_e20_serving_speedup`` asserts the acceptance criteria: >= 10x
over rebuild-per-session at 100 sessions / 800 patients, with the
``db.stats()`` counters proving views were shared (``view_hits > 0``)
and no permission table was re-derived from nothing after warm-up
(``full_resolves`` unchanged).  The ``smoke`` variants run the same
series at three small sizes inside ``make verify``.
"""

import time

import pytest

from conftest import ILLNESSES, print_series, synthetic_hospital

from repro.security import SecureXMLDatabase
from repro.security.view import ViewBuilder
from repro.xmltree import serialize
from repro.xupdate import UpdateContent

PATIENTS = 800
SESSIONS = 100
ROUNDS = 3


def serving_database(patients: int, nurses: int) -> SecureXMLDatabase:
    """A synthetic hospital with ``nurses`` extra secretarial users.

    All nurses are members of the paper's ``secretary`` role, and no
    secretary-applicable rule mentions ``$USER``, so every nurse shares
    one permission fingerprint -- the sharing case this experiment is
    about."""
    base = synthetic_hospital(patients)
    for index in range(nurses):
        base.subjects.add_user(f"nurse{index:03d}", member_of="secretary")
    return base


def nurse_sessions(db: SecureXMLDatabase, nurses: int):
    return [db.login(f"nurse{index:03d}") for index in range(nurses)]


class RebuildingSession:
    """The rebuild-per-session baseline, expressed without a switch:
    every refresh re-resolves the user's table (against the database's
    maintained path selections) and builds the view from scratch --
    what each session did before the shared cache existed."""

    def __init__(self, db: SecureXMLDatabase, user: str) -> None:
        self._db = db
        self._user = user
        self._builder = ViewBuilder(db.resolver)

    def view(self):
        return self._builder.build(
            self._db.document, self._db.policy, self._user
        )


def rebuilding_sessions(db: SecureXMLDatabase, nurses: int):
    return [
        RebuildingSession(db, f"nurse{index:03d}") for index in range(nurses)
    ]


def serve_series(db, sessions, patients: int, rounds: int) -> float:
    """Commit ``rounds`` single-diagnosis updates, refreshing every
    session's view after each; return the time spent serving views
    (commits excluded -- both modes pay the same commit cost)."""
    total = 0.0
    for r in range(rounds):
        target = (17 * r + 5) % patients
        db.admin_update(
            UpdateContent(
                f"//patient{target:05d}/diagnosis",
                ILLNESSES[r % len(ILLNESSES)],
            )
        )
        start = time.perf_counter()
        for session in sessions:
            session.view()
        total += time.perf_counter() - start
    return total


def run_comparison(patients: int, nurses: int, rounds: int):
    """Warm both modes, run the series, return (rebuild_s, shared_s,
    warm_stats, final_stats, one shared session for checking)."""
    shared_db = serving_database(patients, nurses)
    rebuild_db = serving_database(patients, nurses)
    shared_sessions = nurse_sessions(shared_db, nurses)
    rebuild_sessions = rebuilding_sessions(rebuild_db, nurses)
    for session in shared_sessions:
        session.view()
    for session in rebuild_sessions:
        session.view()
    warm = shared_db.stats()
    rebuild_s = serve_series(rebuild_db, rebuild_sessions, patients, rounds)
    shared_s = serve_series(shared_db, shared_sessions, patients, rounds)
    final = shared_db.stats()
    return rebuild_s, shared_s, warm, final, shared_db


def assert_serving_counters(warm: dict, final: dict) -> None:
    # Views were shared across sessions...
    assert final["view_hits"] > warm["view_hits"]
    # ...maintained by patching, not rebuilt...
    assert final["view_incremental_patches"] > warm["view_incremental_patches"]
    assert final["view_full_builds"] == warm["view_full_builds"]
    # ...and no permission table was re-derived from nothing: every
    # post-warm-up resolve was a delta against maintained selections.
    assert final["full_resolves"] == warm["full_resolves"]


def assert_served_equals_scratch(db: SecureXMLDatabase, user: str) -> None:
    served = db.build_view(user)
    scratch = ViewBuilder().build(db.document, db.policy, user)
    assert served.facts() == scratch.facts()
    assert serialize(served.doc) == serialize(scratch.doc)


def test_e20_serving_speedup():
    rebuild_s, shared_s, warm, final, db = run_comparison(
        PATIENTS, SESSIONS, ROUNDS
    )
    ratio = rebuild_s / shared_s
    print_series(
        f"E20 serving series ({ROUNDS} commits, {SESSIONS} sessions, "
        f"{PATIENTS} patients)",
        [
            ("rebuild-per-session", f"{rebuild_s * 1000:.1f} ms"),
            ("shared+incremental", f"{shared_s * 1000:.1f} ms"),
            ("speedup", f"{ratio:.1f}x"),
        ],
    )
    assert ratio >= 10.0, f"only {ratio:.1f}x over rebuild-per-session"
    assert_serving_counters(warm, final)
    assert_served_equals_scratch(db, "nurse000")


@pytest.mark.parametrize(
    "patients,nurses",
    [(40, 8), (80, 12), (160, 16)],
    ids=lambda v: str(v),
)
def test_e20_smoke(patients, nurses):
    """Fast three-size variant of E20 for ``make verify``: the same
    counters and the differential check, with a loose timing bar."""
    rebuild_s, shared_s, warm, final, db = run_comparison(
        patients, nurses, rounds=2
    )
    assert_serving_counters(warm, final)
    assert_served_equals_scratch(db, "nurse000")
    assert rebuild_s / shared_s >= 2.0


@pytest.fixture(scope="module")
def shared_setup():
    db = serving_database(PATIENTS, SESSIONS)
    sessions = nurse_sessions(db, SESSIONS)
    for session in sessions:
        session.view()
    return db, sessions


@pytest.fixture(scope="module")
def rebuild_setup():
    db = serving_database(PATIENTS, SESSIONS)
    sessions = rebuilding_sessions(db, SESSIONS)
    for session in sessions:
        session.view()
    return db, sessions


def test_e20_shared_incremental_timing(benchmark, shared_setup):
    db, sessions = shared_setup

    def run():
        return serve_series(db, sessions, PATIENTS, 1)

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


def test_e20_rebuild_per_session_timing(benchmark, rebuild_setup):
    db, sessions = rebuild_setup

    def run():
        return serve_series(db, sessions, PATIENTS, 1)

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
