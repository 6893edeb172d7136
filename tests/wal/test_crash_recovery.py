"""Crash-recovery soaks: seeded schedules, random kill-points, and the
one invariant that matters -- recovery restores exactly the committed
prefix.

Each schedule drives a *primary* database (write-ahead logged) and a
*shadow* database (same deterministic construction, no log) through the
same action sequence.  A seeded RNG occasionally arms a durability
kill-point before an action; when the injected crash fires, the primary
is abandoned mid-flight -- exactly what a process death leaves behind --
and rebuilt with :func:`repro.wal.recover`.  The recovered state must
equal the shadow, or the shadow *after* the pending action (the
durable-but-unacknowledged window of ``wal-before-fsync``); nothing
else is acceptable.  The shadow is then synced and the run continues on
the recovered database with a re-opened log, so every schedule also
exercises recover-then-resume.

The hypothesis properties generalize the torn-tail handling: *any*
byte-level truncation of the log's last segment must recover to some
exact committed prefix -- never garbage, never a crash -- and repair
must be idempotent.
"""

import itertools
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import InjectedFault, faults
from repro.wal import WriteAheadLog, recover, scan_directory

from .conftest import USERS, append_script, editors_database, state_of

pytestmark = pytest.mark.recovery

KILL_CHOICES = (
    "wal-before-append",
    "wal-mid-record",
    "wal-before-fsync",
    "checkpoint-mid-snapshot",
)


# ---------------------------------------------------------------------------
# the deterministic action pool
# ---------------------------------------------------------------------------
def make_action(rng: random.Random, counter):
    """One deterministic action, applicable to primary and shadow alike.

    Every action appends at most ONE log record, so a crash anywhere
    leaves exactly two possible recovered states: without the action or
    with it (users are added without a role for that reason -- the
    membership edge would be a second record).
    """
    roll = rng.random()
    n = next(counter)
    if roll < 0.50:
        user = rng.choice(USERS)
        script = append_script(f"e{n}")
        return f"execute e{n}", lambda db: db.login(user).execute(script)
    if roll < 0.65:
        script = append_script(f"adm{n}")
        return f"admin adm{n}", lambda db: db.admin_update(script)
    if roll < 0.78:
        return f"add_user u{n}", lambda db: db.subjects.add_user(f"u{n}")
    if roll < 0.90:
        return (
            f"grant g{n}",
            lambda db: db.policy.grant("read", f"/log/e{n}", "editor"),
        )

    def checkpoint(db):
        if db.wal is not None:
            db.wal.checkpoint(db)

    return "checkpoint", checkpoint


def run_schedule(seed: int, wal_dir: str, steps: int = 8) -> None:
    """Drive one seeded schedule; assert the invariant at every crash."""
    rng = random.Random(seed)
    counter = itertools.count(1)
    primary = editors_database()
    shadow = editors_database()
    wal = WriteAheadLog(wal_dir)
    primary.attach_wal(wal)
    wal.checkpoint(primary)
    crashes = 0

    for step in range(steps):
        label, action = make_action(rng, counter)
        armed = None
        if rng.random() < 0.45:
            armed = rng.choice(KILL_CHOICES)
            faults.arm(armed)
        where = f"seed={seed} step={step} action={label} armed={armed}"
        try:
            action(primary)
        except InjectedFault:
            crashes += 1
            # The crash: whatever the primary's memory held is gone.
            primary.detach_wal().close()
            result = recover(wal_dir, repair=True)
            recovered_state = state_of(result.database)
            if recovered_state != state_of(shadow):
                # Only one other state is legal: the pending action made
                # it to disk before the crash (durable, unacknowledged).
                action(shadow)
                assert recovered_state == state_of(shadow), (
                    f"{where}: recovered state is neither the committed "
                    f"prefix nor prefix+pending"
                )
            primary = result.database
            primary.attach_wal(WriteAheadLog(wal_dir))
        else:
            action(shadow)
            assert primary.version == shadow.version, where
        finally:
            faults.disarm()

    assert state_of(primary) == state_of(shadow), f"seed={seed} final drift"
    primary.detach_wal().close()
    final = recover(wal_dir, repair=True)
    assert state_of(final.database) == state_of(shadow), (
        f"seed={seed}: final recovery diverged (crashes={crashes})"
    )


def test_soak_220_seeded_crash_schedules(tmp_path):
    for seed in range(220):
        wal_dir = str(tmp_path / f"s{seed}")
        run_schedule(seed, wal_dir)
        shutil.rmtree(wal_dir)


def test_single_seed_is_reproducible(tmp_path):
    """The soak's one-line reproduction: a seed replays its schedule."""
    for attempt in ("a", "b"):
        run_schedule(7, str(tmp_path / attempt))


# ---------------------------------------------------------------------------
# hypothesis: arbitrary torn tails
# ---------------------------------------------------------------------------
N_COMMITS = 8


@pytest.fixture(scope="module")
def reference_log(tmp_path_factory):
    """A clean log of N deterministic commits, plus the expected state
    after every prefix length."""
    wal_dir = str(tmp_path_factory.mktemp("ref") / "db.wal")
    db = editors_database()
    db.attach_wal(WriteAheadLog(wal_dir))
    db.wal.checkpoint(db)
    states = [state_of(db)]
    for i in range(1, N_COMMITS + 1):
        db.login(USERS[i % len(USERS)]).execute(append_script(f"e{i}"))
        states.append(state_of(db))
    db.detach_wal().close()
    return wal_dir, states


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_any_truncation_recovers_an_exact_prefix(reference_log, fraction):
    reference_dir, states = reference_log
    work = tempfile.mkdtemp(prefix="wal-cut-")
    try:
        wal_dir = os.path.join(work, "db.wal")
        shutil.copytree(reference_dir, wal_dir)
        last = sorted(
            os.path.join(wal_dir, n)
            for n in os.listdir(wal_dir)
            if n.startswith("segment-")
        )[-1]
        size = os.path.getsize(last)
        cut = int(fraction * size)
        with open(last, "r+b") as handle:
            handle.truncate(cut)

        result = recover(wal_dir, repair=True)
        version = result.version
        assert 0 <= version <= N_COMMITS
        assert state_of(result.database) == states[version]
        # repair is idempotent: the cut directory now reads clean
        assert scan_directory(wal_dir).torn is None
        again = recover(wal_dir)
        assert again.report.clean
        assert state_of(again.database) == states[version]
    finally:
        shutil.rmtree(work)


@settings(max_examples=25, deadline=None)
@given(
    choices=st.lists(
        st.integers(min_value=0, max_value=2 ** 30), max_size=10
    )
)
def test_no_fault_recovery_equals_the_live_database(choices):
    """Without crashes, recover() is a pure function of the history."""
    work = tempfile.mkdtemp(prefix="wal-live-")
    try:
        wal_dir = os.path.join(work, "db.wal")
        counter = itertools.count(1)
        db = editors_database()
        db.attach_wal(WriteAheadLog(wal_dir))
        db.wal.checkpoint(db)
        for choice in choices:
            _label, action = make_action(random.Random(choice), counter)
            action(db)
        expected = state_of(db)
        db.detach_wal().close()
        result = recover(wal_dir)
        assert result.report.clean
        assert state_of(result.database) == expected
    finally:
        shutil.rmtree(work)
