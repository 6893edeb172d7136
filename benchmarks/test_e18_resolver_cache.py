"""E18 (added, ablation): decisions on demand vs the priority replay.

E16 located the architecture's bottleneck in permission resolution, and
E18 first answered it with a cross-user cache of rule-path selections.
That cache is gone: each fingerprint's rules now compile into one label
automaton that decides a node from its parent's state and its own
label, so no rule path of the paper's policy is evaluated at all.

Rows: each of the five paper users' views on a 300-patient database,
derived by the automaton table (a fresh resolver per run, so every
automaton is compiled and its transitions built) and by the oracle the
resolver replaced -- every rule path evaluated over the whole document,
rules replayed in priority order, the view grown from the replayed sets
(:mod:`repro.testing.perm_oracle`).  Both rows run over one engine, so
each rule path is compiled once either way.
"""

import pytest

from conftest import synthetic_hospital

from repro.security import PermissionResolver, ViewBuilder
from repro.testing.perm_oracle import replay, replay_view
from repro.xmltree import serialize
from repro.xpath import XPathEngine

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)

PATIENTS = 300
USERS = ["beaufort", "laporte", "richard", "robert", "franck"]


@pytest.fixture(scope="module")
def db():
    return synthetic_hospital(PATIENTS)


def automaton_views(db):
    builder = ViewBuilder(PermissionResolver(ENGINE))
    return [builder.build(db.document, db.policy, user).doc for user in USERS]


def replayed_views(db):
    return [
        replay_view(
            db.document,
            replay(ENGINE, db.document, db.policy.applicable_rules(user), user),
        )[0]
        for user in USERS
    ]


def test_e18_five_users_without_cache(benchmark, db):
    """The priority replay over whole selections (the oracle)."""
    views = benchmark(lambda: replayed_views(db))
    assert len(views) == len(USERS)


def test_e18_five_users_with_cache(benchmark, db):
    """The automaton table, compiled afresh each run."""
    views = benchmark(lambda: automaton_views(db))
    assert [serialize(v) for v in views] == [
        serialize(v) for v in replayed_views(db)
    ]
