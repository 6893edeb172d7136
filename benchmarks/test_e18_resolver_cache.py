"""E18 (added, ablation): cross-user rule-path caching in axiom 14.

E16 located the architecture's bottleneck in permission resolution:
every rule path is re-evaluated over the whole source for every user.
Paths that never mention ``$USER`` select the same nodes for *all*
users, so the resolver can cache them per (document, mutation stamp).

Rows: workload | cold resolver | cached resolver.  A resolver always
caches; the cold baseline is a *fresh* resolver per user (two resolvers
share nothing), all over one engine so both rows compile each path once.  The paper's policy
has 11 user-independent paths out of 12, so multi-user workloads (the
normal case for a shared database) should approach a 1/users cost.
"""

import pytest

from conftest import synthetic_hospital

from repro.security import PermissionResolver
from repro.xpath import XPathEngine

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)

PATIENTS = 300
USERS = ["beaufort", "laporte", "richard", "robert", "franck"]


@pytest.fixture(scope="module")
def db():
    return synthetic_hospital(PATIENTS)


def resolve_all(db, resolver=None):
    """Resolve every user with ``resolver``, or (None) each with a
    fresh one."""
    return [
        (resolver or PermissionResolver(ENGINE)).resolve(
            db.document, db.policy, user
        )
        for user in USERS
    ]


def test_e18_five_users_without_cache(benchmark, db):
    def run():
        return resolve_all(db)

    tables = benchmark(run)
    assert len(tables) == len(USERS)


def test_e18_five_users_with_cache(benchmark, db):
    resolver = PermissionResolver(ENGINE)

    def run():
        return resolve_all(db, resolver)

    tables = benchmark(run)
    assert len(tables) == len(USERS)
