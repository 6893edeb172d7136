"""E23 (added, ablation): the compiled executor and table-backed checks.

Three groups of rows:

- **production executor vs reference** on the E15 construct families:
  the compiled closure pipeline (the only executor ``XPathEngine`` has)
  against the AST interpreter kept as ``repro.testing.xpath_oracle``;
- **rule evaluation through the resolver** on the E18 multi-user
  workload, across policy size x document size: each user's table is
  derived and its ``read`` decision taken on every node (the
  interpreted-rules row was retired with the ``PermissionResolver``
  knob that selected it; EXPERIMENTS.md E23 records its last reading);
- **privilege probes through the permission table**, warm and cold
  (the static-NFA rows were retired with the lane; EXPERIMENTS.md E23
  records their last reading).
"""

import pytest

from conftest import synthetic_hospital

from repro.security import PermissionResolver
from repro.security.privileges import Privilege
from repro.testing import xpath_oracle
from repro.xpath import XPathEngine

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)

USERS = ["beaufort", "laporte", "richard", "robert", "franck"]

#: The E15 construct families the policy layer actually evaluates.
CASES = [
    ("child-chain", "/patients/patient00042/diagnosis"),
    ("descendant-name", "//diagnosis"),
    ("descendant-wildcard", "//*"),
    ("text-nodes", "//text()"),
    ("positional-predicate", "/patients/*[1]"),
    ("name-function", "//*[name()='patient00099']"),
    ("union", "//service | //diagnosis"),
    ("count-aggregate", "count(//diagnosis)"),
]


@pytest.fixture(scope="module")
def doc():
    return synthetic_hospital(800).document


@pytest.fixture(scope="module")
def db():
    return synthetic_hospital(300)


# ----------------------------------------------------------------------
# compiled executor vs the interpreting oracle (E15 shapes)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case,path", CASES, ids=[c[0] for c in CASES])
def test_e23_interpreted_xpath(benchmark, doc, case, path):
    def run():
        return xpath_oracle.evaluate_path(ENGINE, doc, path)

    benchmark(run)


@pytest.mark.parametrize("case,path", CASES, ids=[c[0] for c in CASES])
def test_e23_compiled_xpath(benchmark, doc, case, path):
    compiled = ENGINE.compile_evaluator(path)
    interpreted = xpath_oracle.evaluate_path(ENGINE, doc, path)

    def run():
        return compiled.evaluate(doc)

    result = benchmark(run)
    assert result == interpreted  # same answer, different engine


# ----------------------------------------------------------------------
# rule evaluation through the resolver (E18 workload)
# ----------------------------------------------------------------------
def _resolve_all(db, engine):
    """Every user through a fresh resolver (no automaton is shared)
    over one engine, each table asked for ``read`` on every node:
    tables decide on demand, so deriving one alone decides nothing."""
    tables = [
        PermissionResolver(engine).resolve(db.document, db.policy, user)
        for user in USERS
    ]
    for table in tables:
        table.nodes_with(Privilege.READ)
    return tables


def _rules_engine():
    return XPathEngine(lone_variable_name_test=True, star_matches_text=True)


def test_e23_resolver_rules(benchmark, db):
    engine = _rules_engine()

    def run():
        return _resolve_all(db, engine)

    tables = benchmark(run)
    assert len(tables) == len(USERS)
    # Every rule path of the paper's policy is in the label automaton's
    # fragment: the engine evaluates none of them.
    assert engine.paths_compiled == 0


@pytest.mark.parametrize("patients", [50, 300, 1000], ids=lambda p: f"doc{p}")
def test_e23_rules_across_doc_sizes(benchmark, patients):
    scaled = synthetic_hospital(patients)
    engine = _rules_engine()

    def run():
        return _resolve_all(scaled, engine)

    benchmark(run)


@pytest.mark.parametrize("extra_rules", [0, 20, 80], ids=lambda n: f"rules+{n}")
def test_e23_rules_across_policy_sizes(benchmark, extra_rules):
    scaled = synthetic_hospital(100)
    for i in range(extra_rules):
        # Alternating grants/denies over eligible paths: a bigger
        # axiom-14 replay with the same document.
        verb = scaled.policy.grant if i % 2 == 0 else scaled.policy.deny
        verb("read", f"/patients/patient{i:05d}/descendant-or-self::*", "staff")
    engine = _rules_engine()

    def run():
        return _resolve_all(scaled, engine)

    benchmark(run)


# ----------------------------------------------------------------------
# privilege probes through the permission table
# ----------------------------------------------------------------------
def _probe_nodes(db, count=200):
    return list(db.document.all_nodes())[:count]


def test_e23_can_via_resolver_table(benchmark, db):
    # 200 warm probes against the cached table, what Session.can() reads.
    session_user = "laporte"
    nodes = _probe_nodes(db)

    def run():
        table = db.permissions_for(session_user)
        return [table.holds(nid, Privilege.READ) for nid in nodes]

    benchmark(run)


def test_e23_cold_probe_via_table(benchmark, db):
    """One privilege probe with no warm table: the resolver compiles
    the fingerprint's automaton, then walks the node's ancestry."""
    nid = db.engine.select(db.document, "/patients/*[1]")[0]

    def run():
        resolver = PermissionResolver()
        table = resolver.resolve(db.document, db.policy, "laporte")
        return table.holds(nid, Privilege.READ)

    assert benchmark(run) is True
