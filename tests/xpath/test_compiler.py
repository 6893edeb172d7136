"""The XPath compiler: compiled == oracle, folding, caching.

The compiled closure pipeline -- the only executor ``XPathEngine`` has
-- must be observationally identical to the AST interpreter kept as
``repro.testing.xpath_oracle`` on every expression it accepts: same
values, same errors.  Every comparison below names the oracle
explicitly (``engine.evaluate`` is itself compiled, so comparing
against it would be ``x == x``).  The battery covers the E15/E18 path
shapes the policy layer evaluates plus the compiler's own special cases
(fusion, constant folding, paper-compat predicates); the differential
tests prove the runtime check ``conftest.py`` arms for this whole
directory actually fires.
"""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.core import medical_document
from repro.testing import xpath_oracle
from repro.xmltree import NodeKind, parse_xml
from repro.xpath import XPathEngine, XPathEvaluationError
from repro.xpath.compiler import (
    CompiledXPath,
    XPathDifferentialError,
    differential_enabled,
    set_differential,
)


@pytest.fixture
def doc():
    return parse_xml(
        "<patients>"
        "<patient><name>robert</name>"
        "<diagnosis><item>flu</item><item>cold</item></diagnosis></patient>"
        "<patient><name>martin</name>"
        "<diagnosis><item>injury</item></diagnosis></patient>"
        "<!--audit--></patients>"
    )


@pytest.fixture
def engine():
    return XPathEngine()


@pytest.fixture
def paper_engine():
    return XPathEngine(lone_variable_name_test=True, star_matches_text=True)


#: Every shape the E15 benchmark and the example policies exercise.
PATHS = (
    "/",
    "/patients",
    "/patients/patient/diagnosis",
    "//patient",
    "//item",
    "//*",
    "//patient/*",
    "//text()",
    "//comment()",
    "//node()",
    "//diagnosis/text()",
    "//patient[1]",
    "//patient[2]/diagnosis",
    "//item[position() = 2]",
    "//patient[name = 'robert']",
    "//patient[diagnosis/item]",
    "//*[name() = 'item']",
    "//patient | //item",
    "//patient/descendant-or-self::*",
    "//item/ancestor::patient",
    "//item/parent::diagnosis",
    "//patient/following-sibling::*",
    "//patient[2]/preceding-sibling::patient",
    "/patients/patient[last()]",
    "count(//item)",
    "string(//name)",
    "normalize-space(' x ')",
    "not(//nope)",
    "count(//item) + count(//patient) * 2",
    "-count(//item)",
    "10 mod 3",
    "'a' < 'b' or //patient",
)


@pytest.mark.parametrize("path", list(PATHS))
def test_compiled_matches_interpreted(engine, doc, path):
    compiled = engine.compile_evaluator(path)
    expected = xpath_oracle.evaluate_path(engine, doc, path)
    got = compiled.evaluate(doc)
    if isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(got)
    else:
        assert got == expected


def test_compiled_from_context_node(engine, doc):
    patient = engine.select(doc, "//patient")[0]
    for path in ("diagnosis/item", "ancestor::*", "self::patient", ".//item"):
        assert engine.compile_evaluator(path).evaluate(
            doc, context_node=patient
        ) == xpath_oracle.evaluate_path(engine, doc, path, context_node=patient)


def test_compiled_variables(engine, doc):
    path = "//patient[name = $who]/diagnosis"
    compiled = engine.compile_evaluator(path)
    for who in ("robert", "martin", "nobody"):
        assert compiled.evaluate(
            doc, variables={"who": who}
        ) == xpath_oracle.evaluate_path(engine, doc, path, variables={"who": who})


def test_unbound_variable_raises(engine, doc):
    compiled = engine.compile_evaluator("//patient[name = $who]")
    with pytest.raises(XPathEvaluationError, match="unbound variable"):
        compiled.evaluate(doc)


def test_select_rejects_scalar_result(engine, doc):
    with pytest.raises(XPathEvaluationError, match="expected a node-set"):
        engine.compile_evaluator("count(//patient)").select(doc)


def test_paper_compat_lone_variable_predicate(paper_engine, doc):
    path = "/patients/*[$USER]/descendant-or-self::*"
    compiled = paper_engine.compile_evaluator(path)
    for user in ("patient", "name", "nobody"):
        assert compiled.select(
            doc, variables={"USER": user}
        ) == xpath_oracle.evaluate_path(
            paper_engine, doc, path, variables={"USER": user}
        )


def test_paper_compat_star_matches_text(paper_engine, doc):
    for path in ("//*", "/patients/*", "//patient/*"):
        assert paper_engine.compile_evaluator(path).select(
            doc
        ) == xpath_oracle.evaluate_path(paper_engine, doc, path)


class TestConstantFolding:
    def test_positive_integer_position_slices(self, engine, doc):
        # [2] and [1+1] both fold to the same positional slice.
        second = xpath_oracle.evaluate_path(engine, doc, "//patient[2]")
        assert len(second) == 1
        assert engine.compile_evaluator("//patient[2]").select(doc) == second
        assert engine.compile_evaluator("//patient[1 + 1]").select(doc) == second

    def test_out_of_domain_positions_select_nothing(self, engine, doc):
        for pred in ("0", "-1", "2.5", "99", "0 div 0"):
            assert engine.compile_evaluator(f"//patient[{pred}]").select(doc) == []

    def test_constant_boolean_predicates(self, engine, doc):
        everyone = xpath_oracle.evaluate_path(engine, doc, "//patient")
        assert len(everyone) == 2
        assert engine.compile_evaluator("//patient[true()]").select(doc) == everyone
        assert engine.compile_evaluator("//patient[1 = 1]").select(doc) == everyone
        assert engine.compile_evaluator("//patient[1 = 2]").select(doc) == []
        assert engine.compile_evaluator("//patient['']").select(doc) == []

    def test_folding_preserves_laziness(self, engine, doc):
        # With a constant-false predicate ahead, a bad function in a
        # later predicate never sees a node -- exactly the interpreter's
        # behaviour (predicates run per candidate, zero candidates).
        path = "//patient[1 = 2][frobnicate()]"
        assert xpath_oracle.evaluate_path(engine, doc, path) == []
        assert engine.compile_evaluator(path).evaluate(doc) == []
        with pytest.raises(XPathEvaluationError, match="unknown function"):
            engine.compile_evaluator("//patient[frobnicate()]").evaluate(doc)


class TestEngineCache:
    def test_cache_returns_same_object(self, engine):
        assert engine.compile_evaluator("//a") is engine.compile_evaluator("//a")

    def test_cache_is_per_engine(self, engine, paper_engine):
        assert engine.compile_evaluator("//a") is not paper_engine.compile_evaluator(
            "//a"
        )

    def test_cache_evicts_lru(self, engine):
        from repro.xpath import engine as engine_mod

        first = engine.compile_evaluator("//a0")
        for i in range(1, engine_mod._COMPILED_CACHE_SIZE + 1):
            engine.compile_evaluator(f"//a{i}")
        assert engine.compile_evaluator("//a0") is not first


class TestDifferentialMode:
    def test_workload_passes_under_differential(self, differential, engine, doc):
        for path in list(PATHS):
            engine.compile_evaluator(path).evaluate(doc)

    def test_divergence_raises(self, differential, engine, doc):
        compiled = engine.compile_evaluator("//patient[1]/name")
        compiled.evaluate(doc)  # agreeing run: no error
        # Sabotage the compiled closure; the interpreter now disagrees
        # and the differential check must catch it.
        broken = CompiledXPath(
            compiled.path,
            compiled.expr,
            lambda ctx: [],
            engine._context,
        )
        with pytest.raises(XPathDifferentialError, match="diverged"):
            broken.evaluate(doc)

    def test_differential_compares_zero_signs(self, differential, engine, doc):
        compiled = engine.compile_evaluator("1 div (-0.0)")
        assert compiled.evaluate(doc) == -math.inf

    def test_toggle_is_restored(self, engine, doc):
        # Disarmed, a broken closure passes silently; re-armed (what
        # conftest.py's fixture does around every test here), it cannot.
        path = "//patient"
        broken = CompiledXPath(path, engine.compile(path), lambda ctx: [], None)
        ctx = engine._context(doc, None, None)
        assert differential_enabled()
        set_differential(False)
        try:
            assert not differential_enabled()
            assert broken(ctx) == []
        finally:
            set_differential(True)
        with pytest.raises(XPathDifferentialError, match="diverged"):
            broken(ctx)


@pytest.mark.fault
def test_differential_covers_secure_write_paths(differential):
    """Every rule evaluation and write selection re-checks compiled
    against interpreted while the fault lane runs with the env flag."""
    from repro.core import hospital_database
    from repro.xupdate.operations import Append
    from repro.xmltree import element

    db = hospital_database()
    session = db.login("laporte")  # a doctor: insert on //diagnosis
    session.read_xml()
    result = session.execute(
        Append(path="//diagnosis", tree=element("item"))
    )
    assert result.fully_applied


def test_fused_descendant_scan_matches_generic(engine):
    # Fusion only fires for predicate-free child steps after //; compare
    # against a document whose shape exercises deep nesting.
    doc = medical_document()
    for path in ("//*", "//text()", "//node()"):
        assert engine.compile_evaluator(path).select(
            doc
        ) == xpath_oracle.evaluate_path(engine, doc, path)
    # Descendant scan from a non-root context set.
    inner = engine.select(doc, "/*/*")[0]
    assert engine.compile_evaluator(".//*").evaluate(
        doc, context_node=inner
    ) == xpath_oracle.evaluate_path(engine, doc, ".//*", context_node=inner)


class TestChildLookups:
    """Child steps by name -- ``name``, ``*[$v]``, ``*[name()='lit']``,
    ``*['lit'=name()]`` -- are ``children_named`` lookups; each must
    select what the oracle's sibling scan does."""

    @staticmethod
    def doc():
        """Nested ``a``s, each with ``b`` elements and a comment and a
        processing instruction labelled ``b`` (the parser keeps
        neither, so they are added through the API)."""
        doc = parse_xml("<r><a><a><b/><b>1</b></a><b/>t</a><b/><c/></r>")
        for a in doc.nodes_with_label("a"):
            first = doc.children(a)[0]
            doc.insert_after(first, NodeKind.COMMENT, "b")
            doc.append_child(a, NodeKind.PROCESSING_INSTRUCTION, "b", "d")
        return doc

    PATHS = (
        "//a/b",  # nested contexts: a's own b follows the inner a's b's
        "//a/*[name()='b']",
        "//a/*['b'=name()]",
        "//a/*[$v]",
        "//a/*[name()='b'][1]",
        "//a/b[last()]",
        "//a/*[$v][text()]",
        "/r/a/*[name()='']",  # an empty literal is the text's name
        "/r/a/*[name()='b' or name()='a']",
        "/r/c/*[$unbound]",  # no candidate: the variable is never read
        "/r/*[$v]/b",
    )

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("lone", (False, True))
    @pytest.mark.parametrize("star", (False, True))
    def test_lookup_matches_oracle(self, path, lone, star):
        doc = self.doc()
        engine = XPathEngine(lone_variable_name_test=lone, star_matches_text=star)
        variables = {"v": "b"}
        assert engine.evaluate(doc, path, variables=variables) == (
            xpath_oracle.evaluate_path(engine, doc, path, variables=variables)
        )

    def test_unbound_variable_with_candidates_raises(self, paper_engine):
        doc = self.doc()
        with pytest.raises(XPathEvaluationError, match="unbound variable"):
            paper_engine.evaluate(doc, "/r/a/*[$unbound]")

    def test_a_redefined_name_function_is_not_looked_up(self):
        doc = self.doc()
        engine = XPathEngine(extra_functions={"name": lambda ctx, args: "b"})
        got = engine.select(doc, "/r/*[name()='b']")
        assert [doc.label(n) for n in got] == ["a", "b", "c"]


class TestOracleStaysOutOfServingProcesses:
    """The oracle is loaded by arming differential mode and by nothing
    else: fresh interpreters, so this process's own imports don't count.
    The same goes for the view oracles (the lazy view, the generated
    stylesheet), the source-evaluated write baseline and the Datalog
    model (:mod:`repro.formal` over :mod:`repro.logic`): libraries the
    serving path never names."""

    QUERY = (
        "from repro.core import hospital_database; "
        "hospital_database().login('laporte').query('count(//diagnosis)')"
    )

    ENTRY_POINTS = "import repro.cli, repro.netserve, repro.replication"

    SERVE = """
import os
from repro.core import hospital_database
from repro.serving import DatabaseServer
from repro.storage import save_to_file
path = os.path.join({directory!r}, "h.xml")
save_to_file(hospital_database(), path)
server = DatabaseServer.open(path)
script = (
    '<xupdate:modifications version="1.0" '
    'xmlns:xupdate="http://www.xmldb.org/xupdate">'
    '<xupdate:append select="/patients/franck/diagnosis">'
    '<xupdate:element name="note">ok</xupdate:element>'
    '</xupdate:append></xupdate:modifications>'
)
assert server.execute("laporte", script).fully_applied
assert server.query("laporte", "count(//note)") == 1.0
"""

    @staticmethod
    def _probe(code, differential, expression):
        """Run ``code`` in a fresh interpreter; return ``expression``
        printed at its end."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src, REPRO_XPATH_DIFFERENTIAL=differential)
        probe = f"\nimport sys; print({expression})"
        done = subprocess.run(
            [sys.executable, "-c", code + probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    @classmethod
    def _loaded(cls, code, differential, module):
        probe = f"{module!r} in sys.modules"
        return cls._probe(code, differential, probe) == "True"

    @classmethod
    def _oracle_loaded(cls, code, differential):
        return cls._loaded(code, differential, "repro.testing.xpath_oracle")

    def test_serving_entry_points_do_not_import_it(self):
        assert not self._oracle_loaded(self.ENTRY_POINTS, "")

    @pytest.mark.parametrize(
        "module",
        [
            "repro.security.lazy",
            "repro.xslt",
            "repro.security.insecure",
            "repro.formal",
            "repro.logic",
        ],
    )
    def test_serving_entry_points_do_not_import_the_view_oracles(self, module):
        assert not self._loaded(self.ENTRY_POINTS, "", module)
        assert not self._loaded(self.QUERY, "", module)

    def test_a_query_loads_it_only_under_differential_mode(self):
        assert not self._oracle_loaded(self.QUERY, "")
        assert self._oracle_loaded(self.QUERY, "1")

    def test_serving_loads_no_test_module(self, tmp_path):
        """The fault seam the serving stack consults is a production
        module: opening a served database, one write and one read load
        nothing from ``repro.testing``."""
        code = self.ENTRY_POINTS + self.SERVE.format(directory=str(tmp_path))
        loaded = self._probe(
            code, "",
            "sorted(m for m in sys.modules if m.startswith('repro.testing'))",
        )
        assert loaded == "[]"
