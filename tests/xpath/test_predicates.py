"""Predicate semantics: positional filters, proximity on reverse axes,
boolean coercion, nesting, and the paper-compat lone-variable test."""

import pytest

from repro.xmltree import parse_xml
from repro.xpath import XPathEngine, XPathEvaluationError


@pytest.fixture
def doc():
    return parse_xml(
        "<lib>"
        "<book year='1999'><title>one</title></book>"
        "<book year='2005'><title>two</title></book>"
        "<book year='2010'><title>three</title></book>"
        "</lib>"
    )


@pytest.fixture
def engine():
    return XPathEngine()


def titles(doc, engine, path, **kw):
    return [
        doc.string_value(n) for n in engine.select(doc, path, **kw)
    ]


class TestPositional:
    def test_number_predicate_is_position(self, doc, engine):
        assert titles(doc, engine, "/lib/book[2]/title") == ["two"]

    def test_position_function(self, doc, engine):
        assert titles(doc, engine, "/lib/book[position()=3]/title") == ["three"]

    def test_last_function(self, doc, engine):
        assert titles(doc, engine, "/lib/book[last()]/title") == ["three"]

    def test_position_range(self, doc, engine):
        assert titles(doc, engine, "/lib/book[position()>1]/title") == [
            "two",
            "three",
        ]

    def test_positions_restart_per_context_node(self, doc, engine):
        doc2 = parse_xml("<r><g><i>1</i><i>2</i></g><g><i>3</i></g></r>")
        assert titles(doc2, engine, "//g/i[1]") == ["1", "3"]

    def test_reverse_axis_proximity(self, doc, engine):
        """preceding-sibling::*[1] is the *nearest* preceding sibling."""
        got = titles(doc, engine, "/lib/book[3]/preceding-sibling::*[1]/title")
        assert got == ["two"]

    def test_ancestor_proximity(self, doc, engine):
        deep = parse_xml("<a><b><c><d/></c></b></a>")
        got = [
            deep.label(n)
            for n in engine.select(deep, "//d/ancestor::*[1]")
        ]
        assert got == ["c"]

    def test_stacked_predicates_renumber(self, doc, engine):
        # First filter leaves books 2,3; second [1] picks book 2.
        got = titles(doc, engine, "/lib/book[position()>1][1]/title")
        assert got == ["two"]


class TestBooleanPredicates:
    def test_existence_predicate(self, doc, engine):
        assert len(engine.select(doc, "/lib/book[title]")) == 3
        assert engine.select(doc, "/lib/book[isbn]") == []

    def test_attribute_comparison(self, doc, engine):
        assert titles(doc, engine, "/lib/book[@year='2005']/title") == ["two"]

    def test_numeric_attribute_comparison(self, doc, engine):
        assert titles(doc, engine, "/lib/book[@year > 2000]/title") == [
            "two",
            "three",
        ]

    def test_text_comparison(self, doc, engine):
        assert len(engine.select(doc, "//book[title/text()='two']")) == 1

    def test_and_or_in_predicate(self, doc, engine):
        got = titles(
            doc,
            engine,
            "/lib/book[@year > 1999 and @year < 2010]/title",
        )
        assert got == ["two"]

    def test_not_function(self, doc, engine):
        got = titles(doc, engine, "/lib/book[not(@year='2005')]/title")
        assert got == ["one", "three"]

    def test_nested_path_predicate(self, doc, engine):
        got = titles(
            doc, engine, "/lib/book[title[text()='three']]/title"
        )
        assert got == ["three"]

    def test_variable_in_predicate(self, doc, engine):
        got = titles(
            doc,
            engine,
            "/lib/book[@year=$Y]/title",
            variables={"Y": "2010"},
        )
        assert got == ["three"]


class TestLoneVariableExtension:
    def test_disabled_by_default(self, doc):
        engine = XPathEngine()
        # Strict XPath: boolean('robert') is true -> all books match.
        got = engine.select(
            doc, "/lib/book[$USER]", variables={"USER": "book"}
        )
        assert len(got) == 3

    def test_enabled_matches_name(self, doc):
        engine = XPathEngine(lone_variable_name_test=True)
        got = engine.select(
            doc, "/lib/*[$USER]", variables={"USER": "book"}
        )
        assert len(got) == 3
        got = engine.select(
            doc, "/lib/*[$USER]", variables={"USER": "title"}
        )
        assert got == []

    def test_enabled_only_affects_lone_variable(self, doc):
        engine = XPathEngine(lone_variable_name_test=True)
        # A compound predicate keeps standard semantics.
        got = engine.select(
            doc, "/lib/book[$USER or false()]", variables={"USER": "x"}
        )
        assert len(got) == 3

    def test_enabled_is_never_evaluated_without_a_candidate(self, doc):
        # [$var] reads name() = $var: like any predicate it runs per
        # candidate, so an unbound variable is reached only through a
        # node -- on a step and on a filter expression alike (the
        # grammar fuzzer found the oracle raising eagerly here).
        engine = XPathEngine(lone_variable_name_test=True)
        assert engine.select(doc, "/lib/nope[$unbound]") == []
        assert engine.select(doc, "(/lib/nope)[$unbound]") == []
        with pytest.raises(XPathEvaluationError, match="unbound variable"):
            engine.select(doc, "/lib/book[$unbound]")


class TestStarMatchesText:
    def test_strict_star_excludes_text(self):
        doc = parse_xml("<a><b>t</b></a>")
        engine = XPathEngine()
        got = engine.select(doc, "//b/*")
        assert got == []

    def test_compat_star_includes_text(self):
        doc = parse_xml("<a><b>t</b></a>")
        engine = XPathEngine(star_matches_text=True)
        got = engine.select(doc, "//b/*")
        assert len(got) == 1
        assert doc.label(got[0]) == "t"

    def test_compat_star_still_excludes_attributes_on_child_axis(self):
        doc = parse_xml('<a x="1"><b/></a>')
        engine = XPathEngine(star_matches_text=True)
        got = engine.select(doc, "/a/*")
        assert [doc.label(n) for n in got] == ["b"]

    def test_named_tests_unaffected(self):
        doc = parse_xml("<a><b>t</b></a>")
        engine = XPathEngine(star_matches_text=True)
        assert len(engine.select(doc, "//b")) == 1
