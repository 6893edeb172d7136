"""The XPath 1.0 core function library, function by function."""

import math

import pytest

from repro.xmltree import NodeKind, parse_xml
from repro.xpath import XPathEngine, XPathEvaluationError


@pytest.fixture
def doc():
    return parse_xml(
        "<r><a>alpha</a><b> spaced  out </b><n>4</n><n>6.5</n></r>"
    )


@pytest.fixture
def engine():
    return XPathEngine()


def ev(engine, doc, expr, **kw):
    return engine.evaluate(doc, expr, **kw)


class TestNodeSetFunctions:
    def test_count(self, engine, doc):
        assert ev(engine, doc, "count(//n)") == 2.0

    def test_count_requires_node_set(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            ev(engine, doc, "count('x')")

    def test_position_and_last_in_predicate(self, engine, doc):
        got = engine.select(doc, "/r/*[position()=last()]")
        assert [doc.label(n) for n in got] == ["n"]

    def test_name_of_nodeset(self, engine, doc):
        assert ev(engine, doc, "name(//a)") == "a"

    def test_name_of_empty_nodeset(self, engine, doc):
        assert ev(engine, doc, "name(//zzz)") == ""

    def test_name_of_context(self, engine, doc):
        ctx = engine.select(doc, "//b")[0]
        assert ev(engine, doc, "name()", context_node=ctx) == "b"

    def test_local_name_strips_prefix(self, engine):
        doc = parse_xml("<x:a/>")
        assert ev(engine, doc, "local-name(/*)") == "a"

    def test_a_comment_has_no_name(self):
        """A comment has no expanded-name: ``name()`` and
        ``local-name()`` are empty, so ``*[name()='x']`` never selects
        a comment labelled ``x``, even where ``*`` matches comments."""
        doc = parse_xml("<a><x/></a>")
        comment = doc.append_child(doc.root, NodeKind.COMMENT, "x")
        star = XPathEngine(star_matches_text=True)
        assert ev(star, doc, "name(/a/comment())") == ""
        assert ev(star, doc, "local-name(/a/comment())") == ""
        got = star.select(doc, "/a/*[name()='x']")
        assert comment not in got and [doc.label(n) for n in got] == ["x"]

    def test_sum(self, engine, doc):
        assert ev(engine, doc, "sum(//n)") == 10.5


class TestStringFunctions:
    def test_string_of_context(self, engine, doc):
        ctx = engine.select(doc, "//a")[0]
        assert ev(engine, doc, "string()", context_node=ctx) == "alpha"

    def test_string_of_number(self, engine, doc):
        assert ev(engine, doc, "string(3)") == "3"
        assert ev(engine, doc, "string(3.5)") == "3.5"

    def test_string_of_boolean(self, engine, doc):
        assert ev(engine, doc, "string(true())") == "true"

    def test_concat(self, engine, doc):
        assert ev(engine, doc, "concat('a', 'b', 'c', 'd')") == "abcd"

    def test_concat_needs_two_args(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            ev(engine, doc, "concat('a')")

    def test_starts_with(self, engine, doc):
        assert ev(engine, doc, "starts-with('abcd', 'ab')") is True
        assert ev(engine, doc, "starts-with('abcd', 'bc')") is False

    def test_contains(self, engine, doc):
        assert ev(engine, doc, "contains('abcd', 'bc')") is True
        assert ev(engine, doc, "contains('abcd', 'xy')") is False

    def test_substring_before_after(self, engine, doc):
        assert ev(engine, doc, "substring-before('1999/04', '/')") == "1999"
        assert ev(engine, doc, "substring-after('1999/04', '/')") == "04"
        assert ev(engine, doc, "substring-before('abc', 'z')") == ""

    def test_substring_basic(self, engine, doc):
        assert ev(engine, doc, "substring('12345', 2, 3)") == "234"
        assert ev(engine, doc, "substring('12345', 2)") == "2345"

    def test_substring_spec_edge_cases(self, engine, doc):
        # The famous spec examples.
        assert ev(engine, doc, "substring('12345', 1.5, 2.6)") == "234"
        assert ev(engine, doc, "substring('12345', 0, 3)") == "12"
        assert ev(engine, doc, "substring('12345', 0 div 0, 3)") == ""

    def test_string_length(self, engine, doc):
        assert ev(engine, doc, "string-length('abcd')") == 4.0

    def test_normalize_space(self, engine, doc):
        assert ev(engine, doc, "normalize-space('  a  b  ')") == "a b"

    def test_normalize_space_of_context(self, engine, doc):
        ctx = engine.select(doc, "//b")[0]
        assert ev(engine, doc, "normalize-space()", context_node=ctx) == "spaced out"

    def test_translate(self, engine, doc):
        assert ev(engine, doc, "translate('bar', 'abc', 'ABC')") == "BAr"
        assert ev(engine, doc, "translate('--aaa--', 'abc-', 'ABC')") == "AAA"


class TestBooleanFunctions:
    def test_boolean_conversions(self, engine, doc):
        assert ev(engine, doc, "boolean(1)") is True
        assert ev(engine, doc, "boolean(0)") is False
        assert ev(engine, doc, "boolean('')") is False
        assert ev(engine, doc, "boolean('x')") is True
        assert ev(engine, doc, "boolean(//a)") is True
        assert ev(engine, doc, "boolean(//zzz)") is False

    def test_not(self, engine, doc):
        assert ev(engine, doc, "not(true())") is False
        assert ev(engine, doc, "not(//zzz)") is True

    def test_true_false(self, engine, doc):
        assert ev(engine, doc, "true()") is True
        assert ev(engine, doc, "false()") is False


class TestNumberFunctions:
    def test_number_of_string(self, engine, doc):
        assert ev(engine, doc, "number(' 42 ')") == 42.0

    def test_number_of_garbage_is_nan(self, engine, doc):
        assert math.isnan(ev(engine, doc, "number('abc')"))

    def test_number_of_boolean(self, engine, doc):
        assert ev(engine, doc, "number(true())") == 1.0

    def test_floor_ceiling(self, engine, doc):
        assert ev(engine, doc, "floor(2.7)") == 2.0
        assert ev(engine, doc, "ceiling(2.1)") == 3.0
        assert ev(engine, doc, "floor(-2.5)") == -3.0

    def test_round_half_up(self, engine, doc):
        assert ev(engine, doc, "round(2.5)") == 3.0
        assert ev(engine, doc, "round(-2.5)") == -2.0  # toward +inf
        assert ev(engine, doc, "round(2.4)") == 2.0

    def test_round_special_values(self, engine, doc):
        assert math.isnan(ev(engine, doc, "round(0 div 0)"))
        assert math.isinf(ev(engine, doc, "round(1 div 0)"))


class TestUnknowns:
    def test_unknown_function(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            ev(engine, doc, "frobnicate()")

    def test_unbound_variable(self, engine, doc):
        with pytest.raises(XPathEvaluationError):
            ev(engine, doc, "$NOPE")

    def test_extra_functions_injectable(self, doc):
        def double(ctx, args):
            return 2 * args[0]

        engine = XPathEngine(extra_functions={"double": double})
        assert engine.evaluate(doc, "double(21)") == 42.0
