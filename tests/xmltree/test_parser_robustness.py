"""Robustness: the parsers fail *controlledly* on arbitrary input."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree import XMLSyntaxError, parse_xml, serialize
from repro.xpath import XPathEvaluationError, XPathSyntaxError, parse_xpath


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_xml_parser_never_crashes(junk):
    """Arbitrary text either parses or raises XMLSyntaxError -- never
    an uncontrolled exception type."""
    try:
        doc = parse_xml(junk)
    except XMLSyntaxError:
        return
    except (ValueError, OverflowError):
        # Character references can overflow chr(); they arrive as
        # ValueError subclasses, which is acceptable controlled failure.
        return
    # If it parsed, it must serialize and re-parse.
    again = parse_xml(serialize(doc))
    assert serialize(again) == serialize(doc)


@given(
    st.text(
        alphabet="abc/*[]()@.|$='\" <>!-0123456789:deiuvnot",
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_xpath_parser_never_crashes(junk):
    """Arbitrary expression text either parses or raises
    XPathSyntaxError."""
    try:
        parse_xpath(junk)
    except XPathSyntaxError:
        pass


@given(
    st.sampled_from(
        [
            "//a",
            "count(//a)",
            "//a[1] | //b",
            "string(//a) = 'x'",
            "sum(//a) + 1",
            "//a/ancestor::*[last()]",
            "normalize-space(//a)",
        ]
    )
)
@settings(max_examples=50, deadline=None)
def test_valid_expressions_evaluate_without_surprise(expr):
    """Well-formed expressions evaluate on a fixed doc with no error,
    or only the documented evaluation error type."""
    doc = parse_xml("<r><a>1</a><b>2</b></r>")
    from repro.xpath import XPathEngine

    try:
        XPathEngine().evaluate(doc, expr)
    except XPathEvaluationError:
        pass
