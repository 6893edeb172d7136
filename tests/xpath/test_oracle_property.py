"""Grammar fuzzer: the compiled executor == the interpreting oracle.

Random expressions over the whole XPath 1.0 grammar, evaluated at a
random context node of a random document (comment and processing-
instruction children included) under every paper-compat flag setting:
either both executors raise ``XPathEvaluationError`` or both return
values that agree as strictly as differential mode demands (NaN, zero
signs, bool identity, node-set order).  Error agreement is what
the always-on differential check cannot see -- it only runs the oracle
after the compiled pipeline returned.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import xpath_oracle
from repro.xmltree import DOCUMENT_ID
from repro.xpath import XPathEngine, XPathEvaluationError
from repro.xpath.compiler import _values_agree
from tests.strategies import documents, name_lookup_paths, xpath_expressions

_ENGINES = {
    (lone, star): XPathEngine(lone_variable_name_test=lone, star_matches_text=star)
    for lone in (False, True)
    for star in (False, True)
}


def _outcome(run):
    try:
        return run(), None
    except XPathEvaluationError as exc:
        return None, str(exc)


def assert_agrees(doc, path, lone, star, data):
    """Both executors raise the same error or return agreeing values,
    at a drawn context node with ``$v`` bound to a drawn string."""
    engine = _ENGINES[lone, star]
    node = data.draw(st.sampled_from([DOCUMENT_ID, *doc.all_nodes()]))
    variables = {"v": data.draw(st.sampled_from(("a", "diagnosis", "x", "")))}
    got, got_error = _outcome(
        lambda: engine.evaluate(doc, path, node, variables)
    )
    want, want_error = _outcome(
        lambda: xpath_oracle.evaluate_path(engine, doc, path, node, variables)
    )
    assert got_error == want_error, (path, node)
    if want_error is None:
        assert _values_agree(got, want), (path, node, got, want)


@given(
    doc=documents(comments_and_pis=True),
    path=xpath_expressions(),
    lone=st.booleans(),
    star=st.booleans(),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_compiled_agrees_with_oracle(doc, path, lone, star, data):
    assert_agrees(doc, path, lone, star, data)


@given(
    doc=documents(comments_and_pis=True),
    path=name_lookup_paths(),
    lone=st.booleans(),
    star=st.booleans(),
    data=st.data(),
)
@settings(max_examples=500, deadline=None)
def test_child_lookups_agree_with_oracle(doc, path, lone, star, data):
    """The child steps the name index answers -- ``name``, ``*[$v]``,
    ``*[name()='lit']``, ``*['lit'=name()]``, each maybe followed by a
    second predicate -- against the oracle's scan, comment and PI
    children labelled like elements included."""
    assert_agrees(doc, path, lone, star, data)
