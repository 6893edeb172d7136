"""Differential property: the permission automaton == the evaluator.

Every privilege check reads a rule's decision off the label automaton
(:mod:`repro.security.automaton`) instead of evaluating the rule path,
so automaton membership must agree with the evaluator's selection on
*every* node of *every* document for *every* path in the fragment --
including the paper-compat ``star_matches_text`` reading (a lone ``*``
also matches text and comment nodes), kind tests, ``self::`` steps
evaluated at the document node, and the ``*[$USER]`` and
``*[name()='lit']`` child steps.  Hypothesis generates the documents
and the paths; any divergence is a soundness bug in the automaton, not
a flaky test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.security.automaton import LabelAutomaton, fragment_tokens
from repro.xmltree.labels import DOCUMENT_ID
from repro.xpath import XPathEngine

from ..strategies import documents

#: Node tests of the fragment (names from the shared label alphabet
#: plus one that never occurs, wildcards, kind tests, and -- on child
#: steps -- the two name-lookup predicates, ``$USER`` bound to "a").
_TESTS = ("a", "b", "d", "patients", "nope", "*", "text()", "node()", "comment()")
_CHILD_TESTS = ("*[$USER]", "*[name()='b']", "*['d'=name()]")
USER = "a"
_AXES = ("", "descendant::", "descendant-or-self::", "self::")


@st.composite
def patchable_paths(draw) -> str:
    """An absolute location path inside the automaton's fragment."""
    n_steps = draw(st.integers(min_value=0, max_value=4))
    if n_steps == 0:
        return "/"
    steps = []
    for _ in range(n_steps):
        axis = draw(st.sampled_from(_AXES))
        tests = _TESTS + _CHILD_TESTS if axis == "" else _TESTS
        steps.append(axis + draw(st.sampled_from(tests)))
    return "/" + "/".join(steps)


def accepts(path, doc, nid, star) -> bool:
    """Automaton membership of ``nid`` in ``path``'s selection."""
    tokens = fragment_tokens(path)
    assert tokens is not None, f"{path!r} unexpectedly left the fragment"
    state = LabelAutomaton([tokens], star).state_of(doc, nid, USER)
    return 0 in state.accepting


def _engines():
    return {
        False: XPathEngine(),
        True: XPathEngine(lone_variable_name_test=True, star_matches_text=True),
    }


_ENGINES = _engines()


@given(
    doc=documents(comments_and_pis=True), path=patchable_paths(), star=st.booleans()
)
@settings(max_examples=300, deadline=None)
def test_nfa_matches_evaluator_selection(doc, path, star):
    # The two engines pair the paper-compat flags; ``[$USER]`` is a name
    # test only under the lone-variable reading.
    tokens = fragment_tokens(path, lone_variable_name_test=star)
    if tokens is None:
        assert not star and "$USER" in path, path
        return
    automaton = LabelAutomaton([tokens], star)
    engine = _ENGINES[star]
    selected = set(engine.select(doc, path, variables={"USER": USER}))
    for nid in [DOCUMENT_ID, *doc.all_nodes()]:
        state = automaton.state_of(doc, nid, USER)
        assert (0 in state.accepting) == (nid in selected), (
            f"automaton disagrees with evaluator on {path!r} at {nid!r} "
            f"(star_matches_text={star})"
        )


@given(doc=documents(), star=st.booleans())
@settings(max_examples=50, deadline=None)
def test_self_axis_at_document_node(doc, star):
    """`self::` evaluated at the document node: only node() matches."""
    for test, matches_doc in (
        ("node()", True),
        ("*", False),
        ("a", False),
        ("text()", False),
    ):
        path = f"/self::{test}"
        selected = set(_ENGINES[star].select(doc, path))
        assert (DOCUMENT_ID in selected) is matches_doc
        assert accepts(path, doc, DOCUMENT_ID, star) is matches_doc


@given(doc=documents(comments_and_pis=True))
@settings(max_examples=50, deadline=None)
def test_star_compat_changes_text_membership_consistently(doc):
    """Both engines and both automaton readings stay pairwise consistent
    on the paths whose meaning the lone-* flag actually changes."""
    for path in ("//*", "/a/*", "/descendant-or-self::*"):
        for star in (False, True):
            selected = set(_ENGINES[star].select(doc, path))
            for nid in doc.all_nodes():
                assert accepts(path, doc, nid, star) == (nid in selected)
