"""Differential property: the skeleton NFA == the real evaluator.

After a commit, ``perm._patch_selection`` re-matches every node of the
touched regions by :meth:`PathSkeleton.matches` alone, and the patched
selection feeds the permission table every privilege check reads.  So
the NFA must agree with the evaluator's selection on *every* node of
*every* document for *every* path in the patchable fragment --
including the paper-compat ``star_matches_text`` reading, kind tests,
and ``self::`` steps evaluated at the document node.  Hypothesis
generates the documents and the paths; any divergence is a soundness
bug in selection patching, not a flaky test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmltree.labels import DOCUMENT_ID
from repro.xpath import XPathEngine
from repro.xpath.skeleton import analyze_path

from ..strategies import documents

#: Node tests of the patchable fragment (names from the shared label
#: alphabet plus one that never occurs, wildcards, kind tests).
_TESTS = ("a", "b", "d", "patients", "nope", "*", "text()", "node()", "comment()")
_AXES = ("", "descendant::", "descendant-or-self::", "self::")


@st.composite
def patchable_paths(draw) -> str:
    """An absolute location path inside the NFA-decidable fragment."""
    n_steps = draw(st.integers(min_value=0, max_value=4))
    if n_steps == 0:
        return "/"
    steps = [
        draw(st.sampled_from(_AXES)) + draw(st.sampled_from(_TESTS))
        for _ in range(n_steps)
    ]
    return "/" + "/".join(steps)


def _engines():
    return {
        False: XPathEngine(),
        True: XPathEngine(lone_variable_name_test=True, star_matches_text=True),
    }


_ENGINES = _engines()


@given(doc=documents(), path=patchable_paths(), star=st.booleans())
@settings(max_examples=300, deadline=None)
def test_nfa_matches_evaluator_selection(doc, path, star):
    skeleton = analyze_path(path)
    assert skeleton is not None and skeleton.patchable, (
        f"generated path {path!r} unexpectedly left the patchable fragment"
    )
    engine = _ENGINES[star]
    selected = set(engine.select(doc, path))
    for nid in [DOCUMENT_ID, *doc.all_nodes()]:
        assert skeleton.matches(doc, nid, star) == (nid in selected), (
            f"NFA disagrees with evaluator on {path!r} at {nid!r} "
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
        skeleton = analyze_path(f"/self::{test}")
        engine = _ENGINES[star]
        selected = set(engine.select(doc, f"/self::{test}"))
        assert (DOCUMENT_ID in selected) is matches_doc
        assert skeleton.matches(doc, DOCUMENT_ID, star) is matches_doc


@given(doc=documents())
@settings(max_examples=50, deadline=None)
def test_star_compat_changes_text_membership_consistently(doc):
    """Both engines and both NFA readings stay pairwise consistent on
    the paths whose meaning the lone-* flag actually changes."""
    for path in ("//*", "/a/*", "/descendant-or-self::*"):
        skeleton = analyze_path(path)
        for star in (False, True):
            selected = set(_ENGINES[star].select(doc, path))
            for nid in doc.all_nodes():
                assert skeleton.matches(doc, nid, star) == (nid in selected)
