"""Static path skeletons: stability proofs and the chain matcher.

The two contracts the incremental permission maintenance rests on:

- ``may_intersect`` returning False must *prove* the selection stable
  under a commit touching those labels;
- ``matches`` on a patchable skeleton must agree with the evaluator on
  every node of every document.
"""

import pytest
from hypothesis import given, settings

from repro.security import Privilege
from repro.xmltree import XMLDocument, element, parse_xml
from repro.xmltree.labels import DOCUMENT_ID
from repro.xpath.engine import XPathEngine
from repro.xpath.skeleton import analyze_path

from tests.strategies import documents

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)

#: (path, expected labels or None=unbounded, expected patchable)
CASES = [
    ("//sickness", {"sickness"}, True),
    ("/patients/patient", {"patients", "patient"}, True),
    ("/a/descendant-or-self::b", {"a", "b"}, True),
    ("//a/descendant::b", {"a", "b"}, True),
    ("/patients/*/descendant-or-self::*", None, True),
    ("//*", None, True),
    ("//text()", None, True),
    ("//node()", None, True),
    ("//*[name()='d']", None, False),  # predicate: opaque to patching
    ("//a[b]", None, False),
    ("/patients/*[$USER]/descendant-or-self::*", None, False),
]


@pytest.mark.parametrize("path,labels,patchable", CASES)
def test_static_analysis(path, labels, patchable):
    skeleton = analyze_path(path)
    assert skeleton is not None
    assert skeleton.labels == (None if labels is None else frozenset(labels))
    assert skeleton.patchable is patchable


def test_union_keeps_labels_but_not_patchability():
    skeleton = analyze_path("//a | //b")
    assert skeleton is not None
    assert skeleton.labels == frozenset({"a", "b"})
    assert not skeleton.patchable


def test_opaque_expressions_analyze_to_none():
    assert analyze_path("count(//a)") is None
    assert analyze_path("not-even-xpath((") is None


def test_bounded_skeleton_disjointness():
    skeleton = analyze_path("//sickness")
    assert not skeleton.may_intersect({"diagnosis", "note"})
    assert skeleton.may_intersect({"sickness"})
    # Unbounded skeletons can never rule an intersection out.
    assert analyze_path("//*").may_intersect({"anything"})


def test_sibling_axes_with_wildcards_stay_unbounded():
    # //node()/following-sibling::c can gain selections when ANY node
    # is inserted before a c, so its label set must not be {c}.
    skeleton = analyze_path("//node()/following-sibling::c")
    assert skeleton is None or skeleton.labels is None


PATCHABLE_PATHS = [
    "/a",
    "/a/b",
    "//a",
    "//b/c",
    "//a/*",
    "//text()",
    "//a/text()",
    "//node()",
    "/a/descendant-or-self::*",
    "/a/descendant-or-self::b",
    "//a/descendant::b",
    "/*",
    "//*",
    "/a/self::a",
    "/patients/descendant-or-self::node()",
]


@settings(max_examples=60, deadline=None)
@given(doc=documents(max_depth=4, max_children=3))
def test_matches_agrees_with_engine_everywhere(doc: XMLDocument):
    all_nodes = [DOCUMENT_ID] + list(doc.subtree(doc.root))
    for path in PATCHABLE_PATHS:
        skeleton = analyze_path(path)
        assert skeleton is not None and skeleton.patchable, path
        truth = set(ENGINE.select(doc, path))
        mine = {n for n in all_nodes if skeleton.matches(doc, n, True)}
        assert mine == truth, f"{path}: {mine ^ truth}"


@pytest.mark.parametrize(
    "path",
    [
        "//node()",
        "/r/b/node()",
        "/descendant-or-self::node()",
        "//self::node()",
        "//b/descendant-or-self::node()",
    ],
)
def test_attributes_are_on_no_child_or_descendant_chain(path):
    """``node()`` is true of any *child*, and an attribute is nobody's
    child: the chain matcher used to select ``@x`` where the engine
    does not."""
    doc = parse_xml('<r><b x="1">t</b></r>')
    skeleton = analyze_path(path)
    assert skeleton is not None and skeleton.patchable
    truth = set(ENGINE.select(doc, path))
    mine = {n for n in doc.all_nodes() if skeleton.matches(doc, n, True)}
    assert mine == truth
    (attribute,) = doc.attributes(doc.children(doc.root)[0])
    assert attribute not in mine


def test_patched_selection_and_static_check_skip_a_committed_attribute():
    """After a commit that adds ``<b x="1">`` the patched ``//node()``
    selection and the static decider agree with a fresh evaluation."""
    from repro.security import Policy, SecureXMLDatabase, SubjectHierarchy
    from repro.xupdate import Append

    subjects = SubjectHierarchy()
    subjects.add_user("u")
    policy = Policy(subjects)
    policy.grant("read", "//node()", "u")
    db = SecureXMLDatabase(parse_xml("<r/>"), subjects, policy)
    db.build_view("u")  # warm: the selection is cached, then patched
    db.admin_update(Append("/r", element("b", "t", attributes={"x": "1"})))
    assert db.stats()["paths_patched"] == 1
    (b,) = db.document.children(db.document.root)
    (attribute,) = db.document.attributes(b)
    fresh = set(db.engine.select(db.document, "//node()"))
    assert attribute not in fresh
    assert db.permissions_for("u").nodes_with(Privilege.READ) == fresh
    assert db.check("u", "read", attribute) is False
    assert db.check("u", "read", b) is True
    assert 'x="1"' not in db.login("u").read_xml()


def test_matches_refuses_non_patchable_skeletons():
    skeleton = analyze_path("//a[b]")
    doc = XMLDocument()
    doc.add_root("a")
    with pytest.raises(ValueError):
        skeleton.matches(doc, doc.root)
