"""The rule-path fragment and its label automaton, node by node.

Successor of the static path skeleton tests: the skeleton's stability
proofs went with the selections they kept current, and what remains is
the chain reading of a path.  ``fragment_tokens`` decides which rule
paths the permission automaton answers (the rest are evaluated with the
engine), the automaton names exactly the element labels its paths test
(every other label is one node class), and :class:`LabelAutomaton`
membership must agree with the evaluator on every node of every
document.
"""

import pytest
from hypothesis import given, settings

from repro.security import Privilege
from repro.security.automaton import LabelAutomaton, fragment_tokens
from repro.xmltree import XMLDocument, element, parse_xml
from repro.xmltree.labels import DOCUMENT_ID
from repro.xpath.engine import XPathEngine

from tests.strategies import documents

ENGINE = XPathEngine(lone_variable_name_test=True, star_matches_text=True)


def selection(path, doc, nodes, user=None):
    """The nodes among ``nodes`` the automaton of ``path`` accepts."""
    tokens = fragment_tokens(path)
    assert tokens is not None, path
    automaton = LabelAutomaton([tokens], True)
    return {n for n in nodes if 0 in automaton.state_of(doc, n, user).accepting}


#: (path, the element labels its automaton names -- each its own node
#: class -- or None when it names none, and whether the path is in the
#: automaton's fragment rather than an exception rule)
CASES = [
    ("//sickness", {"sickness"}, True),
    ("/patients/patient", {"patients", "patient"}, True),
    ("/a/descendant-or-self::b", {"a", "b"}, True),
    ("//a/descendant::b", {"a", "b"}, True),
    ("/patients/*/descendant-or-self::*", {"patients"}, True),
    ("//*", None, True),
    ("//text()", None, True),
    ("//node()", None, True),
    ("//*[name()='d']", {"d"}, True),  # a name lookup, like child::d
    ("//a[b]", None, False),
    # The login is a node class of its own, not a named label.
    ("/patients/*[$USER]/descendant-or-self::*", {"patients"}, True),
    ("/", None, True),
    ("//*[name()='']", None, False),  # names text and comments too
    ("//*[$USER][1]", None, False),  # a second predicate
    ("//@x", None, False),
    ("//a | //b", None, False),
    ("//processing-instruction('a')", None, False),
]


@pytest.mark.parametrize("path,labels,in_fragment", CASES)
def test_static_analysis(path, labels, in_fragment):
    tokens = fragment_tokens(path)
    assert (tokens is not None) is in_fragment
    if tokens is not None:
        names = LabelAutomaton([tokens], True).names
        assert names == (frozenset(labels) if labels else frozenset())


def test_every_equation_13_rule_path_is_in_the_fragment():
    """All twelve rules of the paper's policy, rule 5's ``*[$USER]``
    included, are answered by the automaton: none is an exception."""
    from repro.core import hospital_policy, hospital_subjects

    paths = [rule.path for rule in hospital_policy(hospital_subjects())]
    assert len(paths) == 12
    assert [path for path in paths if fragment_tokens(path) is None] == []


def test_opaque_expressions_analyze_to_none():
    assert fragment_tokens("count(//a)") is None
    assert fragment_tokens("not-even-xpath((") is None


def test_sibling_axes_with_wildcards_stay_unbounded():
    # //node()/following-sibling::c can gain selections when ANY node
    # is inserted before a c: no label chain decides it, so the rule is
    # evaluated again on every commit.
    assert fragment_tokens("//node()/following-sibling::c") is None


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
    "//*[$USER]",
    "/*/*[name()='b']/node()",
]


@settings(max_examples=60, deadline=None)
@given(doc=documents(max_depth=4, max_children=3))
def test_matches_agrees_with_engine_everywhere(doc: XMLDocument):
    all_nodes = [DOCUMENT_ID] + list(doc.subtree(doc.root))
    for path in PATCHABLE_PATHS:
        truth = set(ENGINE.select(doc, path, variables={"USER": "a"}))
        mine = selection(path, doc, all_nodes, user="a")
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
    does not, and the automaton sends every attribute to its dead state."""
    doc = parse_xml('<r><b x="1">t</b></r>')
    truth = set(ENGINE.select(doc, path))
    mine = selection(path, doc, doc.all_nodes())
    assert mine == truth
    (attribute,) = doc.attributes(doc.children(doc.root)[0])
    assert attribute not in mine


def test_patched_selection_and_static_check_skip_a_committed_attribute():
    """After a commit that adds ``<b x="1">`` the rebound permission
    table ``check`` reads agrees with a fresh evaluation of
    ``//node()``: the attribute is on no child chain."""
    from repro.security import Policy, SecureXMLDatabase, SubjectHierarchy
    from repro.xupdate import Append

    subjects = SubjectHierarchy()
    subjects.add_user("u")
    policy = Policy(subjects)
    policy.grant("read", "//node()", "u")
    db = SecureXMLDatabase(parse_xml("<r/>"), subjects, policy)
    db.build_view("u")  # warm: the table is rebound, the view patched
    db.admin_update(Append("/r", element("b", "t", attributes={"x": "1"})))
    db.build_view("u")
    assert db.stats()["view_incremental_patches"] == 1
    (b,) = db.document.children(db.document.root)
    (attribute,) = db.document.attributes(b)
    fresh = set(db.engine.select(db.document, "//node()"))
    assert attribute not in fresh
    assert db.permissions_for("u").nodes_with(Privilege.READ) == fresh
    assert db.check("u", "read", attribute) is False
    assert db.check("u", "read", b) is True
    assert 'x="1"' not in db.login("u").read_xml()


def test_matches_refuses_non_patchable_skeletons():
    """A predicate rule is no automaton path: its table decisions come
    from the engine's selection, and they agree with it."""
    assert fragment_tokens("//a[b]") is None
    from repro.security import Policy, SecureXMLDatabase, SubjectHierarchy

    subjects = SubjectHierarchy()
    subjects.add_user("u")
    policy = Policy(subjects)
    policy.grant("read", "//a[b]", "u")
    doc = XMLDocument()
    root = doc.add_root("a")
    element("a", element("b")).attach(doc, root)
    db = SecureXMLDatabase(doc, subjects, policy)
    expected = set(ENGINE.select(doc, "//a[b]"))
    assert db.permissions_for("u").nodes_with(Privilege.READ) == expected
