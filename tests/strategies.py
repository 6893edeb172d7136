"""Hypothesis strategies shared by the property-based tests.

Builds random XML documents, edit sequences, and security policies
within the fragment both engines (procedural and formal) support, so
differential properties can be stated over them.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmltree import (
    Fragment,
    NodeKind,
    XMLDocument,
    element,
    text,
)
from repro.xpath import AXES

#: Small label alphabet keeps collisions (same-named siblings, rule
#: paths matching several nodes) frequent, which is where bugs live.
LABELS = ("a", "b", "c", "d", "patients", "diagnosis")
TEXTS = ("x", "y", "zz", "pneumonia")
#: Attribute names (two, so same-named attributes on different elements
#: are common) and values (the empty one included: a masked attribute
#: must not even reveal that).
ATTRIBUTES = ("x", "y")
ATTRIBUTE_VALUES = ("", "1", "pneumonia")
USERS = ("u1", "u2")
ROLES = ("r1", "r2")


_attributes = st.dictionaries(
    st.sampled_from(ATTRIBUTES), st.sampled_from(ATTRIBUTE_VALUES), max_size=2
)


@st.composite
def fragments(draw, max_depth: int = 3, max_children: int = 3) -> Fragment:
    """A random element fragment of bounded depth and fan-out; about
    one element in three carries attributes."""
    name = draw(st.sampled_from(LABELS))
    attributes = draw(_attributes) if draw(st.integers(0, 2)) == 0 else {}
    if max_depth <= 0:
        return element(name, attributes=attributes)
    n_children = draw(st.integers(min_value=0, max_value=max_children))
    children = []
    for _ in range(n_children):
        if draw(st.booleans()):
            children.append(text(draw(st.sampled_from(TEXTS))))
        else:
            children.append(
                draw(fragments(max_depth=max_depth - 1, max_children=max_children))
            )
    return element(name, *children, attributes=attributes)


@st.composite
def documents(
    draw, max_depth: int = 3, max_children: int = 3, comments_and_pis: bool = False
) -> XMLDocument:
    """A random document with a random root-element subtree.

    With ``comments_and_pis``, up to four comment or processing-
    instruction nodes, labelled ``a`` or ``b`` like elements, are then
    placed among the existing nodes.  Off by default: the
    storable round-trip properties draw documents without them.
    """
    doc = XMLDocument()
    fragment = draw(fragments(max_depth=max_depth, max_children=max_children))
    fragment.attach(doc, doc.document_node.nid)
    if comments_and_pis:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            nodes = [
                n for n in doc.all_nodes()
                if not n.is_document and doc.kind(n) is not NodeKind.ATTRIBUTE
            ]
            target = draw(st.sampled_from(nodes))
            kind = draw(
                st.sampled_from((NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION))
            )
            label = draw(st.sampled_from(LABELS[:2]))
            where = draw(st.sampled_from(("append", "before", "after")))
            if where == "append" and doc.kind(target) is NodeKind.ELEMENT:
                doc.append_child(target, kind, label, "d")
            elif where == "before":
                doc.insert_before(target, kind, label, "d")
            else:
                doc.insert_after(target, kind, label, "d")
    return doc


#: Rule paths inside the PathCompiler fragment (and thus comparable
#: between the procedural and formal engines).
RULE_PATHS = (
    "/*",
    "//*",
    "//a",
    "//b",
    "//a/*",
    "//b/*",
    "//diagnosis",
    "//diagnosis/*",
    "/patients",
    "/patients/*",
    "//a/descendant-or-self::*",
    "//text()",
    "//c/text()",
    "//*[name()='d']",
)

#: Rule paths that select attribute nodes.  Outside the formal
#: PathCompiler's fragment, so only the procedural differentials (lazy
#: view, stylesheet, patched-vs-fresh) draw them.
ATTRIBUTE_RULE_PATHS = ("//@*", "//a/@x", "//@y")

PRIVILEGES = ("read", "position", "insert", "update", "delete")


@st.composite
def policy_rules(draw, max_rules: int = 8, paths=RULE_PATHS):
    """A random list of (effect, privilege, path, subject) tuples."""
    n = draw(st.integers(min_value=0, max_value=max_rules))
    rules = []
    for _ in range(n):
        effect = draw(st.sampled_from(("accept", "deny")))
        privilege = draw(st.sampled_from(PRIVILEGES))
        path = draw(st.sampled_from(paths))
        subject = draw(st.sampled_from(USERS + ROLES))
        rules.append((effect, privilege, path, subject))
    return rules


def build_subjects():
    """The fixed little hierarchy the random policies reference."""
    from repro.security import SubjectHierarchy

    subjects = SubjectHierarchy()
    subjects.add_role("r1")
    subjects.add_role("r2", member_of="r1")
    subjects.add_user("u1", member_of="r1")
    subjects.add_user("u2", member_of="r2")
    return subjects


def build_policy(subjects, rules):
    """Install random rule tuples into a Policy with auto priorities."""
    from repro.security import Policy

    policy = Policy(subjects)
    for effect, privilege, path, subject in rules:
        if effect == "accept":
            policy.grant(privilege, path, subject)
        else:
            policy.deny(privilege, path, subject)
    return policy


def storable(doc) -> bool:
    """True when the document survives an XML text round-trip.

    Adjacent text siblings merge when re-parsed, so documents containing
    them are not faithfully storable; persistence properties skip them.
    """
    for nid in doc.all_nodes():
        kids = doc.children(nid)
        if any(
            doc.kind(a) is NodeKind.TEXT and doc.kind(b) is NodeKind.TEXT
            for a, b in zip(kids, kids[1:])
        ):
            return False
    return True


@st.composite
def secure_databases(draw, max_depth: int = 3, max_children: int = 3):
    """A random storable database: document + fixed subjects + policy."""
    from repro.security import SecureXMLDatabase

    doc = draw(
        documents(max_depth=max_depth, max_children=max_children).filter(storable)
    )
    subjects = build_subjects()
    policy = build_policy(subjects, draw(policy_rules()))
    return SecureXMLDatabase(doc, subjects, policy)


# ----------------------------------------------------------------------
# random XPath expressions (compiled-vs-oracle differential property)
# ----------------------------------------------------------------------
XPATH_AXES = tuple(sorted(AXES))
_NODE_TESTS = LABELS + (
    "*", "*", "node()", "text()", "comment()",
    "processing-instruction()", "processing-instruction('a')",
)
#: ``$v`` is bound by the property (to a string that is also a label);
#: ``$unbound`` never is, so both executors must raise on reaching it.
_VARIABLES = ("$v", "$v", "$v", "$v", "$v", "$unbound")
_NUMBERS = ("0", "1", "2", "3", "1.5", "0.0", "10")
_BINARY_OPS = (
    "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod", "and", "or",
)
#: Core functions by the argument kinds they take: N = node-set,
#: S = any scalar-or-node-set expression.  Optional-argument forms are
#: listed separately; ``frobnicate`` is unknown to every library.
_FUNCTIONS = (
    ("last", ""), ("position", ""), ("true", ""), ("false", ""),
    ("count", "N"), ("sum", "N"), ("name", ""), ("name", "N"),
    ("local-name", ""), ("local-name", "N"), ("string", ""), ("string", "S"),
    ("number", ""), ("number", "S"), ("boolean", "S"), ("not", "S"),
    ("string-length", ""), ("string-length", "S"),
    ("normalize-space", ""), ("normalize-space", "S"),
    ("concat", "SS"), ("concat", "SSS"), ("starts-with", "SS"),
    ("contains", "SS"), ("substring-before", "SS"), ("substring-after", "SS"),
    ("substring", "SS"), ("substring", "SSS"), ("translate", "SSS"),
    ("floor", "S"), ("ceiling", "S"), ("round", "S"),
    ("count", "S"), ("concat", "S"), ("frobnicate", ""),
)


#: First predicates that make a ``*`` child step a name-index lookup
#: (``{}`` is a label, a text, or empty); ``$v`` is one only under the
#: lone-variable reading, and ``name()=''`` never is.
_NAME_LOOKUPS = ("$v", "name()='{}'", "'{}'=name()")


@st.composite
def _xpath_steps(draw, depth: int) -> str:
    """One to three steps joined by ``/`` or ``//``, each with up to
    two predicates; some are ``*`` steps whose first predicate names
    the child (see ``_NAME_LOOKUPS``)."""
    parts = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        if index:
            parts.append(draw(st.sampled_from(("/", "/", "//"))))
        shape = draw(st.integers(min_value=0, max_value=11))
        if shape == 0:
            parts.append(draw(st.sampled_from((".", ".."))))
            continue
        if shape >= 10 and depth > 0:
            literal = draw(st.sampled_from(LABELS + TEXTS + ("",)))
            step = "*[" + draw(st.sampled_from(_NAME_LOOKUPS)).format(literal) + "]"
            if draw(st.booleans()):
                step += f"[{draw(xpath_expressions(max_depth=depth - 1))}]"
            parts.append(step)
            continue
        test = draw(st.sampled_from(_NODE_TESTS))
        if shape <= 4:  # abbreviated child step
            step = test
        else:
            step = f"{draw(st.sampled_from(XPATH_AXES))}::{test}"
        if depth > 0:
            for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2)))):
                step += f"[{draw(xpath_expressions(max_depth=depth - 1))}]"
        parts.append(step)
    return "".join(parts)


#: Second predicates for :func:`name_lookup_paths`: positions, tests of
#: the child's own content, and name tests that contradict the first.
_SECOND_PREDICATES = (
    "1", "2", "last()", "position() > 1", "text()", "*", "@x", "comment()",
    "$v", "name() = 'a'", "not(b)", "string-length(name()) = 1",
)


@st.composite
def name_lookup_paths(draw) -> str:
    """One to three child steps, each a name test or a ``*`` step whose
    first predicate names the child (``_NAME_LOOKUPS``, or an unbound
    ``$unbound``), sometimes with a second predicate: the shapes the
    per-parent name index answers, from the document node, the context
    node or under ``//``."""
    parts = [draw(st.sampled_from(("", "/", "//", ".//")))]
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        if index:
            parts.append(draw(st.sampled_from(("/", "//"))))
        # The labels comments and PIs carry, and the text's empty name,
        # first: they are where a lookup and the scan can differ.
        literal = draw(st.sampled_from(LABELS[:2] + ("",) + LABELS[2:]))
        form = draw(st.sampled_from(("name",) + _NAME_LOOKUPS + ("$unbound",)))
        if form == "name":
            step = literal or "*"
        else:
            step = "*[" + form.format(literal) + "]"
        if draw(st.booleans()):
            step += f"[{draw(st.sampled_from(_SECOND_PREDICATES))}]"
        parts.append(step)
    return "".join(parts)


@st.composite
def _xpath_node_sets(draw, depth: int) -> str:
    """An expression that (when well-typed) yields a node-set."""
    shape = draw(st.integers(min_value=0, max_value=11 if depth > 0 else 7))
    if shape == 0:
        return "/"
    if shape <= 7:
        prefix = draw(st.sampled_from(("", "", "/", "/", "//", ".//")))
        return prefix + draw(_xpath_steps(depth))
    inner = draw(_xpath_node_sets(depth - 1))
    if shape == 8:
        return f"{inner} | {draw(_xpath_node_sets(depth - 1))}"
    if shape == 9:  # filter expression
        return f"({inner})[{draw(xpath_expressions(max_depth=depth - 1))}]"
    if shape == 10:  # path continuing from a filter expression
        joiner = draw(st.sampled_from(("/", "//")))
        return f"({inner}){joiner}{draw(_xpath_steps(depth - 1))}"
    return draw(st.sampled_from(_VARIABLES))  # ill-typed: a string variable


@st.composite
def xpath_expressions(draw, max_depth: int = 3) -> str:
    """A random XPath 1.0 expression string over the whole grammar:
    13 axes x name/kind tests x nested predicates x every binary
    operator, unary minus, the core function library, ``$v``,
    absolute/relative/``//`` paths, unions and filter expressions.

    Mostly well-typed, with a deliberate minority of type errors,
    unknown functions, bad arities and unbound variables, so error
    agreement between executors is exercised too.
    """
    shape = draw(st.integers(min_value=0, max_value=11 if max_depth > 0 else 5))
    if shape <= 2:
        return draw(_xpath_node_sets(max_depth))
    if shape == 3:
        return draw(st.sampled_from(_NUMBERS))
    if shape == 4:
        return "'" + draw(st.sampled_from(LABELS + TEXTS + ("", "1", " 2 "))) + "'"
    if shape == 5:
        return draw(st.sampled_from(_VARIABLES))
    sub = xpath_expressions(max_depth=max_depth - 1)
    if shape <= 8:
        op = draw(st.sampled_from(_BINARY_OPS))
        return f"({draw(sub)}) {op} ({draw(sub)})"
    if shape == 9:
        return f"-({draw(sub)})"
    name, kinds = draw(st.sampled_from(_FUNCTIONS))
    args = [
        draw(_xpath_node_sets(max_depth - 1) if kind == "N" else sub)
        for kind in kinds
    ]
    return f"{name}({', '.join(args)})"
