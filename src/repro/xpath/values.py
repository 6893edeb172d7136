"""XPath 1.0 value types and conversions.

XPath has four types: node-set, boolean, number (IEEE double) and
string.  A node-set is represented as a Python list of
:class:`~repro.xmltree.labels.NodeId` in document order without
duplicates.  This module implements the object-to-type conversions of
spec sections 3.2 (functions ``boolean``/``number``/``string``) exactly,
including the slightly odd number-to-string formatting rules, and the
operators defined over those conversions (spec 3.4 comparisons, 3.5
arithmetic) -- written once, for the compiled executor and the test
oracle alike.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId, document_order_key

__all__ = [
    "XPathValue",
    "NodeSet",
    "is_node_set",
    "to_boolean",
    "to_number",
    "to_string",
    "number_to_string",
    "sort_document_order",
    "compare_equality",
    "compare_relational",
    "arithmetic",
]

NodeSet = List[NodeId]
XPathValue = Union[NodeSet, bool, float, str]


def is_node_set(value: XPathValue) -> bool:
    """True if the value is a node-set (a list of node ids)."""
    return isinstance(value, list)


def sort_document_order(nodes: Sequence[NodeId]) -> NodeSet:
    """Deduplicate and sort ids into document order."""
    return sorted(set(nodes), key=document_order_key)


def to_boolean(value: XPathValue) -> bool:
    """The ``boolean()`` conversion (spec 4.3)."""
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return bool(value) and not math.isnan(value)
    return bool(value)


def to_number(value: XPathValue, doc: XMLDocument) -> float:
    """The ``number()`` conversion (spec 4.4); NaN on failure."""
    if isinstance(value, list):
        return to_number(to_string(value, doc), doc)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    text = value.strip()
    try:
        return float(text)
    except ValueError:
        return math.nan


def number_to_string(value: float) -> str:
    """Format a number the way XPath's ``string()`` does (spec 4.2).

    Integers print without a decimal point; NaN and infinities use the
    XPath spellings.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_string(value: XPathValue, doc: XMLDocument) -> str:
    """The ``string()`` conversion (spec 4.2).

    A node-set converts to the string-value of its first node in
    document order (empty string for the empty set).
    """
    if isinstance(value, list):
        if not value:
            return ""
        first = min(value, key=document_order_key)
        return doc.string_value(first)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return number_to_string(value)
    return value


def _node_strings(nodes: NodeSet, doc: XMLDocument) -> List[str]:
    return [doc.string_value(n) for n in nodes]


def compare_equality(
    op: str, left: XPathValue, right: XPathValue, doc: XMLDocument
) -> bool:
    """XPath ``=`` and ``!=`` (spec 3.4): existential over node-sets.

    ``doc`` is consulted only for node-set operands (their
    string-values); scalar operands never touch it.
    """
    want_equal = op == "="

    if is_node_set(left) and is_node_set(right):
        lefts = _node_strings(left, doc)
        rights = set(_node_strings(right, doc))
        if want_equal:
            return any(s in rights for s in lefts)
        return any(s != t for s in lefts for t in rights)
    if is_node_set(left) or is_node_set(right):
        nodes, other = (left, right) if is_node_set(left) else (right, left)
        if isinstance(other, bool):
            result = to_boolean(nodes) == other
            return result if want_equal else not result
        if isinstance(other, float):
            return any(
                (to_number(s, doc) == other) == want_equal
                for s in _node_strings(nodes, doc)
            )
        return any((s == other) == want_equal for s in _node_strings(nodes, doc))
    if isinstance(left, bool) or isinstance(right, bool):
        result = to_boolean(left) == to_boolean(right)
    elif isinstance(left, float) or isinstance(right, float):
        result = to_number(left, doc) == to_number(right, doc)
    else:
        result = left == right
    return result if want_equal else not result


_REL_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare_relational(
    op: str, left: XPathValue, right: XPathValue, doc: XMLDocument
) -> bool:
    """XPath ``<``, ``<=``, ``>``, ``>=`` (spec 3.4): numeric, and
    existential over node-sets."""
    compare = _REL_OPS[op]
    if is_node_set(left) and is_node_set(right):
        lefts = [to_number(s, doc) for s in _node_strings(left, doc)]
        rights = [to_number(s, doc) for s in _node_strings(right, doc)]
        return any(compare(a, b) for a in lefts for b in rights)
    if is_node_set(left):
        # Spec 3.4: against a boolean the node-set is converted with
        # boolean() and the two booleans compared as numbers -- no
        # per-node existential.
        if isinstance(right, bool):
            return compare(to_number(to_boolean(left), doc), to_number(right, doc))
        bound = to_number(right, doc)
        return any(compare(to_number(s, doc), bound) for s in _node_strings(left, doc))
    if is_node_set(right):
        if isinstance(left, bool):
            return compare(to_number(left, doc), to_number(to_boolean(right), doc))
        bound = to_number(left, doc)
        return any(compare(bound, to_number(s, doc)) for s in _node_strings(right, doc))
    return compare(to_number(left, doc), to_number(right, doc))


def arithmetic(
    op: str, left: XPathValue, right: XPathValue, doc: XMLDocument
) -> float:
    """XPath ``+``, ``-``, ``*``, ``div``, ``mod`` (spec 3.5) over the
    operands' ``number()`` conversions, with IEEE-754 edge cases."""
    a = to_number(left, doc)
    b = to_number(right, doc)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "div":
        if b == 0:
            if a == 0 or math.isnan(a):
                return math.nan
            # IEEE-754: the sign of x/±0 is the XOR of the operand
            # signs, so 1 div -0.0 is -inf (b == 0 is true for -0.0
            # but its sign still counts).
            return math.copysign(
                math.inf, math.copysign(1.0, a) * math.copysign(1.0, b)
            )
        return a / b
    if op == "mod":
        # XPath mod takes the sign of the dividend (like fmod, not %).
        if b == 0 or math.isnan(a) or math.isnan(b) or math.isinf(a):
            return math.nan
        return math.fmod(a, b)
    raise ValueError(f"unknown operator {op!r}")  # pragma: no cover
