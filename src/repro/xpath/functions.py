"""The XPath 1.0 core function library (spec section 4).

Each function receives the evaluation :class:`~repro.xpath.compiler.Context`
and already-evaluated argument values, and returns an XPath value.  The
registry is a plain dict so an engine instance can be extended with
extra functions without monkey-patching.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, TYPE_CHECKING

from ..xmltree.node import NodeKind
from .values import (
    NodeSet,
    XPathValue,
    is_node_set,
    number_to_string,
    to_boolean,
    to_number,
    to_string,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiler import Context

__all__ = ["XPathFunction", "XPathFunctionError", "CORE_FUNCTIONS"]

XPathFunction = Callable[["Context", List[XPathValue]], XPathValue]


class XPathFunctionError(ValueError):
    """Wrong function name, arity or argument type."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise XPathFunctionError(message)


def _arity(args: List[XPathValue], low: int, high: int, name: str) -> None:
    _require(
        low <= len(args) <= high,
        f"{name}() takes {low}..{high} arguments, got {len(args)}",
    )


# -- node-set functions -----------------------------------------------------
def _fn_last(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 0, "last")
    return float(ctx.size)


def _fn_position(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 0, "position")
    return float(ctx.position)


def _fn_count(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "count")
    _require(is_node_set(args[0]), "count() requires a node-set")
    return float(len(args[0]))


#: Node kinds whose ``name()`` / ``local-name()`` is the empty string.
_UNNAMED = frozenset({NodeKind.DOCUMENT, NodeKind.TEXT, NodeKind.COMMENT})


def _name_of(ctx: "Context", args: List[XPathValue], name: str) -> str:
    if args:
        _require(is_node_set(args[0]), f"{name}() requires a node-set")
        nodes: NodeSet = args[0]
        if not nodes:
            return ""
        target = nodes[0]
    else:
        target = ctx.node
    node = ctx.doc.node(target)
    # Only elements, attributes and processing instructions have an
    # expanded-name (spec 5); a text or comment label is its content.
    if node.kind in _UNNAMED:
        return ""
    return node.label


def _fn_name(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "name")
    return _name_of(ctx, args, "name")


def _fn_local_name(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "local-name")
    qname = _name_of(ctx, args, "local-name")
    return qname.rsplit(":", 1)[-1]


# -- string functions --------------------------------------------------------
def _fn_string(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "string")
    if not args:
        return ctx.doc.string_value(ctx.node)
    return to_string(args[0], ctx.doc)


def _fn_concat(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _require(len(args) >= 2, "concat() takes at least 2 arguments")
    return "".join(to_string(a, ctx.doc) for a in args)


def _fn_starts_with(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 2, 2, "starts-with")
    return to_string(args[0], ctx.doc).startswith(to_string(args[1], ctx.doc))


def _fn_contains(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 2, 2, "contains")
    return to_string(args[1], ctx.doc) in to_string(args[0], ctx.doc)


def _fn_substring_before(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 2, 2, "substring-before")
    haystack = to_string(args[0], ctx.doc)
    needle = to_string(args[1], ctx.doc)
    index = haystack.find(needle)
    return haystack[:index] if index >= 0 else ""


def _fn_substring_after(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 2, 2, "substring-after")
    haystack = to_string(args[0], ctx.doc)
    needle = to_string(args[1], ctx.doc)
    index = haystack.find(needle)
    return haystack[index + len(needle) :] if index >= 0 else ""


def _fn_substring(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 2, 3, "substring")
    value = to_string(args[0], ctx.doc)
    start = to_number(args[1], ctx.doc)
    if math.isnan(start):
        return ""
    start = round(start)
    if len(args) == 3:
        length = to_number(args[2], ctx.doc)
        if math.isnan(length):
            return ""
        end = start + round(length)
    else:
        end = math.inf
    # XPath positions are 1-based; round() already applied.
    chars = [
        ch
        for pos, ch in enumerate(value, start=1)
        if pos >= start and pos < end
    ]
    return "".join(chars)


def _fn_string_length(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "string-length")
    value = (
        to_string(args[0], ctx.doc) if args else ctx.doc.string_value(ctx.node)
    )
    return float(len(value))


def _fn_normalize_space(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "normalize-space")
    value = (
        to_string(args[0], ctx.doc) if args else ctx.doc.string_value(ctx.node)
    )
    return " ".join(value.split())


def _fn_translate(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 3, 3, "translate")
    value = to_string(args[0], ctx.doc)
    src = to_string(args[1], ctx.doc)
    dst = to_string(args[2], ctx.doc)
    table: Dict[int, int | None] = {}
    for i, ch in enumerate(src):
        if ord(ch) in table:
            continue
        table[ord(ch)] = ord(dst[i]) if i < len(dst) else None
    return value.translate(table)


# -- boolean functions --------------------------------------------------------
def _fn_boolean(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "boolean")
    return to_boolean(args[0])


def _fn_not(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "not")
    return not to_boolean(args[0])


def _fn_true(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 0, "true")
    return True


def _fn_false(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 0, "false")
    return False


# -- number functions ---------------------------------------------------------
def _fn_number(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 0, 1, "number")
    if not args:
        return to_number(ctx.doc.string_value(ctx.node), ctx.doc)
    return to_number(args[0], ctx.doc)


def _fn_sum(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "sum")
    _require(is_node_set(args[0]), "sum() requires a node-set")
    return float(
        sum(to_number(ctx.doc.string_value(n), ctx.doc) for n in args[0])
    )


def _fn_floor(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "floor")
    value = to_number(args[0], ctx.doc)
    return value if math.isnan(value) or math.isinf(value) else float(math.floor(value))


def _fn_ceiling(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "ceiling")
    value = to_number(args[0], ctx.doc)
    return value if math.isnan(value) or math.isinf(value) else float(math.ceil(value))


def _fn_round(ctx: "Context", args: List[XPathValue]) -> XPathValue:
    _arity(args, 1, 1, "round")
    value = to_number(args[0], ctx.doc)
    if math.isnan(value) or math.isinf(value):
        return value
    # XPath rounds .5 towards +infinity, unlike Python's banker's rounding.
    return float(math.floor(value + 0.5))


#: The registry of core functions, keyed by XPath function name.
CORE_FUNCTIONS: Dict[str, XPathFunction] = {
    "last": _fn_last,
    "position": _fn_position,
    "count": _fn_count,
    "name": _fn_name,
    "local-name": _fn_local_name,
    "string": _fn_string,
    "concat": _fn_concat,
    "starts-with": _fn_starts_with,
    "contains": _fn_contains,
    "substring-before": _fn_substring_before,
    "substring-after": _fn_substring_after,
    "substring": _fn_substring,
    "string-length": _fn_string_length,
    "normalize-space": _fn_normalize_space,
    "translate": _fn_translate,
    "boolean": _fn_boolean,
    "not": _fn_not,
    "true": _fn_true,
    "false": _fn_false,
    "number": _fn_number,
    "sum": _fn_sum,
    "floor": _fn_floor,
    "ceiling": _fn_ceiling,
    "round": _fn_round,
}
