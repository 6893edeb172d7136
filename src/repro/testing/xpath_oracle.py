"""The XPath test oracle: a direct AST interpreter.

This was the system's first XPath executor (``repro.xpath.evaluator``).
Production evaluation now runs the compiled closure pipeline of
:mod:`repro.xpath.compiler`; the interpreter survives here as the
reference that pipeline is checked against -- a second, independently
written reading of the same spec that re-walks the AST on every call,
with no fusion, no folding and no label index.  What the two share is
only what the spec defines once: the :class:`~repro.xpath.compiler.Context`
data model, the conversions and operators of :mod:`repro.xpath.values`,
and the function library.

Who may import it: the ``if _DIFFERENTIAL:`` branch of
:meth:`repro.xpath.compiler.CompiledXPath.__call__` (armed by
``REPRO_XPATH_DIFFERENTIAL=1`` -- ``make fault`` -- or
:func:`repro.xpath.set_differential`, which ``tests/xpath/conftest.py``
turns on for the whole XPath spec suite), tests and benchmarks.
Nothing else under ``src/`` does, and a serving process imports
nothing from ``repro.testing``, so it never loads it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import NodeKind
from ..xpath.ast import (
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    KindTest,
    Literal,
    LocationPath,
    NameTest,
    Negate,
    NodeTest,
    NumberLiteral,
    PathExpr,
    Step,
    UnionExpr,
    VariableRef,
)
from ..xpath.compiler import CompatFlags, Context, XPathEvaluationError
from ..xpath.engine import XPathEngine
from ..xpath.functions import XPathFunctionError
from ..xpath.values import (
    NodeSet,
    XPathValue,
    arithmetic,
    compare_equality,
    compare_relational,
    is_node_set,
    sort_document_order,
    to_boolean,
    to_number,
    to_string,
)

__all__ = ["evaluate", "evaluate_path"]


def evaluate_path(
    engine: XPathEngine,
    doc: XMLDocument,
    path: str,
    context_node: Optional[NodeId] = None,
    variables: Optional[Mapping[str, XPathValue]] = None,
) -> XPathValue:
    """What ``engine.evaluate(doc, path, context_node, variables)`` must
    return: the interpreter run under the engine's own function
    library, variable handling and paper-compat flags."""
    compiled = engine.compile_evaluator(path)
    ctx = engine._context(doc, context_node, variables)
    return evaluate(compiled.expr, ctx, compiled.flags)


def evaluate(
    expr: Expr, ctx: Context, flags: CompatFlags = CompatFlags()
) -> XPathValue:
    """Interpret an XPath AST in a context, returning an XPath value.

    ``flags`` selects the paper-compat readings described in
    :mod:`repro.xpath.compiler`: the compiled pipeline bakes them into
    its closures; the interpreter has no compile step, so it consults
    them at every node test and predicate.
    """
    if isinstance(expr, LocationPath):
        start = [DOCUMENT_ID] if expr.absolute else [ctx.node]
        return _eval_steps(start, expr.steps, ctx, flags)
    if isinstance(expr, PathExpr):
        base = evaluate(expr.start, ctx, flags)
        if not is_node_set(base):
            raise XPathEvaluationError(
                "a path may only continue from a node-set expression"
            )
        return _eval_steps(base, expr.steps, ctx, flags)
    if isinstance(expr, FilterExpr):
        base = evaluate(expr.primary, ctx, flags)
        if not is_node_set(base):
            raise XPathEvaluationError("predicates apply only to node-sets")
        nodes: NodeSet = base
        for predicate in expr.predicates:
            nodes = _filter_predicate(nodes, predicate, ctx, flags)
        return nodes
    if isinstance(expr, UnionExpr):
        left = evaluate(expr.left, ctx, flags)
        right = evaluate(expr.right, ctx, flags)
        if not (is_node_set(left) and is_node_set(right)):
            raise XPathEvaluationError("'|' requires node-set operands")
        return sort_document_order(list(left) + list(right))
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, ctx, flags)
    if isinstance(expr, Negate):
        return -to_number(evaluate(expr.operand, ctx, flags), ctx.doc)
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, VariableRef):
        try:
            return ctx.variables[expr.name]
        except KeyError:
            raise XPathEvaluationError(f"unbound variable ${expr.name}") from None
    if isinstance(expr, FunctionCall):
        function = ctx.functions.get(expr.name)
        if function is None:
            raise XPathEvaluationError(f"unknown function {expr.name}()")
        args = [evaluate(a, ctx, flags) for a in expr.args]
        try:
            return function(ctx, args)
        except XPathFunctionError as exc:
            raise XPathEvaluationError(str(exc)) from exc
    raise XPathEvaluationError(f"cannot evaluate {expr!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# location steps
# ---------------------------------------------------------------------------
def _eval_steps(
    start: Sequence[NodeId], steps: Sequence[Step], ctx: Context, flags: CompatFlags
) -> NodeSet:
    # Every step runs generically -- the ``//name`` desugar pair too, so
    # the executor's label-index fusion is checked against a tree walk.
    current: NodeSet = sort_document_order(start)
    for step in steps:
        current = _eval_one_step(current, step, ctx, flags)
    return current


def _eval_one_step(
    current: NodeSet, step: Step, ctx: Context, flags: CompatFlags
) -> NodeSet:
    gathered: List[NodeId] = []
    for context_node in current:
        candidates = _axis_nodes(ctx.doc, step.axis, context_node)
        candidates = [
            n
            for n in candidates
            if _matches_test(ctx.doc, step.axis, step.test, n, flags)
        ]
        for predicate in step.predicates:
            candidates = _filter_predicate(candidates, predicate, ctx, flags)
        gathered.extend(candidates)
    return sort_document_order(gathered)


def _axis_nodes(doc: XMLDocument, axis: str, node: NodeId) -> List[NodeId]:
    """The axis sequence in *axis order* (reverse axes nearest-first)."""
    if axis == "child":
        return doc.children(node)
    if axis == "descendant":
        return list(doc.descendants(node))
    if axis == "descendant-or-self":
        return list(doc.descendants_or_self(node))
    if axis == "parent":
        parent = doc.parent(node)
        return [parent] if parent is not None else []
    if axis == "ancestor":
        return list(doc.ancestors(node))
    if axis == "ancestor-or-self":
        return [node] + list(doc.ancestors(node))
    if axis == "self":
        return [node]
    if axis == "following-sibling":
        return doc.following_siblings(node)
    if axis == "preceding-sibling":
        return doc.preceding_siblings(node)
    if axis == "following":
        return doc.following(node)
    if axis == "preceding":
        return doc.preceding(node)
    if axis == "attribute":
        return doc.attributes(node)
    if axis == "namespace":
        return []
    raise XPathEvaluationError(f"unknown axis {axis!r}")  # pragma: no cover


def _matches_test(
    doc: XMLDocument, axis: str, test: NodeTest, node: NodeId, flags: CompatFlags
) -> bool:
    kind = doc.kind(node)
    if isinstance(test, KindTest):
        if test.kind == "node":
            return True
        if test.kind == "text":
            return kind is NodeKind.TEXT
        if test.kind == "comment":
            return kind is NodeKind.COMMENT
        if test.kind == "processing-instruction":
            if kind is not NodeKind.PROCESSING_INSTRUCTION:
                return False
            return not test.target or doc.label(node) == test.target
        raise XPathEvaluationError(f"unknown kind test {test.kind!r}")
    assert isinstance(test, NameTest)
    # A name test selects nodes of the axis's principal node type only.
    principal = NodeKind.ATTRIBUTE if axis == "attribute" else NodeKind.ELEMENT
    if kind is not principal:
        # Paper-compat: '*' additionally matches text/comment nodes.
        if (
            flags.star_matches_text
            and test.is_wildcard
            and axis != "attribute"
            and kind in (NodeKind.TEXT, NodeKind.COMMENT)
        ):
            return True
        return False
    return test.is_wildcard or doc.label(node) == test.name


def _filter_predicate(
    nodes: List[NodeId], predicate: Expr, ctx: Context, flags: CompatFlags
) -> List[NodeId]:
    """Apply one predicate with correct proximity positions.

    ``nodes`` must be in axis order; for reverse axes the proximity
    position counts from the context node outward, which is exactly the
    list order produced by :func:`_axis_nodes` -- and the order kept
    here, for any later predicate of the same step.
    """
    if not nodes:
        # No candidate, no evaluation: an unbound $var or unknown
        # function in the predicate is reached only through a node.
        return []
    # Paper-compat extension: a lone $var predicate reads name() = $var.
    if flags.lone_variable_name_test and isinstance(predicate, VariableRef):
        wanted = to_string(evaluate(predicate, ctx, flags), ctx.doc)
        return [
            n
            for n in nodes
            if ctx.doc.kind(n) in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE)
            and ctx.doc.label(n) == wanted
        ]
    size = len(nodes)
    kept: List[NodeId] = []
    for index, node in enumerate(nodes, start=1):
        sub = ctx.at(node, index, size)
        value = evaluate(predicate, sub, flags)
        if isinstance(value, float) and not isinstance(value, bool):
            selected = value == float(index)
        else:
            selected = to_boolean(value)
        if selected:
            kept.append(node)
    return kept


# ---------------------------------------------------------------------------
# binary operators
# ---------------------------------------------------------------------------
_RELATIONAL = {"<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "div", "mod"}


def _eval_binary(expr: BinaryOp, ctx: Context, flags: CompatFlags) -> XPathValue:
    op = expr.op
    if op == "or":
        return to_boolean(evaluate(expr.left, ctx, flags)) or to_boolean(
            evaluate(expr.right, ctx, flags)
        )
    if op == "and":
        return to_boolean(evaluate(expr.left, ctx, flags)) and to_boolean(
            evaluate(expr.right, ctx, flags)
        )
    left = evaluate(expr.left, ctx, flags)
    right = evaluate(expr.right, ctx, flags)
    if op in ("=", "!="):
        return compare_equality(op, left, right, ctx.doc)
    if op in _RELATIONAL:
        return compare_relational(op, left, right, ctx.doc)
    if op in _ARITHMETIC:
        return arithmetic(op, left, right, ctx.doc)
    raise XPathEvaluationError(f"unknown operator {op!r}")  # pragma: no cover
