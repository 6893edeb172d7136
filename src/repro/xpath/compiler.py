"""The XPath executor: AST -> reusable closure pipeline.

This is the one operational reading of the paper's ``xpath(p, n, v)``
predicate (section 3.4): rule paths on the source (axiom 14), queries
on the view (axioms 15-17) and XUpdate PATHs on the view (axioms
18-25) all run the closures built here, reached through
:meth:`repro.xpath.engine.XPathEngine.compile_evaluator`.  Evaluation
follows the spec's data model: a :class:`Context` holds a node, a
proximity position and a size; location steps map each context node to
an axis sequence filtered by a node test and predicates; results of
node-set expressions are in document order without duplicates.

A plain AST walk would re-dispatch on axis and node-test types at
every step of every evaluation, re-inspect every predicate and
re-detect the ``//name`` fast path per call.  This module performs all
of that analysis once, at compile time, following lxml's pattern of
compiling an XPath string into a reusable, shareable evaluator object:

- **per-step closures**: axis traversal, node test and predicates are
  resolved to concrete closures; evaluation is a fold over the step
  pipeline with an early exit on an empty intermediate node-set;
- **axis fusion**: the ``//`` desugar pair ``descendant-or-self::node()
  / child::T`` compiles to a single descendant scan (answered from the
  document's label/kind indexes when available);
- **child steps by name**: ``child::name``, ``*[$v]`` (under
  ``lone_variable_name_test``) and ``*[name()='lit']`` /
  ``*['lit'=name()]`` (non-empty ``lit``) compile to a
  ``children_named`` lookup on the document's per-parent name index
  instead of a test of every sibling; the consumed predicate is the
  first one, and any later predicates run on the looked-up list;
- **constant folding**: a predicate whose expression is context-free
  (literals, numbers, arithmetic/comparisons over them) is folded at
  compile time -- ``[3]`` becomes a slice, ``[true-valued]`` disappears,
  ``[false-valued]`` and out-of-domain positions like ``[0]`` or
  ``[2.5]`` become a constant-empty filter that short-circuits the rest
  of the pipeline.

Compiled evaluators are pure closures over immutable AST data: they are
thread-safe and reusable across documents, like lxml's ``XPath``
objects.

Paper-compat options
--------------------

Two deliberate extensions (off by default, enabled by the security
layer) mirror the paper's policy syntax.  Both exist at compile time
only -- they are baked into the closures and remembered on the
:class:`CompiledXPath`; a :class:`Context` carries neither, so a
compiled path cannot be run under the wrong reading.

``lone_variable_name_test``: rule 5 of the example policy writes
``/patients/descendant-or-self::*[$USER]`` with the intent "elements
*named* by the session user's login".  Under strict XPath 1.0 semantics
``[$USER]`` is ``boolean(string)`` -- true for any non-empty login --
which cannot be what the paper means.  With the option on, a predicate
consisting of exactly one variable reference is evaluated as
``name() = $var``, matching the paper's reading.  DESIGN.md records
this as a documented interpretation.

``star_matches_text``: the paper's example policy writes ``//*`` for
"the whole document" and ``//diagnosis/*`` for "the content of
diagnosis elements" -- its printed views (section 4.4.1) show text
nodes being granted/denied by these rules, so the paper's Prolog XPath
clearly lets ``*`` match text nodes.  Standard XPath 1.0 restricts
``*`` to the principal node type (elements).  With the option on, a
lone ``*`` name test also matches text and comment nodes;
attribute-axis behaviour is unchanged.

Differential mode
-----------------

The AST interpreter this pipeline replaced survives as a test oracle,
:mod:`repro.testing.xpath_oracle`.  With differential mode enabled (the
``REPRO_XPATH_DIFFERENTIAL`` environment variable, or
:func:`set_differential`) every compiled evaluation also runs the
oracle on the same context, under the flags the path was compiled
with, and raises :class:`XPathDifferentialError` on any disagreement;
the oracle module is imported only then.  ``make fault`` runs the fault
lane with the mode armed, so every secure-write kill-point schedule
doubles as a compiled-vs-oracle equivalence check, and
``tests/xpath/conftest.py`` arms it for the whole XPath spec suite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, NamedTuple, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import NodeKind
from .ast import (
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
from .functions import CORE_FUNCTIONS, XPathFunction, XPathFunctionError
from .values import (
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

__all__ = [
    "CompatFlags",
    "CompiledXPath",
    "Context",
    "XPathDifferentialError",
    "XPathEvaluationError",
    "compile_expr",
    "differential_enabled",
    "set_differential",
]


class XPathEvaluationError(ValueError):
    """Type errors and unknown names raised during evaluation."""


@dataclass
class Context:
    """One XPath evaluation context.

    Attributes:
        doc: the document being queried.
        node: the context node.
        position: 1-based proximity position.
        size: context size.
        variables: variable bindings (``USER`` etc.); values are XPath
            values.
        functions: the function library in effect.
    """

    doc: XMLDocument
    node: NodeId
    position: int = 1
    size: int = 1
    variables: Mapping[str, XPathValue] = field(default_factory=dict)
    functions: Mapping[str, XPathFunction] = field(default_factory=lambda: CORE_FUNCTIONS)

    def at(self, node: NodeId, position: int, size: int) -> "Context":
        """A sibling context at another node/position/size."""
        return replace(self, node=node, position=position, size=size)


class XPathDifferentialError(AssertionError):
    """Compiled evaluation and the oracle disagreed (differential mode)."""


#: Differential mode switch; armed from the environment so `make fault`
#: can turn it on for a whole pytest process.
_DIFFERENTIAL = os.environ.get("REPRO_XPATH_DIFFERENTIAL", "").strip().lower() not in (
    "",
    "0",
    "false",
)


def set_differential(enabled: bool) -> None:
    """Toggle compiled-vs-oracle checking for every evaluation."""
    global _DIFFERENTIAL
    _DIFFERENTIAL = bool(enabled)


def differential_enabled() -> bool:
    """Whether every compiled evaluation is checked against the oracle."""
    return _DIFFERENTIAL


def _values_agree(a: XPathValue, b: XPathValue) -> bool:
    """XPath-value equality strict enough for the differential check:
    node-sets must match element-wise, NaN agrees with NaN, and zero
    signs must coincide."""
    if is_node_set(a) or is_node_set(b):
        return is_node_set(a) and is_node_set(b) and list(a) == list(b)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return type(a) is type(b) and a == b


#: A compiled expression: Context -> XPath value.
_ExprFn = Callable[[Context], XPathValue]
#: A compiled step/fused-step: (node-set, Context) -> node-set.
_StepFn = Callable[[NodeSet, Context], NodeSet]
#: A compiled predicate filter: (axis-ordered nodes, step Context) -> kept.
_PredFn = Callable[[NodeSet, Context], NodeSet]


class CompatFlags(NamedTuple):
    """The paper-compat readings one path is compiled under (baked into
    its closures; see the module docstring)."""

    lone_variable_name_test: bool = False
    star_matches_text: bool = False


class CompiledXPath:
    """One XPath expression compiled into a closure pipeline.

    Thread-safe and reusable across documents (the lxml ``XPath``-object
    pattern).  Call it with a :class:`Context`, or use the
    :meth:`evaluate` / :meth:`select` conveniences when the compiling
    engine supplied a context factory.  ``flags`` remembers the
    paper-compat readings baked in, for the differential oracle.
    """

    __slots__ = ("path", "expr", "flags", "_fn", "_context_factory")

    def __init__(
        self,
        path: str,
        expr: Expr,
        fn: _ExprFn,
        context_factory=None,
        flags: CompatFlags = CompatFlags(),
    ) -> None:
        self.path = path
        self.expr = expr
        self._fn = fn
        self._context_factory = context_factory
        self.flags = flags

    def __call__(self, ctx: Context) -> XPathValue:
        """Evaluate in an existing context (differential-checked)."""
        result = self._fn(ctx)
        if _DIFFERENTIAL:
            # The only import of the oracle under src/: a process that
            # never arms differential mode never loads the interpreter.
            from ..testing.xpath_oracle import evaluate as _interpret

            expected = _interpret(self.expr, ctx, self.flags)
            if not _values_agree(result, expected):
                raise XPathDifferentialError(
                    f"compiled evaluation of {self.path!r} diverged: "
                    f"compiled={result!r} interpreted={expected!r}"
                )
        return result

    def evaluate(self, doc, context_node=None, variables=None) -> XPathValue:
        """Evaluate against a document, like ``XPathEngine.evaluate``."""
        if self._context_factory is None:
            raise XPathEvaluationError(
                "this compiled path has no context factory; call it with a "
                "Context or compile it through XPathEngine.compile_evaluator"
            )
        return self(self._context_factory(doc, context_node, variables))

    def select(self, doc, context_node=None, variables=None) -> NodeSet:
        """Evaluate and require a node-set (PATH-parameter semantics)."""
        value = self.evaluate(doc, context_node, variables)
        if not is_node_set(value):
            raise XPathEvaluationError(
                f"path {self.path!r} evaluated to {type(value).__name__}, "
                "expected a node-set"
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CompiledXPath({self.path!r})"


def compile_expr(
    expr: Expr,
    lone_variable_name_test: bool = False,
    star_matches_text: bool = False,
    path: Optional[str] = None,
    context_factory=None,
) -> CompiledXPath:
    """Compile a parsed expression into a :class:`CompiledXPath`.

    Args:
        expr: the parsed AST.
        lone_variable_name_test: bake in the paper-compat ``[$var]``
            reading (see the module docstring).
        star_matches_text: bake in the paper-compat lone-``*`` reading.
        path: source string, for error messages (defaults to
            ``str(expr)``).
        context_factory: optional ``(doc, context_node, variables) ->
            Context`` enabling :meth:`CompiledXPath.evaluate`.
    """
    flags = CompatFlags(lone_variable_name_test, star_matches_text)
    return CompiledXPath(
        path if path is not None else str(expr),
        expr,
        _compile(expr, flags),
        context_factory,
        flags,
    )


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------
def _compile(expr: Expr, flags: CompatFlags) -> _ExprFn:
    if isinstance(expr, LocationPath):
        pipeline = _compile_steps(expr.steps, flags)
        if expr.absolute:
            return lambda ctx: pipeline([DOCUMENT_ID], ctx)
        return lambda ctx: pipeline([ctx.node], ctx)
    if isinstance(expr, PathExpr):
        base_fn = _compile(expr.start, flags)
        pipeline = _compile_steps(expr.steps, flags)

        def run_path(ctx: Context) -> XPathValue:
            base = base_fn(ctx)
            if not is_node_set(base):
                raise XPathEvaluationError(
                    "a path may only continue from a node-set expression"
                )
            return pipeline(base, ctx)

        return run_path
    if isinstance(expr, FilterExpr):
        primary_fn = _compile(expr.primary, flags)
        pred_fns = _compile_predicates(expr.predicates, flags)

        def run_filter(ctx: Context) -> XPathValue:
            base = primary_fn(ctx)
            if not is_node_set(base):
                raise XPathEvaluationError("predicates apply only to node-sets")
            nodes: NodeSet = base
            for pred in pred_fns:
                if not nodes:  # as on a step: no candidate, no evaluation
                    break
                nodes = pred(nodes, ctx)
            return nodes

        return run_filter
    if isinstance(expr, UnionExpr):
        left_fn = _compile(expr.left, flags)
        right_fn = _compile(expr.right, flags)

        def run_union(ctx: Context) -> XPathValue:
            left = left_fn(ctx)
            right = right_fn(ctx)
            if not (is_node_set(left) and is_node_set(right)):
                raise XPathEvaluationError("'|' requires node-set operands")
            return sort_document_order(list(left) + list(right))

        return run_union
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, flags)
    if isinstance(expr, Negate):
        operand_fn = _compile(expr.operand, flags)
        return lambda ctx: -to_number(operand_fn(ctx), ctx.doc)
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, NumberLiteral):
        number = expr.value
        return lambda ctx: number
    if isinstance(expr, VariableRef):
        name = expr.name

        def read_variable(ctx: Context) -> XPathValue:
            try:
                return ctx.variables[name]
            except KeyError:
                raise XPathEvaluationError(f"unbound variable ${name}") from None

        return read_variable
    if isinstance(expr, FunctionCall):
        fname = expr.name
        arg_fns = [_compile(a, flags) for a in expr.args]

        def call(ctx: Context) -> XPathValue:
            function = ctx.functions.get(fname)
            if function is None:
                raise XPathEvaluationError(f"unknown function {fname}()")
            args = [fn(ctx) for fn in arg_fns]
            try:
                return function(ctx, args)
            except XPathFunctionError as exc:
                raise XPathEvaluationError(str(exc)) from exc

        return call
    raise XPathEvaluationError(f"cannot compile {expr!r}")  # pragma: no cover


_RELATIONAL = frozenset({"<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "div", "mod"})


def _compile_binary(expr: BinaryOp, flags: CompatFlags) -> _ExprFn:
    op = expr.op
    left_fn = _compile(expr.left, flags)
    right_fn = _compile(expr.right, flags)
    if op == "or":
        return lambda ctx: to_boolean(left_fn(ctx)) or to_boolean(right_fn(ctx))
    if op == "and":
        return lambda ctx: to_boolean(left_fn(ctx)) and to_boolean(right_fn(ctx))
    if op in ("=", "!="):
        return lambda ctx: compare_equality(op, left_fn(ctx), right_fn(ctx), ctx.doc)
    if op in _RELATIONAL:
        return lambda ctx: compare_relational(op, left_fn(ctx), right_fn(ctx), ctx.doc)
    if op in _ARITHMETIC:
        return lambda ctx: arithmetic(op, left_fn(ctx), right_fn(ctx), ctx.doc)
    raise XPathEvaluationError(f"unknown operator {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------
def _fold_constant(expr: Expr) -> Optional[XPathValue]:
    """The value of a context-free constant expression, or None.

    Folds literals, numbers, unary minus and the binary operators over
    already-constant operands (the operators consult their document
    argument only for node-set operands, which a constant expression
    can never produce, so folding passes None).  ``or``/``and`` fold
    only when the left operand decides the outcome (mirroring the
    run-time short-circuit, so a non-constant right side is never
    skipped when evaluation would reach it).  Variables, functions and
    anything touching the document never fold.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, Negate):
        operand = _fold_constant(expr.operand)
        if operand is None or is_node_set(operand):
            return None
        return -to_number(operand, None)
    if isinstance(expr, BinaryOp):
        left = _fold_constant(expr.left)
        if left is None or is_node_set(left):
            return None
        if expr.op == "or" and to_boolean(left):
            return True
        if expr.op == "and" and not to_boolean(left):
            return False
        right = _fold_constant(expr.right)
        if right is None or is_node_set(right):
            return None
        if expr.op == "or" or expr.op == "and":
            return to_boolean(right)
        if expr.op in ("=", "!="):
            return compare_equality(expr.op, left, right, None)
        if expr.op in _RELATIONAL:
            return compare_relational(expr.op, left, right, None)
        if expr.op in _ARITHMETIC:
            return arithmetic(expr.op, left, right, None)
    return None


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------
def _compile_steps(
    steps: Tuple[Step, ...], flags: CompatFlags
) -> Callable[[NodeSet, Context], NodeSet]:
    """Compile a step sequence into one pipeline closure.

    Adjacent ``descendant-or-self::node()`` / predicate-free
    ``child::T`` pairs (the ``//`` desugar) fuse into a single
    descendant scan.  The pipeline exits early as soon as an
    intermediate node-set is empty -- every remaining step would map
    empty to empty.
    """
    fns: List[_StepFn] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        nxt = steps[index + 1] if index + 1 < len(steps) else None
        if (
            step.axis == "descendant-or-self"
            and isinstance(step.test, KindTest)
            and step.test.kind == "node"
            and not step.predicates
            and nxt is not None
            and nxt.axis == "child"
            and not nxt.predicates
        ):
            fns.append(_compile_fused_descendant(nxt.test, flags))
            index += 2
            continue
        fns.append(_compile_step(step, flags))
        index += 1

    def pipeline(start: NodeSet, ctx: Context) -> NodeSet:
        current = sort_document_order(start)
        for fn in fns:
            if not current:
                return current
            current = fn(current, ctx)
        return current

    return pipeline


def _compile_fused_descendant(test, flags: CompatFlags) -> _StepFn:
    """The fused ``//T`` scan: label/kind-indexed when the document
    supports it, a single strict-descendant walk otherwise.  Equivalent
    to ``descendant-or-self::node()`` followed by ``child::T`` because
    the children of a node's descendant-or-self set are exactly its
    strict (non-attribute) descendants."""
    test_fn = _compile_test("child", test, flags)
    indexed = _compile_index_lookup(test, flags)

    def fused(current: NodeSet, ctx: Context) -> NodeSet:
        doc = ctx.doc
        if indexed is not None and hasattr(doc, "nodes_with_label"):
            if current == _FROM_DOCUMENT:
                # Every indexed node is a strict descendant of the
                # document node: no ancestor test to make.
                return sort_document_order(indexed(doc))
            return sort_document_order(
                [n for n in indexed(doc) for c in current if c.is_ancestor_of(n)]
            )
        if test_fn is None:
            gathered = [n for c in current for n in doc.descendants(c)]
        else:
            gathered = [
                n
                for c in current
                for n in doc.descendants(c)
                if test_fn(ctx, n)
            ]
        return sort_document_order(gathered)

    return fused


#: The context a ``//T`` from the document node starts from.
_FROM_DOCUMENT = [DOCUMENT_ID]
#: What the paper-compat lone ``*`` matches off the attribute axis.
_STAR_KINDS = (NodeKind.ELEMENT, NodeKind.TEXT, NodeKind.COMMENT)
#: Kind tests answerable from the document's kind index.
_INDEXED_KINDS = {
    "text": (NodeKind.TEXT,),
    "comment": (NodeKind.COMMENT,),
    "node": _STAR_KINDS + (NodeKind.PROCESSING_INSTRUCTION,),
}


def _compile_index_lookup(
    test: NodeTest, flags: CompatFlags
) -> Optional[Callable[[XMLDocument], Set[NodeId]]]:
    """``doc -> candidate set`` for a ``//``-pair's child test, answered
    from the document's label/kind indexes -- or None when the test
    cannot be (``processing-instruction('target')``), and the generic
    descendant walk runs."""
    if isinstance(test, NameTest):
        if not test.is_wildcard:
            name = test.name
            return lambda doc: doc.nodes_with_label(name)
        kinds = _STAR_KINDS if flags.star_matches_text else (NodeKind.ELEMENT,)
    else:
        kinds = _INDEXED_KINDS.get(test.kind)
        if kinds is None:
            return None
    return lambda doc: set().union(*(doc.nodes_with_kind(k) for k in kinds))


def _parent_axis(doc, node: NodeId) -> List[NodeId]:
    parent = doc.parent(node)
    return [parent] if parent is not None else []


#: Axis -> (doc, node) -> nodes in axis order (reverse axes nearest-first).
_AXIS_FNS = {
    "child": lambda doc, n: doc.children(n),
    "descendant": lambda doc, n: list(doc.descendants(n)),
    "descendant-or-self": lambda doc, n: list(doc.descendants_or_self(n)),
    "parent": _parent_axis,
    "ancestor": lambda doc, n: list(doc.ancestors(n)),
    "ancestor-or-self": lambda doc, n: [n] + list(doc.ancestors(n)),
    "self": lambda doc, n: [n],
    "following-sibling": lambda doc, n: doc.following_siblings(n),
    "preceding-sibling": lambda doc, n: doc.preceding_siblings(n),
    "following": lambda doc, n: doc.following(n),
    "preceding": lambda doc, n: doc.preceding(n),
    "attribute": lambda doc, n: doc.attributes(n),
    "namespace": lambda doc, n: [],
}


def _compile_step(step: Step, flags: CompatFlags) -> _StepFn:
    """A step as a closure: a ``children_named`` lookup for the child
    steps the name index answers, an axis scan for the rest."""
    if step.axis != "child":
        return _compile_scan(step, flags)
    test = step.test
    if isinstance(test, NameTest) and not test.is_wildcard:
        name = test.name
        return _compile_lookup(lambda ctx: name, step.predicates, None, flags)
    scan = _compile_scan(step, flags)
    bound = _bound_child_name(step, flags)
    if bound is None:
        return scan
    return _compile_lookup(bound, step.predicates[1:], scan, flags)


def _compile_scan(step: Step, flags: CompatFlags) -> _StepFn:
    axis_fn = _AXIS_FNS.get(step.axis)
    if axis_fn is None:
        raise XPathEvaluationError(f"unknown axis {step.axis!r}")
    test_fn = _compile_test(step.axis, step.test, flags)
    pred_fns = _compile_predicates(step.predicates, flags)

    def run(current: NodeSet, ctx: Context) -> NodeSet:
        gathered: List[NodeId] = []
        for context_node in current:
            candidates = axis_fn(ctx.doc, context_node)
            if test_fn is None:
                candidates = list(candidates)
            else:
                candidates = [n for n in candidates if test_fn(ctx, n)]
            for pred in pred_fns:
                if not candidates:
                    break
                candidates = pred(candidates, ctx)
            gathered.extend(candidates)
        return sort_document_order(gathered)

    return run


def _compile_lookup(
    name_of: Callable[[Context], Optional[str]],
    predicates: Tuple[Expr, ...],
    scan: Optional[_StepFn],
    flags: CompatFlags,
) -> _StepFn:
    """A child step answered by ``doc.children_named(node, name_of(ctx))``,
    then ``predicates`` -- on the looked-up list, so positions are the
    ones the scan would give.  ``name_of`` returns None only when a
    ``scan`` of the step is given to fall back to."""
    pred_fns = _compile_predicates(predicates, flags)

    def run_named(current: NodeSet, ctx: Context) -> NodeSet:
        name = name_of(ctx)
        if name is None:
            return scan(current, ctx)
        doc = ctx.doc
        gathered: List[NodeId] = []
        for context_node in current:
            candidates = doc.children_named(context_node, name)
            for pred in pred_fns:
                if not candidates:
                    break
                candidates = pred(candidates, ctx)
            gathered.extend(candidates)
        if len(current) == 1:
            return gathered  # one sibling list: in order, no duplicates
        return sort_document_order(gathered)

    return run_named


def _bound_child_name(
    step: Step, flags: CompatFlags
) -> Optional[Callable[[Context], Optional[str]]]:
    """``ctx -> label`` when a ``*`` child step's first predicate makes
    it select exactly the element children carrying that label --
    ``*[$v]`` under the lone-variable reading, ``*[name()='lit']`` or
    ``*['lit'=name()]`` -- so the step is a lookup; None otherwise.

    The label function returns None where the lookup would not be
    exact -- an unbound ``$v`` (the scan raises only if a candidate
    reaches the predicate) or a ``name()`` the context's library
    redefines -- and the step scans.  A non-empty literal is required
    of the ``name()`` form because text and comment nodes, which the
    paper-compat ``*`` also matches, have the empty name.
    """
    test = step.test
    if not (isinstance(test, NameTest) and test.is_wildcard and step.predicates):
        return None
    first = step.predicates[0]
    if flags.lone_variable_name_test and isinstance(first, VariableRef):
        variable = first.name

        def bound_name(ctx: Context) -> Optional[str]:
            value = ctx.variables.get(variable)
            return None if value is None else to_string(value, ctx.doc)

        return bound_name
    literal = _name_equals_literal(first)
    if not literal:
        return None
    core_name = CORE_FUNCTIONS["name"]
    return lambda ctx: literal if ctx.functions.get("name") is core_name else None


def _name_equals_literal(predicate: Expr) -> Optional[str]:
    """``lit`` for a ``name()='lit'`` or ``'lit'=name()`` predicate."""
    if not isinstance(predicate, BinaryOp) or predicate.op != "=":
        return None
    for call, literal in (
        (predicate.left, predicate.right),
        (predicate.right, predicate.left),
    ):
        if (
            isinstance(call, FunctionCall)
            and call.name == "name"
            and not call.args
            and isinstance(literal, Literal)
        ):
            return literal.value
    return None


def _compile_test(axis: str, test, flags: CompatFlags) -> Optional[Callable]:
    """Compile a node test to ``(ctx, node) -> bool``; None = match-all."""
    if isinstance(test, KindTest):
        kind = test.kind
        if kind == "node":
            return None
        if kind == "text":
            return lambda ctx, n: ctx.doc.kind(n) is NodeKind.TEXT
        if kind == "comment":
            return lambda ctx, n: ctx.doc.kind(n) is NodeKind.COMMENT
        if kind == "processing-instruction":
            target = test.target
            if not target:
                return (
                    lambda ctx, n: ctx.doc.kind(n)
                    is NodeKind.PROCESSING_INSTRUCTION
                )
            return (
                lambda ctx, n: ctx.doc.kind(n) is NodeKind.PROCESSING_INSTRUCTION
                and ctx.doc.label(n) == target
            )
        raise XPathEvaluationError(f"unknown kind test {kind!r}")
    assert isinstance(test, NameTest)
    principal = NodeKind.ATTRIBUTE if axis == "attribute" else NodeKind.ELEMENT
    if test.is_wildcard:
        if flags.star_matches_text and axis != "attribute":
            return lambda ctx, n: ctx.doc.kind(n) in _STAR_KINDS
        return lambda ctx, n: ctx.doc.kind(n) is principal
    name = test.name
    return (
        lambda ctx, n: ctx.doc.kind(n) is principal and ctx.doc.label(n) == name
    )


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------
def _drop_all(nodes: NodeSet, ctx: Context) -> NodeSet:
    """A constant-false predicate: filters everything, short-circuiting
    the remaining pipeline through the early-empty exit."""
    return []


#: Node kinds the paper-compat lone-``$var`` name test can match.
_NAMEABLE = (NodeKind.ELEMENT, NodeKind.ATTRIBUTE)


def _compile_predicates(
    predicates: Tuple[Expr, ...], flags: CompatFlags
) -> List[_PredFn]:
    fns: List[_PredFn] = []
    for predicate in predicates:
        fn = _compile_predicate(predicate, flags)
        if fn is not None:  # constant-true predicates fold away entirely
            fns.append(fn)
    return fns


def _compile_predicate(predicate: Expr, flags: CompatFlags) -> Optional[_PredFn]:
    """One predicate as a filter closure, or None when it folds to
    "keep everything"."""
    # Paper-compat extension: a lone $var predicate reads name() = $var.
    if flags.lone_variable_name_test and isinstance(predicate, VariableRef):
        var_fn = _compile(predicate, flags)

        def name_filter(nodes: NodeSet, ctx: Context) -> NodeSet:
            wanted = to_string(var_fn(ctx), ctx.doc)
            return [
                n
                for n in nodes
                if ctx.doc.kind(n) in _NAMEABLE and ctx.doc.label(n) == wanted
            ]

        return name_filter
    folded = _fold_constant(predicate)
    if folded is not None and not is_node_set(folded):
        if isinstance(folded, float) and not isinstance(folded, bool):
            # Positional constant: [3] keeps exactly the third node of
            # the axis-ordered candidate list; non-integral or
            # out-of-domain positions keep nothing, ever.
            if math.isfinite(folded) and folded == int(folded) and folded >= 1:
                position = int(folded)
                return lambda nodes, ctx: nodes[position - 1 : position]
            return _drop_all
        if to_boolean(folded):
            return None
        return _drop_all
    predicate_fn = _compile(predicate, flags)

    def general(nodes: NodeSet, ctx: Context) -> NodeSet:
        size = len(nodes)
        kept: List[NodeId] = []
        for index, node in enumerate(nodes, start=1):
            value = predicate_fn(
                Context(ctx.doc, node, index, size, ctx.variables, ctx.functions)
            )
            if isinstance(value, float) and not isinstance(value, bool):
                if value == float(index):
                    kept.append(node)
            elif to_boolean(value):
                kept.append(node)
        return kept

    return general
