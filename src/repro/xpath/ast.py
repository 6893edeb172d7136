"""Abstract syntax for the XPath 1.0 subset.

The paper treats ``xpath(p, n, v)`` as a black-box predicate whose axioms
live in its Prolog prototype (section 3.4).  Here the language gets a
real front end: this module defines the AST the
:mod:`repro.xpath.parser` produces and the
:mod:`repro.xpath.compiler` consumes.

Covered grammar (XPath 1.0, REC-xpath-19991116): location paths over all
thirteen axes, name and kind node tests, predicates, the full expression
grammar (or/and/equality/relational/additive/multiplicative/unary),
unions, filter expressions, variable references, literals, numbers and
function calls.  Omitted: namespace axis semantics (namespaces are
treated as plain name prefixes, as the paper does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = [
    "Expr",
    "LocationPath",
    "Step",
    "NodeTest",
    "NameTest",
    "KindTest",
    "BinaryOp",
    "Negate",
    "UnionExpr",
    "Literal",
    "NumberLiteral",
    "VariableRef",
    "FunctionCall",
    "FilterExpr",
    "PathExpr",
    "AXES",
    "FORWARD_AXES",
    "REVERSE_AXES",
]

#: All thirteen XPath 1.0 axes.
AXES = frozenset(
    {
        "child",
        "descendant",
        "parent",
        "ancestor",
        "following-sibling",
        "preceding-sibling",
        "following",
        "preceding",
        "attribute",
        "namespace",
        "self",
        "descendant-or-self",
        "ancestor-or-self",
    }
)

#: Axes whose proximity position counts in document order.
FORWARD_AXES = frozenset(
    {
        "child",
        "descendant",
        "descendant-or-self",
        "following",
        "following-sibling",
        "attribute",
        "namespace",
        "self",
    }
)

#: Axes whose proximity position counts in reverse document order.
REVERSE_AXES = frozenset(
    {"parent", "ancestor", "ancestor-or-self", "preceding", "preceding-sibling"}
)


class Expr:
    """Base class for every XPath expression node."""

    __slots__ = ()


class NodeTest:
    """Base class for step node tests."""

    __slots__ = ()


@dataclass(frozen=True)
class NameTest(NodeTest):
    """A name test: an element/attribute name, or ``*`` for any name."""

    name: str

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class KindTest(NodeTest):
    """A kind test: ``text()``, ``node()``, ``comment()`` or
    ``processing-instruction()`` (optionally with a target literal)."""

    kind: str
    target: str = ""

    def __str__(self) -> str:
        if self.target:
            return f"{self.kind}('{self.target}')"
        return f"{self.kind}()"


@dataclass(frozen=True)
class Step(Expr):
    """One location step: ``axis::node-test[predicate]*``."""

    axis: str
    test: NodeTest
    predicates: Tuple[Expr, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath(Expr):
    """A location path; ``absolute`` paths start at the document node."""

    absolute: bool
    steps: Tuple[Step, ...]

    def __str__(self) -> str:
        body = "/".join(str(s) for s in self.steps)
        return ("/" + body) if self.absolute else body


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operation: or, and, =, !=, <, <=, >, >=, +, -, *, div, mod."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""

    operand: Expr

    def __str__(self) -> str:
        return f"-{self.operand}"


@dataclass(frozen=True)
class UnionExpr(Expr):
    """Node-set union: ``left | right``."""

    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} | {self.right}"


@dataclass(frozen=True)
class Literal(Expr):
    """A string literal."""

    value: str

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class NumberLiteral(Expr):
    """A numeric literal (XPath numbers are IEEE doubles)."""

    value: float

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VariableRef(Expr):
    """A variable reference ``$name`` (the paper's ``$USER``)."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A core-library function call."""

    name: str
    args: Tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression filtered by predicates: ``$x[1]``."""

    primary: Expr
    predicates: Tuple[Expr, ...]

    def __str__(self) -> str:
        return str(self.primary) + "".join(f"[{p}]" for p in self.predicates)


@dataclass(frozen=True)
class PathExpr(Expr):
    """A filter expression continued by a relative path: ``$x/a/b``."""

    start: Expr
    steps: Tuple[Step, ...]

    def __str__(self) -> str:
        return str(self.start) + "/" + "/".join(str(s) for s in self.steps)
