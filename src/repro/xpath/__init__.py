"""XPath 1.0 engine: the paper's query language (section 3.4).

A from-scratch lexer, parser and compiler for the XPath 1.0 subset the
model needs (all axes, predicates, the core function library,
variables): lexer -> AST -> closure pipeline, one executor for rule
paths, queries and XUpdate PATHs alike.  The facade is
:class:`XPathEngine`; the AST interpreter it once ran lives on only as
the test oracle :mod:`repro.testing.xpath_oracle`.
"""

from .ast import (
    AXES,
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    KindTest,
    Literal,
    LocationPath,
    NameTest,
    Negate,
    NumberLiteral,
    PathExpr,
    Step,
    UnionExpr,
    VariableRef,
)
from .compiler import (
    CompiledXPath,
    Context,
    XPathDifferentialError,
    XPathEvaluationError,
    compile_expr,
    differential_enabled,
    set_differential,
)
from .engine import XPathEngine
from .functions import CORE_FUNCTIONS, XPathFunction, XPathFunctionError
from .lexer import Token, XPathSyntaxError, tokenize
from .parser import parse_xpath
from .values import (
    NodeSet,
    XPathValue,
    is_node_set,
    number_to_string,
    sort_document_order,
    to_boolean,
    to_number,
    to_string,
)

__all__ = [
    "AXES",
    "BinaryOp",
    "CORE_FUNCTIONS",
    "CompiledXPath",
    "Context",
    "Expr",
    "FilterExpr",
    "FunctionCall",
    "KindTest",
    "Literal",
    "LocationPath",
    "NameTest",
    "Negate",
    "NodeSet",
    "NumberLiteral",
    "PathExpr",
    "Step",
    "Token",
    "UnionExpr",
    "VariableRef",
    "XPathEngine",
    "XPathEvaluationError",
    "XPathFunction",
    "XPathFunctionError",
    "XPathSyntaxError",
    "XPathValue",
    "is_node_set",
    "number_to_string",
    "parse_xpath",
    "sort_document_order",
    "to_boolean",
    "to_number",
    "to_string",
    "tokenize",
]
