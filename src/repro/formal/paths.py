"""Compiling XPath location paths into Datalog rules.

The paper's ``xpath(p, n, v)`` predicate is axiomatized in its Prolog
prototype; here a :class:`PathCompiler` translates a location path into
a chain of Datalog rules over the geometry predicates of
:mod:`repro.formal.geometry`, one intermediate predicate per step.

The supported subset is the fragment the paper's policies actually use
(and the fragment our differential tests generate):

- absolute location paths;
- axes ``child``, ``descendant``, ``descendant-or-self``, ``self``,
  ``parent``;
- node tests: names, ``*`` (with the paper's semantics, also matching
  text and comment nodes), ``text()``, ``node()``;
- predicates: a lone ``$USER`` (the paper's rule-5 shorthand for
  ``name() = $USER``), ``name() = 'literal'`` and ``name() = $USER``.

Anything richer raises :class:`UnsupportedPathError`; the *procedural*
engine (:mod:`repro.xpath`) of course supports full XPath 1.0 -- this
compiler only serves the formal cross-check.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..logic.program import Program
from ..logic.terms import Var, atom, pos
from ..xpath.ast import (
    BinaryOp,
    Expr,
    FunctionCall,
    KindTest,
    Literal,
    LocationPath,
    NameTest,
    Step,
    VariableRef,
)
from ..xpath.parser import parse_xpath

__all__ = ["PathCompiler", "UnsupportedPathError"]


class UnsupportedPathError(ValueError):
    """The path falls outside the compilable fragment."""


class PathCompiler:
    """Translates location paths into rules inside one program.

    Args:
        program: destination program (must already hold, or later hold,
            the geometry theory under the same ``prefix``).
        prefix: geometry predicate prefix -- ``""`` compiles against the
            source theory, ``"view_"`` against a view theory.
        star_matches_text: the paper's wildcard semantics, where ``*``
            also matches text and comment nodes (as the engine's does),
            on by default.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        program: Program,
        prefix: str = "",
        star_matches_text: bool = True,
    ) -> None:
        self._program = program
        self._prefix = prefix
        self._star_matches_text = star_matches_text

    def compile(self, path: str, user: Optional[str] = None) -> str:
        """Compile one path; returns the result predicate name (arity 1).

        Args:
            path: the XPath expression.
            user: binding for ``$USER`` inside the path, if referenced.

        Raises:
            UnsupportedPathError: outside the fragment, or an unbound
                ``$USER``.
        """
        expr = parse_xpath(path)
        if not isinstance(expr, LocationPath) or not expr.absolute:
            raise UnsupportedPathError(
                f"only absolute location paths are compilable: {path!r}"
            )
        pid = next(self._ids)
        # current(N) starts as "N is the document node".
        current = f"{self._prefix}xp{pid}_root"
        n = Var("N")
        self._program.rule(
            atom(current, n),
            pos(self._prefix + "node", n, "/"),
        )
        for index, step in enumerate(expr.steps):
            current = self._compile_step(step, current, f"xp{pid}_s{index}", user)
        return current

    # ------------------------------------------------------------------
    def _compile_step(
        self, step: Step, source: str, name: str, user: Optional[str]
    ) -> str:
        target = self._prefix + name
        n, p = Var("N"), Var("P")
        axis = step.axis
        if axis == "child":
            moves = [pos(self._prefix + "child", n, p)]
        elif axis == "descendant":
            moves = [pos(self._prefix + "descendant", n, p)]
        elif axis == "descendant-or-self":
            moves = [pos(self._prefix + "descendant_or_self", n, p)]
        elif axis == "self":
            moves = None  # alias handled below
        elif axis == "parent":
            moves = [pos(self._prefix + "child", p, n)]
        else:
            raise UnsupportedPathError(f"axis {axis!r} is not compilable")

        tests = self._test_conditions(step.test, n, user)
        preds = []
        for pr in step.predicates:
            preds.extend(self._predicate_condition(pr, n, user))
        for test_variant in tests:
            body = []
            if moves is None:
                body.append(pos(source, n))
            else:
                body.append(pos(source, p))
                body.extend(moves)
            body.extend(test_variant)
            body.extend(preds)
            self._program.rule(atom(target, n), *body)
        return target

    def _test_conditions(self, test, n: Var, user: Optional[str]):
        """One condition list per disjunct of the node test."""
        if isinstance(test, KindTest):
            if test.kind == "node":
                return [[]]
            if test.kind == "text":
                return [[pos(self._prefix + "text", n)]]
            raise UnsupportedPathError(f"kind test {test.kind!r} not compilable")
        assert isinstance(test, NameTest)
        if test.is_wildcard:
            variants = [[pos(self._prefix + "element", n)]]
            if self._star_matches_text:
                # The kinds of the engine's paper-compat ``*``
                # (``repro.xpath.compiler._STAR_KINDS``).
                variants.append([pos(self._prefix + "text", n)])
                variants.append([pos(self._prefix + "comment", n)])
            return variants
        v = Var("V_test")
        return [
            [
                pos(self._prefix + "element", n),
                pos(self._prefix + "node", n, test.name),
            ]
        ]

    def _predicate_condition(self, predicate: Expr, n: Var, user: Optional[str]):
        """Body literals for a supported predicate form.

        Name-based predicates only ever match elements (the procedural
        engine's lone-``$USER`` check tests the node kind too), so the
        ``element`` condition is conjoined explicitly.
        """
        if isinstance(predicate, VariableRef):
            # Paper rule-5 shorthand: [$USER] == [name() = $USER].
            return [
                pos(self._prefix + "element", n),
                pos(self._prefix + "node", n, self._resolve_user(predicate, user)),
            ]
        if (
            isinstance(predicate, BinaryOp)
            and predicate.op == "="
            and isinstance(predicate.left, FunctionCall)
            and predicate.left.name == "name"
            and not predicate.left.args
        ):
            right = predicate.right
            value = None
            if isinstance(right, Literal):
                value = right.value
            elif isinstance(right, VariableRef):
                value = self._resolve_user(right, user)
            if value is not None:
                return [
                    pos(self._prefix + "element", n),
                    pos(self._prefix + "node", n, value),
                ]
        raise UnsupportedPathError(f"predicate {predicate} is not compilable")

    @staticmethod
    def _resolve_user(ref: VariableRef, user: Optional[str]) -> str:
        if ref.name != "USER":
            raise UnsupportedPathError(f"unknown variable ${ref.name}")
        if user is None:
            raise UnsupportedPathError("$USER referenced but no user bound")
        return user
