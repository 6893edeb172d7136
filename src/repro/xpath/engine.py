"""The :class:`XPathEngine` facade and the paper's ``xpath/3`` predicate.

The engine bundles a function library, the paper-compat options and
the one compiled-evaluator cache.  Every operation is a thin call into
:meth:`XPathEngine.compile_evaluator`, so every consumer runs the same
closure pipeline (:mod:`repro.xpath.compiler`):

- :meth:`XPathEngine.evaluate` -- full XPath evaluation to any value
  type (used by queries);
- :meth:`XPathEngine.select` -- node-set selection (used everywhere a
  PATH parameter appears in the paper);
- :meth:`XPathEngine.xpath_facts` -- the logical reading
  ``xpath(p, n, v)`` of section 3.4: the set of (path, identifier,
  label) triples a path derives, consumed by the formal layer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from .ast import Expr
from .compiler import CompiledXPath, Context, compile_expr
from .functions import CORE_FUNCTIONS, XPathFunction
from .parser import parse_xpath
from .values import NodeSet, XPathValue

__all__ = ["XPathEngine"]

#: Per-engine compiled-evaluator cache bound (LRU eviction beyond this).
_COMPILED_CACHE_SIZE = 1024


class XPathEngine:
    """Evaluates XPath 1.0 expressions against documents.

    Args:
        extra_functions: additional functions merged over the core
            library (same call signature as core functions).
        lone_variable_name_test: enable the paper-compat reading of a
            lone ``[$var]`` predicate as ``[name() = $var]`` (see
            :mod:`repro.xpath.compiler`).  The security layer turns
            this on so the paper's example policy works verbatim.
        star_matches_text: enable the paper-compat reading of a lone
            ``*`` name test as matching text and comment nodes too (the
            paper's policy uses ``//*`` to cover text content; see
            :mod:`repro.xpath.compiler`).
    """

    def __init__(
        self,
        extra_functions: Optional[Mapping[str, XPathFunction]] = None,
        lone_variable_name_test: bool = False,
        star_matches_text: bool = False,
    ) -> None:
        functions: Dict[str, XPathFunction] = dict(CORE_FUNCTIONS)
        if extra_functions:
            functions.update(extra_functions)
        self._functions = functions
        self._lone_variable_name_test = lone_variable_name_test
        self._star_matches_text = star_matches_text
        self._compiled: "OrderedDict[str, CompiledXPath]" = OrderedDict()
        self._compiled_lock = threading.Lock()
        self._paths_compiled = 0

    @property
    def star_matches_text(self) -> bool:
        """Whether the paper-compat lone-``*`` reading is enabled (the
        static path analysis in :mod:`repro.xpath.skeleton` must mirror
        the evaluator's configuration)."""
        return self._star_matches_text

    @property
    def lone_variable_name_test(self) -> bool:
        """Whether the paper-compat ``[$var]`` reading is enabled."""
        return self._lone_variable_name_test

    @property
    def paths_compiled(self) -> int:
        """Compiled-cache misses so far: how many paths this engine has
        compiled (``rules_compiled`` in ``SecureXMLDatabase.stats()``)."""
        return self._paths_compiled

    def _context(
        self,
        doc: XMLDocument,
        context_node: Optional[NodeId],
        variables: Optional[Mapping[str, XPathValue]],
    ) -> Context:
        return Context(
            doc=doc,
            node=context_node if context_node is not None else DOCUMENT_ID,
            variables=dict(variables or {}),
            functions=self._functions,
        )

    def compile(self, path: str) -> Expr:
        """Parse (with caching) a path, surfacing syntax errors early."""
        return parse_xpath(path)

    def compile_evaluator(self, path: str) -> CompiledXPath:
        """Compile ``path`` into a reusable closure-pipeline evaluator.

        Compiled evaluators carry this engine's function library and
        paper-compat options, are cached per engine (LRU, bounded) and
        are safe to share across threads and documents -- the lxml
        pattern of compiling an XPath string once and reusing the
        evaluator object.  It is the only compiled cache: compiling
        costs microseconds per path, so no consumer keeps its own.
        Under differential mode (``make fault``) every call re-checks
        the result against :mod:`repro.testing.xpath_oracle`.
        """
        with self._compiled_lock:
            compiled = self._compiled.get(path)
            if compiled is not None:
                self._compiled.move_to_end(path)
                return compiled
            compiled = self._compiled[path] = compile_expr(
                self.compile(path),
                lone_variable_name_test=self._lone_variable_name_test,
                star_matches_text=self._star_matches_text,
                path=path,
                context_factory=self._context,
            )
            self._paths_compiled += 1
            if len(self._compiled) > _COMPILED_CACHE_SIZE:
                self._compiled.popitem(last=False)
            return compiled

    def evaluate(
        self,
        doc: XMLDocument,
        path: str,
        context_node: Optional[NodeId] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> XPathValue:
        """Evaluate ``path`` to any XPath value (node-set, number, ...).

        Args:
            doc: document to query.
            path: XPath 1.0 expression.
            context_node: context node; defaults to the document node.
            variables: variable bindings such as ``{"USER": "robert"}``.
        """
        return self.compile_evaluator(path).evaluate(doc, context_node, variables)

    def select(
        self,
        doc: XMLDocument,
        path: str,
        context_node: Optional[NodeId] = None,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> NodeSet:
        """Evaluate ``path`` and require a node-set result.

        This is the PATH-parameter semantics used by XUpdate operations
        and security rules.

        Raises:
            XPathEvaluationError: if the expression yields a non-node-set.
        """
        return self.compile_evaluator(path).select(doc, context_node, variables)

    def xpath_facts(
        self,
        doc: XMLDocument,
        path: str,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> Set[Tuple[str, NodeId, str]]:
        """The paper's ``xpath(p, n, v)`` fact set for one path.

        Reads "node with label v identified by number n is addressed by
        path p" (section 3.4).
        """
        return {
            (path, nid, doc.label(nid))
            for nid in self.select(doc, path, variables=variables)
        }
