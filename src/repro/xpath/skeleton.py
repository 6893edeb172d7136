"""Static path/update interaction analysis (after Cheney 2013).

Given a compiled rule path, this module extracts a conservative
*skeleton* -- the set of labels the path can possibly select or traverse
-- and, for a structurally simple fragment, a chain *matcher* that
decides membership of a single node without evaluating the path over
the whole document.

The two artifacts power incremental permission maintenance
(:meth:`repro.security.perm.PermissionResolver.note_commit`):

- **Disjointness** (:meth:`PathSkeleton.may_intersect`): if the labels a
  commit touched are disjoint from the skeleton's label set, the path
  provably selects the same nodes before and after the commit, so its
  cached selection is carried forward untouched.
- **Local re-matching** (:meth:`PathSkeleton.matches`): for paths in the
  *patchable* fragment (absolute location paths over ``child``,
  ``descendant``, ``descendant-or-self`` and ``self`` steps with
  name or text/comment/node kind tests and no predicates), membership of
  a node depends only on its own label/kind chain up to the document
  node.  A cached selection can then be patched: drop entries inside
  removed regions, re-test nodes inside touched regions -- never a full
  re-evaluation.

Everything else (predicates, reverse axes, unions, functions,
variables) analyzes to ``None``: *opaque*, meaning the consumer must
conservatively re-evaluate the path after any commit.

The matcher replicates the evaluator's paper-compat semantics exactly
(``star_matches_text``: a lone ``*`` also matches text and comment
nodes); the differential property suite in
``tests/security/test_view_maintenance_properties.py`` pins the
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId
from ..xmltree.node import NodeKind
from .ast import Expr, KindTest, LocationPath, NameTest, Step, UnionExpr
from .parser import parse_xpath

__all__ = ["PathSkeleton", "analyze_path", "analyze_expr"]

#: Token kinds of the patchable fragment's chain automaton.
_ANY = "any"  # descendant-or-self::node(): descend zero or more levels
_CHILD = "child"  # child::test: consume exactly one chain node
_SELF = "self"  # self::test: zero-width test on the current node

#: Axes the patchable matcher understands (others force re-evaluation).
_PATCHABLE_AXES = frozenset({"child", "descendant", "descendant-or-self", "self"})


@dataclass(frozen=True)
class PathSkeleton:
    """The static summary of one rule path.

    Attributes:
        labels: concrete labels the path mentions, or None when a
            wildcard / kind test makes the label set unbounded.
        patchable: True when :meth:`matches` can decide membership.
        tokens: the chain automaton of the patchable fragment
            (empty and meaningless when not patchable).
    """

    labels: Optional[FrozenSet[str]]
    patchable: bool
    tokens: Tuple[Tuple[str, object], ...] = ()

    def may_intersect(self, touched_labels: Set[str]) -> bool:
        """Could a commit touching these labels change the selection?

        False is a *proof* of stability; True is merely "cannot rule it
        out" (wildcards, kind tests and label overlap all answer True).
        """
        if self.labels is None:
            return True
        return not self.labels.isdisjoint(touched_labels)

    # ------------------------------------------------------------------
    # chain matching (patchable fragment only)
    # ------------------------------------------------------------------
    def matches(
        self, doc: XMLDocument, nid: NodeId, star_matches_text: bool = False
    ) -> bool:
        """Does the path select ``nid`` when evaluated from the document
        node of ``doc``?  Only meaningful when :attr:`patchable`.

        Runs an NFA over the node's label/kind chain (document node
        excluded), so the cost is O(depth x tokens) -- independent of
        document size.
        """
        if not self.patchable:
            raise ValueError("matches() called on a non-patchable skeleton")
        if doc.kind(nid) is NodeKind.ATTRIBUTE:
            # The fragment has no attribute axis, and neither a child
            # step nor a descendant gap ever reaches an attribute.
            return False
        chain = list(nid.ancestors())[:-1]  # nearest-first, document dropped
        chain.reverse()
        chain.append(nid)
        if nid.is_document:
            chain = []
        tokens = self.tokens
        n = len(tokens)
        # State i = "tokens[:i] consumed"; expand zero-width tokens.
        states = self._closure({0}, None, doc, star_matches_text)
        for node in chain:
            nxt: Set[int] = set()
            for i in states:
                if i >= n:
                    continue
                kind, test = tokens[i]
                if kind == _ANY:
                    nxt.add(i)  # descend one more level, stay in the gap
                elif kind == _CHILD and _test_matches(
                    doc, node, test, star_matches_text
                ):
                    nxt.add(i + 1)
            states = self._closure(nxt, node, doc, star_matches_text)
            if not states:
                return False
        return n in states

    def _closure(
        self,
        states: Set[int],
        context: Optional[NodeId],
        doc: XMLDocument,
        star_matches_text: bool,
    ) -> Set[int]:
        """Expand zero-width transitions: _ANY matches zero levels;
        _SELF tests the current chain node without consuming it."""
        tokens = self.tokens
        n = len(tokens)
        out = set(states)
        frontier = list(states)
        while frontier:
            i = frontier.pop()
            if i >= n:
                continue
            kind, test = tokens[i]
            advance = False
            if kind == _ANY:
                advance = True
            elif kind == _SELF:
                if context is None:
                    # self:: at the document node: only node() matches.
                    advance = isinstance(test, KindTest) and test.kind == "node"
                else:
                    advance = _test_matches(doc, context, test, star_matches_text)
            if advance and i + 1 not in out:
                out.add(i + 1)
                frontier.append(i + 1)
        return out


def _test_matches(
    doc: XMLDocument, nid: NodeId, test, star_matches_text: bool
) -> bool:
    """Replicates the compiler's ``_compile_test`` for the child axis
    (principal node type: element)."""
    node = doc.node(nid)
    if isinstance(test, KindTest):
        if test.kind == "node":
            return True
        if test.kind == "text":
            return node.kind is NodeKind.TEXT
        if test.kind == "comment":
            return node.kind is NodeKind.COMMENT
        return False  # processing-instruction: excluded from the fragment
    assert isinstance(test, NameTest)
    if node.kind is NodeKind.ELEMENT:
        return test.is_wildcard or node.label == test.name
    if (
        star_matches_text
        and test.is_wildcard
        and node.kind in (NodeKind.TEXT, NodeKind.COMMENT)
    ):
        return True
    return False


def _analyze_test(test) -> Optional[Optional[FrozenSet[str]]]:
    """Label contribution of one node test, or ``None`` (wrapped) when
    the test is outside the fragment.  Returns:

    - ``frozenset({name})`` for a concrete name test;
    - ``None`` (inner) for wildcard / kind tests (unbounded labels);
    - raises ValueError for tests the fragment excludes.
    """
    if isinstance(test, NameTest):
        if test.is_wildcard:
            return None
        return frozenset({test.name})
    if isinstance(test, KindTest):
        if test.kind in ("node", "text", "comment"):
            return None
        raise ValueError("processing-instruction test outside the fragment")
    raise ValueError(f"unknown node test {test!r}")


def _analyze_steps(steps: Tuple[Step, ...]):
    """Skeleton pieces of a step sequence.

    Returns ``(labels_or_None, patchable, tokens)``.

    Raises:
        ValueError: when any step makes even the label skeleton
            unsound (predicate referencing other regions is fine for
            labels -- predicates only *narrow* label sets -- but a
            predicate can make a path's result change without the
            selected labels changing, so predicated paths keep their
            labels for intersection tests yet lose patchability).
    """
    labels: Set[str] = set()
    unbounded = False
    chain_only = all(step.axis in _PATCHABLE_AXES for step in steps)
    patchable = chain_only
    concrete: list = []  # per-step: is the test a concrete name test?
    tokens = []
    for step in steps:
        if step.predicates:
            # A predicate may inspect arbitrary neighbouring structure
            # (e.g. //a[b] or positional tests): the selection can
            # change when *any* label changes, so the label skeleton
            # must widen to "unbounded".
            unbounded = True
            patchable = False
        try:
            contribution = _analyze_test(step.test)
        except ValueError:
            return None
        concrete.append(contribution is not None)
        if contribution is not None:
            labels |= contribution
        if patchable:
            test = step.test
            if step.axis == "child":
                tokens.append((_CHILD, test))
            elif step.axis == "descendant":
                tokens.append((_ANY, None))
                tokens.append((_CHILD, test))
            elif step.axis == "descendant-or-self":
                if isinstance(test, KindTest) and test.kind == "node":
                    tokens.append((_ANY, None))
                else:
                    # descend zero or more levels, then test in place:
                    # the self branch of descendant-or-self is exactly
                    # a zero-width test on the current chain node.
                    tokens.append((_ANY, None))
                    tokens.append((_SELF, test))
            elif step.axis == "self":
                tokens.append((_SELF, test))
    if concrete and chain_only:
        # Ancestor-chain axes only: every node a test matches during a
        # derivation is an ancestor-or-self of the selected node, and
        # inserts never graft ancestors above existing nodes.  Membership
        # can therefore change only when (a) a node whose label matches
        # the *final* test enters or leaves the document, or (b) a node
        # is relabelled across some concrete test -- both put a skeleton
        # label in the commit's touched set.  Intermediate wildcard/kind
        # tests are label-insensitive and need no widening; an
        # unconstrained final test means any node can enter, though.
        if not concrete[-1]:
            unbounded = True
    else:
        # Sibling/reverse axes can select nodes *outside* the subtree of
        # the step's match (e.g. //node()/following-sibling::c gains a
        # selection when any new left sibling appears), so any
        # non-concrete test anywhere makes the label set unbounded.
        if not all(concrete):
            unbounded = True
    return (None if unbounded else frozenset(labels)), patchable, tuple(tokens)


def analyze_expr(expr: Expr) -> Optional[PathSkeleton]:
    """The skeleton of a compiled expression, or None when opaque.

    Opaque means: no sound label skeleton can be extracted, so any
    commit may change the selection (filter expressions, variables,
    function calls at the top level, reverse axes inside predicates of
    absolute paths are all opaque).
    """
    if isinstance(expr, UnionExpr):
        left = analyze_expr(expr.left)
        right = analyze_expr(expr.right)
        if left is None or right is None:
            return None
        labels: Optional[FrozenSet[str]]
        if left.labels is None or right.labels is None:
            labels = None
        else:
            labels = left.labels | right.labels
        # Union patching would need per-branch bookkeeping; keep the
        # label skeleton (it still proves stability) but re-evaluate
        # unions whose selection may have changed.
        return PathSkeleton(labels=labels, patchable=False)
    if isinstance(expr, LocationPath):
        pieces = _analyze_steps(expr.steps)
        if pieces is None:
            return None
        labels, patchable, tokens = pieces
        # Relative paths are only sound when evaluated from the document
        # node, which is exactly how the permission resolver uses them.
        return PathSkeleton(labels=labels, patchable=patchable, tokens=tokens)
    return None


def analyze_path(path: str) -> Optional[PathSkeleton]:
    """Parse and analyze a path string (None for opaque / unparsable)."""
    try:
        expr = parse_xpath(path)
    except ValueError:
        return None
    return analyze_expr(expr)
