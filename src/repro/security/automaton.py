"""Rule paths as one lazily built label automaton (after Cheney 2013).

Most rule paths are predicate-free location paths: eleven of the twelve
equation-13 rules, and rule 5's ``*[$USER]`` is a name test once the
login is bound.  Whether such a path selects a node depends only on the
kinds and labels on the node's root-to-node chain, so the set of nodes
it selects is a regular language over those chains (Cheney, *Static
Enforceability of XPath-Based Access Control Policies*).  This module
decides that membership without evaluating the path over the document.

The fragment (:func:`fragment_tokens`): absolute or document-relative
location paths over ``child``, ``descendant``, ``descendant-or-self``
and ``self`` steps, with name, ``*``, ``text()``, ``comment()`` and
``node()`` tests and no predicates -- plus two predicated child steps
the compiler also answers by name: ``*[$USER]`` (under
``lone_variable_name_test``, an element labelled with the login) and
``*[name()='lit']`` (non-empty ``lit``).  Under the paper-compat
``star_matches_text`` reading a lone ``*`` also matches text and
comment nodes.  Anything else -- other predicates, axes or node tests,
unions, functions -- tokenises to None, and the caller evaluates that
path with the XPath engine.

:class:`LabelAutomaton` runs several fragment paths at once: it is the
subset construction of their chain NFAs, built lazily, one
``(state, node class)`` transition at a time.  A node class is the
node's kind plus, for an element, its label -- or "other" for a label
no path mentions, or "the login" for an element labelled with the
login ``*[$USER]`` is tested against -- so 8,000 differently named
patients cost two transitions, not 8,000, and every patient shares one
automaton.  Each state carries the set of paths that
accept there, and whatever its owner derives from that set once
(:class:`~repro.security.perm.PermissionResolver` stores each
privilege's axiom-14 winner).  The automaton reads no document, so it
serves every generation.
"""

from __future__ import annotations

import threading
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId
from ..xmltree.node import Node, NodeKind
from ..xpath.ast import KindTest, LocationPath, NameTest, Step, VariableRef
from ..xpath.compiler import _name_equals_literal
from ..xpath.parser import parse_xpath

__all__ = ["LabelAutomaton", "State", "fragment_tokens"]

#: Token kinds of a path's chain NFA.
_ANY = "any"  # descendant-or-self::node(): descend zero or more levels
_CHILD = "child"  # child::test: consume exactly one chain node
_SELF = "self"  # self::test: zero-width test on the current node

_AXES = frozenset({"child", "descendant", "descendant-or-self", "self"})

#: A node test: ("name", label), ("user",) for the login, ("star",),
#: ("text",), ("comment",) or ("node",).
Test = Tuple[str, ...]
Token = Tuple[str, Optional[Test]]

_NODE: Test = ("node",)
_USER: Test = ("user",)

_ELEMENT, _TEXT, _COMMENT, _ATTRIBUTE = (
    NodeKind.ELEMENT,
    NodeKind.TEXT,
    NodeKind.COMMENT,
    NodeKind.ATTRIBUTE,
)


def _test_token(step: Step, lone_variable_name_test: bool) -> Optional[Test]:
    """The fragment's reading of one step's test and predicates."""
    test, predicates = step.test, step.predicates
    if isinstance(test, KindTest):
        if predicates or test.kind not in ("node", "text", "comment"):
            return None
        return (test.kind,)
    if not isinstance(test, NameTest):
        return None
    if not test.is_wildcard:
        return None if predicates else ("name", test.name)
    if not predicates:
        return ("star",)
    if step.axis != "child" or len(predicates) != 1:
        return None
    first = predicates[0]
    if lone_variable_name_test and isinstance(first, VariableRef):
        return _USER if first.name == "USER" else None
    # Text and comment nodes, which the paper-compat ``*`` also
    # matches, have the empty name: a non-empty literal names elements.
    literal = _name_equals_literal(first)
    return ("name", literal) if literal else None


def fragment_tokens(
    path: str, lone_variable_name_test: bool = True
) -> Optional[Tuple[Token, ...]]:
    """The chain NFA of a rule path, or None when the path is outside
    the fragment (or does not parse).

    Relative paths read as evaluated from the document node, which is
    how rule paths are evaluated.
    """
    try:
        expr = parse_xpath(path)
    except ValueError:
        return None
    if not isinstance(expr, LocationPath):
        return None
    tokens: List[Token] = []
    for step in expr.steps:
        test = _test_token(step, lone_variable_name_test)
        if test is None or step.axis not in _AXES:
            return None
        if step.axis == "child":
            tokens.append((_CHILD, test))
        elif step.axis == "descendant":
            tokens += [(_ANY, None), (_CHILD, test)]
        elif step.axis == "descendant-or-self":
            # Descend zero or more levels, then test in place: the self
            # branch is a zero-width test on the current chain node.
            tokens.append((_ANY, None))
            if test != _NODE:
                tokens.append((_SELF, test))
        else:
            tokens.append((_SELF, test))
    return tuple(tokens)


#: An NFA position: (path index, tokens consumed).
_Position = Tuple[int, int]


class State:
    """One DFA state: the NFA positions live at a node.

    Attributes:
        accepting: indices of the paths that select a node in this state.
        decision: what the automaton's owner derived from ``accepting``.
    """

    __slots__ = ("positions", "accepting", "decision", "next")

    def __init__(
        self, positions: FrozenSet[_Position], accepting: FrozenSet[int], decision
    ) -> None:
        self.positions = positions
        self.accepting = accepting
        self.decision = decision
        self.next: Dict[object, "State"] = {}


class LabelAutomaton:
    """The lazily determinised chain NFA of several fragment paths.

    The automaton is generic in the login: ``*[$USER]`` tests the
    element class "labelled with the login the caller steps for", so
    every user of the same rules shares one automaton and its built
    transitions.

    Args:
        paths: each path's tokens (from :func:`fragment_tokens`).
        star_matches_text: the paper-compat lone-``*`` reading.
        decide: derives a state's :attr:`State.decision` from its
            accepting path indices, once per state.
    """

    def __init__(
        self,
        paths: Sequence[Tuple[Token, ...]],
        star_matches_text: bool,
        decide: Callable[[FrozenSet[int]], object] = lambda accepting: None,
    ) -> None:
        self._paths = [tuple(tokens) for tokens in paths]
        tests = [test for tokens in self._paths for _, test in tokens]
        #: The element labels some path names (each its own node class;
        #: every other element label is one class).
        self.names = frozenset(test[1] for test in tests if test and test[0] == "name")
        #: Whether a path tests the login (``*[$USER]``).
        self.binds_user = _USER in tests
        self._star = star_matches_text
        self._decide = decide
        self._states: Dict[FrozenSet[_Position], State] = {}
        # Readers step concurrently; building a transition is serialised.
        self._lock = threading.Lock()
        self.start = self._intern(
            self._closure([(i, 0) for i in range(len(self._paths))], None, "", False)
        )
        self.dead = self._intern(())

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, state: State, node: Node, user: Optional[str] = None) -> State:
        """The state of ``node``, a child (or attribute) of a node in
        ``state``, for login ``user``: one dict read once the
        transition exists."""
        if not state.positions:
            return state  # dead: nothing below can be selected
        kind = node.kind
        if kind is _ELEMENT:
            label = node.label
            key = label if label in self.names else None
            if self.binds_user and label == user:
                key = (key,)  # the login's own elements: a class apart
        elif kind is _TEXT:
            key = 1
        elif kind is _COMMENT:
            key = 2
        elif kind is _ATTRIBUTE:
            return self.dead  # no fragment step reaches an attribute
        else:
            key = 3  # processing instruction
        nxt = state.next.get(key)
        if nxt is None:
            nxt = self._transition(state, key, kind, node.label)
        return nxt

    def state_of(
        self, doc: XMLDocument, nid: NodeId, user: Optional[str] = None
    ) -> Optional[State]:
        """The state of ``nid`` in ``doc`` for login ``user`` -- the
        automaton run down its ancestry, which the persistent id carries
        -- or None when ``doc`` has no such node."""
        node = doc.get(nid)
        if node is None:
            return None
        chain = []
        while not nid.is_document:
            chain.append(node)
            nid = nid.parent()
            node = doc.get(nid)
        state = self.start
        for node in reversed(chain):
            state = self.step(state, node, user)
        return state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _transition(self, state: State, key, kind: NodeKind, label: str) -> State:
        login = type(key) is tuple
        with self._lock:
            nxt = state.next.get(key)
            if nxt is None:
                moved: List[_Position] = []
                for i, at in state.positions:
                    tokens = self._paths[i]
                    if at == len(tokens):
                        continue
                    op, test = tokens[at]
                    if op is _ANY:
                        moved.append((i, at))  # one more level in the gap
                    elif op is _CHILD and self._matches(test, kind, label, login):
                        moved.append((i, at + 1))
                nxt = state.next[key] = self._intern(
                    self._closure(moved, kind, label, login)
                )
            return nxt

    def _closure(
        self,
        positions: Iterable[_Position],
        kind: Optional[NodeKind],
        label: str,
        login: bool,
    ) -> FrozenSet[_Position]:
        """Expand the zero-width tokens at the current node: ``_ANY``
        matches zero levels, ``_SELF`` tests the node in place."""
        out = set(positions)
        frontier = list(out)
        while frontier:
            i, at = frontier.pop()
            tokens = self._paths[i]
            if at == len(tokens):
                continue
            op, test = tokens[at]
            if op is _ANY or (op is _SELF and self._matches(test, kind, label, login)):
                if (i, at + 1) not in out:
                    out.add((i, at + 1))
                    frontier.append((i, at + 1))
        return frozenset(out)

    def _matches(
        self, test: Test, kind: Optional[NodeKind], label: str, login: bool
    ) -> bool:
        """Replicates the compiler's child- and self-axis tests; ``kind``
        None is the document node, which only ``node()`` matches, and
        ``login`` says the node is labelled with the login."""
        tag = test[0]
        if kind is None:
            return tag == "node"
        if tag == "name":
            return kind is _ELEMENT and label == test[1]
        if tag == "user":
            return kind is _ELEMENT and login
        if tag == "star":
            return kind is _ELEMENT or (
                self._star and (kind is _TEXT or kind is _COMMENT)
            )
        if tag == "node":
            return True
        if tag == "text":
            return kind is _TEXT
        return kind is _COMMENT

    def _intern(self, positions: Iterable[_Position]) -> State:
        positions = frozenset(positions)
        state = self._states.get(positions)
        if state is None:
            accepting = frozenset(
                i for i, at in positions if at == len(self._paths[i])
            )
            state = self._states[positions] = State(
                positions, accepting, self._decide(accepting)
            )
        return state
