"""Conflict resolution: deriving ``perm(s, n, r)`` (paper axiom 14).

Axiom 14 reads: subject ``s`` definitely holds privilege ``r`` on node
``n`` iff some accept rule (for a subject s' with ``isa(s, s')``, whose
path addresses ``n``) has **no later deny rule** covering the same
subject/privilege/node.  With unique priorities this is exactly
"the latest matching rule wins; no matching rule means no privilege"
(closed-world assumption).

The ``$USER`` variable in rule paths is bound to the login of the user
whose permissions are being derived, supporting the paper's
"patients may access their own medical file" rules 4-5.

Decisions on demand
-------------------

A user's applicable rules, in priority order, plus the login when some
path reads ``$USER``, form the user's permission *fingerprint*
(:meth:`PermissionResolver.fingerprint`): two users with equal
fingerprints provably hold the same facts, so the common role-based
policy is compiled once per role, not once per user.

Each fingerprint's rules compile once into a
:class:`~repro.security.automaton.LabelAutomaton` over the paths of its
*fragment* rules (predicate-free location paths, plus ``*[$USER]`` and
``*[name()='lit']`` child steps).  The login is a node class of the
automaton, not a label baked into it, so every patient of the paper's
policy shares one automaton.  Every automaton state stores, per
privilege, the axiom-14 winner among the fragment rules that accept
there -- the latest one.  A rule outside the fragment (predicates,
attribute steps, unions) is an *exception*: its compiled-XPath
selection is evaluated on the table's document generation, and a
node's winner is the highest-priority rule among its state's winner
and the exception rules that select it.

A :class:`PermissionTable` is one automaton bound to one document
generation.  It stores no decision: :meth:`PermissionTable.holds` runs
the automaton down the node's ancestry, which the persistent id
carries, so a check costs O(depth) cached transitions.  The automaton
reads no document, so carrying a table across a commit is binding the
same automaton to the new generation
(:meth:`PermissionResolver.rebind`) -- only exception paths are
evaluated again.  :class:`~repro.security.viewcache.ViewCache` holds
each fingerprint's table beside its view and decides when to rebind;
the resolver keeps an automaton only while some table uses it.

The automaton state (with the exception merge) is the only place
axiom 14 is decided: views, write checks, ``Session.can()`` and
``explain`` all ask a table.  The priority replay over whole selections
that this replaced is kept as the differential oracle
(:mod:`repro.testing.perm_oracle`), beside the Datalog transcription in
:mod:`repro.formal`.  All decisions are counted in
:attr:`PermissionResolver.stats` (surfaced through
``SecureXMLDatabase.stats()``).
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import Node, NodeKind
from ..xpath.engine import XPathEngine
from .automaton import LabelAutomaton, State, fragment_tokens
from .policy import ACCEPT, Policy, SecurityRule
from .privileges import Privilege

__all__ = ["PermissionTable", "PermissionResolver"]

#: A permission fingerprint: the applicable rules (in priority order)
#: plus the user login when any applicable path references $USER.
Fingerprint = Tuple[Tuple[SecurityRule, ...], Optional[str]]

#: One node of every class but the named elements': an element no rule
#: names (its label is no XML name), text, comment, processing
#: instruction and attribute.
_CLASS_PROBES = tuple(
    Node(DOCUMENT_ID, kind, "\0")
    for kind in (
        NodeKind.ELEMENT,
        NodeKind.TEXT,
        NodeKind.COMMENT,
        NodeKind.PROCESSING_INSTRUCTION,
        NodeKind.ATTRIBUTE,
    )
)
_ELEMENT = NodeKind.ELEMENT

#: A node's view status (axioms 16-17), as :meth:`PermissionTable.shown`
#: reports it: not in the view, shown, or shown with the RESTRICTED label.
HIDDEN, READABLE, POSITION_ONLY = 0, 1, 2


class _Compiled:
    """One fingerprint's rules: the label automaton of the fragment
    rules, whose states carry each privilege's winner, and the
    exception rules, latest first per privilege."""

    def __init__(
        self,
        rules: Tuple[SecurityRule, ...],
        engine: XPathEngine,
        tokens: Callable[[str], Optional[tuple]],
    ) -> None:
        self.rules = rules
        self.accepts = tuple(rule.effect == ACCEPT for rule in rules)
        paths: Dict[str, int] = {}
        owners: List[List[int]] = []  # path index -> its rules
        exceptions: Dict[Privilege, List[int]] = {}
        for index, rule in enumerate(rules):
            path_tokens = tokens(rule.path)
            if path_tokens is None:
                exceptions.setdefault(rule.privilege, []).insert(0, index)
                continue
            if rule.path not in paths:
                paths[rule.path] = len(owners)
                owners.append([])
            owners[paths[rule.path]].append(index)
        self.exceptions = exceptions
        #: Exception paths the view consults (axioms 15-17 read only
        #: read and position).
        self.view_paths = frozenset(
            rules[index].path
            for privilege in (Privilege.READ, Privilege.POSITION)
            for index in exceptions.get(privilege, ())
        )
        self.labels = LabelAutomaton(
            [tokens(path) for path in paths],
            engine.star_matches_text,
            _decider(rules, self.accepts, owners),
        )
        # State -> the labels of the only children its node can show.
        self._named: Dict[State, Optional[Tuple[str, ...]]] = {}

    def named_children(
        self, state: State, login: Optional[str]
    ) -> Optional[Tuple[str, ...]]:
        """The labels of the only children a node in ``state`` can show
        for ``login`` -- elements no rule names, and text, comment,
        processing instruction and attribute children all stay hidden
        -- or None when a child of some other class may be shown (or a
        read or position exception rule may select any child)."""
        if state not in self._named:
            named: Optional[Tuple[str, ...]] = None
            if not self.view_paths and all(
                self.labels.step(state, probe).decision[1] == HIDDEN
                for probe in _CLASS_PROBES
            ):
                named = tuple(
                    label
                    for label in sorted(self.labels.names)
                    if self._shows(state, label, None)
                )
            self._named[state] = named
        named = self._named[state]
        if named is None or login is None or not self.labels.binds_user:
            return named
        # The login's own elements are a class apart.
        named = tuple(label for label in named if label != login)
        return named + (login,) if self._shows(state, login, login) else named

    def _shows(self, state: State, label: str, login: Optional[str]) -> bool:
        child = self.labels.step(state, Node(DOCUMENT_ID, _ELEMENT, label), login)
        return child.decision[1] != HIDDEN


def _decider(
    rules: Tuple[SecurityRule, ...], accepts: Tuple[bool, ...], owners: List[List[int]]
) -> Callable[[FrozenSet[int]], tuple]:
    """A state's decision from its accepting paths: each privilege's
    winning fragment rule (the latest that accepts), and the view
    status it implies.  A closure, not a method, so an automaton holds
    no reference back to its owner (which lives only while used)."""

    def decide(accepting: FrozenSet[int]) -> tuple:
        winners: Dict[Privilege, int] = {}
        for path in accepting:
            for index in owners[path]:
                privilege = rules[index].privilege
                if winners.get(privilege, -1) < index:
                    winners[privilege] = index
        read = winners.get(Privilege.READ, -1)
        position = winners.get(Privilege.POSITION, -1)
        if read >= 0 and accepts[read]:
            shown = READABLE
        elif position >= 0 and accepts[position]:
            shown = POSITION_ONLY
        else:
            shown = HIDDEN
        return winners, shown

    return decide


class PermissionTable:
    """The ``perm`` facts for one user against one document generation,
    decided on demand.

    Attributes:
        user: the subject the table was derived for.
        doc: the document generation the table answers for; a node not
            in it holds nothing.
        login: the login ``*[$USER]`` steps are tested against (the
            fingerprint's; None when no rule path reads ``$USER``).
    """

    __slots__ = ("user", "doc", "login", "_compiled", "_selections")

    def __init__(
        self,
        user: str,
        doc: XMLDocument,
        login: Optional[str],
        compiled: _Compiled,
        selections: Dict[str, FrozenSet[NodeId]],
    ) -> None:
        self.user = user
        self.doc = doc
        self.login = login
        self._compiled = compiled
        self._selections = selections

    # ------------------------------------------------------------------
    # one node
    # ------------------------------------------------------------------
    def state(self, nid: NodeId) -> Optional[State]:
        """The automaton state of ``nid`` (None when not in :attr:`doc`)."""
        return self._compiled.labels.state_of(self.doc, nid, self.login)

    @property
    def automaton(self) -> LabelAutomaton:
        """The rules' label automaton (shared by every generation's
        table and every login); step it with :attr:`login`."""
        return self._compiled.labels

    def named_children(self, state: State) -> Optional[Tuple[str, ...]]:
        """See :meth:`_Compiled.named_children`."""
        return self._compiled.named_children(state, self.login)

    @property
    def decided_by_state(self) -> bool:
        """True when a node's view status is its state's alone (no read
        or position exception rule): :meth:`shown` is then
        ``state.decision[1]``."""
        return not self._compiled.view_paths

    def _winner(self, nid: NodeId, privilege: Privilege, state: State) -> int:
        """The deciding rule's index, or -1: the state's winner unless
        a later exception rule selects ``nid``."""
        winner = state.decision[0].get(privilege, -1)
        for index in self._compiled.exceptions.get(privilege, ()):
            if index < winner:
                break
            if nid in self._selections[self._compiled.rules[index].path]:
                return index
        return winner

    def _grants(self, nid: NodeId, privilege: Privilege, state: State) -> bool:
        """Axiom 14: the deciding rule exists and accepts."""
        winner = self._winner(nid, privilege, state)
        return winner >= 0 and self._compiled.accepts[winner]

    def holds(self, nid: NodeId, privilege: Privilege) -> bool:
        """The ``perm(user, nid, privilege)`` fact."""
        state = self.state(nid)
        return state is not None and self._grants(nid, privilege, state)

    def explain(self, nid: NodeId, privilege: Privilege) -> Optional[SecurityRule]:
        """The rule that decided this (privilege, node), if any matched."""
        state = self.state(nid)
        if state is None:
            return None
        winner = self._winner(nid, privilege, state)
        return self._compiled.rules[winner] if winner >= 0 else None

    def shown(self, nid: NodeId, state: State) -> int:
        """``nid``'s view status (:data:`HIDDEN`, :data:`READABLE` or
        :data:`POSITION_ONLY`) from its state: ``read`` shows it, else
        ``position`` shows it RESTRICTED (axioms 16-17)."""
        if self.decided_by_state:
            return state.decision[1]
        if self._grants(nid, Privilege.READ, state):
            return READABLE
        if self._grants(nid, Privilege.POSITION, state):
            return POSITION_ONLY
        return HIDDEN

    # ------------------------------------------------------------------
    # whole generation (the xslt oracle and the formal layer)
    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[Tuple[NodeId, State]]:
        """Every node of :attr:`doc` with its state, top-down."""
        doc, step, login = self.doc, self._compiled.labels.step, self.login
        stack = [(DOCUMENT_ID, self._compiled.labels.start)]
        while stack:
            nid, state = stack.pop()
            yield nid, state
            for kid in doc.children(nid) + doc.attributes(nid):
                stack.append((kid, step(state, doc.node(kid), login)))

    def nodes_with(self, privilege: Privilege) -> FrozenSet[NodeId]:
        """All nodes on which the user holds ``privilege``."""
        return frozenset(
            nid for nid, state in self._walk() if self._grants(nid, privilege, state)
        )

    def facts(self) -> Set[Tuple[str, NodeId, str]]:
        """The ``perm(s, n, r)`` facts as tuples, for the formal layer."""
        return {
            (self.user, nid, privilege.value)
            for privilege in Privilege
            for nid in self.nodes_with(privilege)
        }

    # ------------------------------------------------------------------
    # sharing and commits
    # ------------------------------------------------------------------
    def for_user(self, user: str) -> "PermissionTable":
        """A per-user facade over this table (O(1)): two users with the
        same permission fingerprint hold identical ``perm`` facts; only
        the ``user`` field differs."""
        if user == self.user:
            return self
        return PermissionTable(
            user, self.doc, self.login, self._compiled, self._selections
        )

    def exception_delta(self, other: "PermissionTable") -> Set[NodeId]:
        """Nodes whose membership in a read or position exception
        selection differs from ``other``'s (the same fingerprint on an
        older generation): beside a commit's touched roots, the only
        nodes whose view status can change."""
        out: Set[NodeId] = set()
        if other._selections is not self._selections:
            for path in self._compiled.view_paths:
                out |= self._selections[path] ^ other._selections[path]
        return out


class PermissionResolver:
    """Compiles fingerprints and binds them to document generations.

    Args:
        engine: the XPath engine that evaluates exception rule paths on
            the source document (axiom 14 evaluates ``xpath`` on the
            source theory ``db``); the automaton follows its
            paper-compat readings (``lone_variable_name_test`` for the
            paper's ``[$USER]`` shorthand, ``star_matches_text``).
    """

    def __init__(self, engine: Optional[XPathEngine] = None) -> None:
        self._engine = engine if engine is not None else XPathEngine(
            lone_variable_name_test=True, star_matches_text=True
        )
        # Rule path -> its fragment tokens, or None for an exception.
        self._tokens: Dict[str, Optional[tuple]] = {}
        # Applicable rules -> their automaton, shared by every login
        # (``*[$USER]`` is a node class, not a label), while a table (a
        # cache entry, a view, a caller) uses it.
        self._compiled: "weakref.WeakValueDictionary[Tuple[SecurityRule, ...], _Compiled]" = (
            weakref.WeakValueDictionary()
        )
        self._lock = threading.Lock()
        #: Decision counters; read via ``SecureXMLDatabase.stats()``.
        self.stats: Dict[str, int] = {
            "full_resolves": 0,  # rule sequences compiled to an automaton
            "path_evals": 0,  # exception rule paths evaluated
            "conservative_commits": 0,  # commits without a usable change-set
        }

    @property
    def engine(self) -> XPathEngine:
        return self._engine

    def fingerprint(self, policy: Policy, user: str) -> Fingerprint:
        """The permission fingerprint of ``user`` under ``policy``.

        Two (policy, user) pairs with equal fingerprints provably derive
        equal tables: the fingerprint is the exact rule sequence axiom
        14 decides over, and the user login is included only when some
        applicable path binds ``$USER`` (otherwise the derivation never
        reads it).  Content-based, so policy mutations automatically
        change the fingerprint of affected users.
        """
        rules = policy.applicable_rules(user)
        user_dependent = any("$" in rule.path for rule in rules)
        return (rules, user if user_dependent else None)

    def note_commit(self, old_doc, new_doc, changes=None) -> bool:
        """Whether a commit ``old_doc -> new_doc`` published a usable
        change-set: one that is present and not conservative, so a held
        view can be patched from it.  The automata need nothing from a
        commit."""
        usable = changes is not None and not changes.conservative
        if not usable:
            self.stats["conservative_commits"] += 1
        return usable

    def resolve(self, doc: XMLDocument, policy: Policy, user: str) -> PermissionTable:
        """The ``perm(user, n, r)`` facts of ``doc``, as a table.

        Args:
            doc: the source document (theory ``db``).
            policy: the security policy (set ``P``).
            user: the subject whose privileges are derived; ``$USER``
                binds to this login in rule paths.

        Raises:
            repro.security.subjects.SubjectError: if ``user`` is not a
                declared subject.
        """
        return self.derive(doc, self.fingerprint(policy, user), user)

    def derive(self, doc: XMLDocument, fp: Fingerprint, user: str) -> PermissionTable:
        """``user``'s table for fingerprint ``fp`` on ``doc``: the
        rules' automaton, compiled unless a live table already uses it,
        bound to ``doc`` and the fingerprint's login."""
        rules, login = fp
        with self._lock:
            compiled = self._compiled.get(rules)
            if compiled is None:
                compiled = self._compiled[rules] = _Compiled(
                    rules, self._engine, self._fragment
                )
                self.stats["full_resolves"] += 1
        selections = self._select(compiled, doc, user)
        return PermissionTable(user, doc, login, compiled, selections)

    def rebind(self, table: PermissionTable, doc: XMLDocument) -> PermissionTable:
        """``table``'s automaton bound to ``doc`` (a later generation):
        O(1) unless the fingerprint has exception rules, whose paths
        are evaluated again."""
        compiled = table._compiled
        selections = self._select(compiled, doc, table.user)
        return PermissionTable(table.user, doc, table.login, compiled, selections)

    def _fragment(self, path: str) -> Optional[tuple]:
        if path not in self._tokens:
            self._tokens[path] = fragment_tokens(
                path, self._engine.lone_variable_name_test
            )
        return self._tokens[path]

    def _select(
        self, compiled: _Compiled, doc: XMLDocument, user: str
    ) -> Dict[str, FrozenSet[NodeId]]:
        """Each exception rule path's selection on ``doc``."""
        selections: Dict[str, FrozenSet[NodeId]] = {}
        for indices in compiled.exceptions.values():
            for index in indices:
                path = compiled.rules[index].path
                if path not in selections:
                    self.stats["path_evals"] += 1
                    selections[path] = frozenset(
                        self._engine.select(doc, path, variables={"USER": user})
                    )
        return selections
