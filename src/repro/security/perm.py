"""Conflict resolution: deriving ``perm(s, n, r)`` (paper axiom 14).

Axiom 14 reads: subject ``s`` definitely holds privilege ``r`` on node
``n`` iff some accept rule (for a subject s' with ``isa(s, s')``, whose
path addresses ``n``) has **no later deny rule** covering the same
subject/privilege/node.  With unique priorities this is exactly
"the latest matching rule wins; no matching rule means no privilege"
(closed-world assumption) -- which is how the resolver computes it: rules
are replayed in priority order and each one overwrites the effect on the
nodes its path selects.

The ``$USER`` variable in rule paths is bound to the login of the user
whose permissions are being derived, supporting the paper's
"patients may access their own medical file" rules 4-5.

Incremental maintenance
-----------------------

The seed re-derived every table from scratch after every commit: each
commit produces a fresh document object, so the per-document path cache
went cold and every rule path was re-evaluated over the whole tree for
every user -- O(users x rules x |doc|) per commit.  This resolver
instead *advances* its caches across commits when the committer
publishes a :class:`~repro.xupdate.changeset.ChangeSet`
(:meth:`PermissionResolver.note_commit`):

- a cached rule-path selection whose label skeleton is disjoint from
  the commit's touched labels is **carried** verbatim (the skeleton
  test of :mod:`repro.xpath.skeleton` proves it unchanged);
- a selection for a *patchable* path is **patched** locally: entries
  under removed roots are dropped and nodes inside touched regions are
  re-matched by their label chain -- no whole-document evaluation;
- anything else is dropped and lazily re-evaluated on next use
  (conservative fallback; correctness never depends on the delta).

A *table* is advanced across the same commits by patching, not
re-resolving (the paper's ``dbnew = db +- delta``, formulae (2)-(9)):
:meth:`PermissionResolver.patch_table` takes a table, the per-rule
selections it was replayed from and the change-set since, every
selection contributes the nodes whose membership changed (none when
carried, the touched-region diff when patched, old vs new when
re-evaluated), and axiom 14 is replayed on those *dirty* nodes only.
The full :meth:`PermissionResolver.resolve` is the same replay with
every selected node dirty.  A patched table never mutates what the old
one shares -- served views and :meth:`PermissionTable.for_user` facades
hold its dictionaries -- so a privilege's dict and set are copied
(C-level, no rehash) only when its decisions change, and a commit that
changes no decision carries the *same* table object.  The resolver
keeps no tables: :class:`~repro.security.viewcache.ViewCache` holds
each fingerprint's table beside its view and decides when to patch.

Whole permission tables are shared across users through
:meth:`fingerprint`: any two users whose applicable rule lists are
identical and ``$USER``-free provably derive the same table, so the
common role-based policy resolves once per role, not once per user.
All decisions are counted in :attr:`PermissionResolver.stats`
(surfaced through ``SecureXMLDatabase.stats()``).

:func:`_decide` is the only routine that decides axiom 14: views,
write checks, ``Session.can()`` and ``explain`` all read a table it
derived (or patched); the Datalog transcription in :mod:`repro.formal`
is its test oracle.
"""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId, order_index, subtree_span
from ..xpath.engine import XPathEngine
from ..xpath.skeleton import PathSkeleton, analyze_path
from .policy import ACCEPT, Policy, SecurityRule
from .privileges import Privilege

__all__ = ["PermissionTable", "PermissionResolver"]

logger = logging.getLogger("repro.security.perm")


@dataclass
class PermissionTable:
    """The derived ``perm`` facts for one user against one document.

    Attributes:
        user: the subject the table was derived for.
        granted: privilege -> set of node ids on which it is held.
        winning_rule: privilege -> node -> the rule that decided the
            outcome; read only by :meth:`explain` (the
            policy-explanation API).
    """

    user: str
    granted: Dict[Privilege, Set[NodeId]] = field(default_factory=dict)
    winning_rule: Dict[Privilege, Dict[NodeId, SecurityRule]] = field(
        default_factory=dict
    )
    # Set on a table patched across a commit: the ``granted`` dict of
    # the table it was patched from, and the nodes whose read/position
    # status differs from it (see read_position_delta).
    _patched_from: Optional[
        Tuple[Dict[Privilege, Set[NodeId]], FrozenSet[NodeId]]
    ] = field(default=None, repr=False, compare=False)

    def holds(self, nid: NodeId, privilege: Privilege) -> bool:
        """The ``perm(user, nid, privilege)`` fact."""
        return nid in self.granted.get(privilege, ())

    def nodes_with(self, privilege: Privilege) -> FrozenSet[NodeId]:
        """All nodes on which the user holds ``privilege``."""
        return frozenset(self.granted.get(privilege, ()))

    def explain(self, nid: NodeId, privilege: Privilege) -> Optional[SecurityRule]:
        """The rule that decided this (privilege, node), if any matched."""
        return self.winning_rule.get(privilege, {}).get(nid)

    def facts(self) -> Set[Tuple[str, NodeId, str]]:
        """The ``perm(s, n, r)`` facts as tuples, for the formal layer."""
        return {
            (self.user, nid, privilege.value)
            for privilege, nodes in self.granted.items()
            for nid in nodes
        }

    def for_user(self, user: str) -> "PermissionTable":
        """A per-user facade over this table's (shared, read-only) data.

        Two users with the same permission fingerprint hold identical
        ``perm`` facts; only the ``user`` field differs.  The facade
        shares the underlying dictionaries, so it costs O(1).
        """
        if user == self.user:
            return self
        return PermissionTable(
            user=user,
            granted=self.granted,
            winning_rule=self.winning_rule,
            _patched_from=self._patched_from,
        )

    def read_position_delta(self, other: "PermissionTable") -> Set[NodeId]:
        """Nodes whose read/position status differs between two tables.

        These are exactly the nodes whose *view* membership or label
        masking can change (axioms 15-17 consult only read/position),
        so the view cache re-prunes only these regions.  Against the
        table this one was patched from, that is the patch's own record
        -- no whole-set comparison.
        """
        if other is self or (
            other.granted is self.granted and other.winning_rule is self.winning_rule
        ):
            return set()
        if self._patched_from is not None and self._patched_from[0] is other.granted:
            return set(self._patched_from[1])
        dirty: Set[NodeId] = set()
        for privilege in _VIEW_PRIVILEGES:
            mine = self.granted.get(privilege, set())
            theirs = other.granted.get(privilege, set())
            dirty |= mine ^ theirs
        return dirty


#: A permission fingerprint: the applicable rules (in priority order)
#: plus the user login when any applicable path references $USER.
Fingerprint = Tuple[Tuple[SecurityRule, ...], Optional[str]]


#: Rule path -> its selection, in document order.
Selections = Dict[str, Tuple[NodeId, ...]]
#: Rule path -> its selection after a commit, and the nodes whose
#: membership the commit changed.
_Advanced = Dict[str, Tuple[Tuple[NodeId, ...], Collection[NodeId]]]


class PermissionResolver:
    """Derives :class:`PermissionTable` objects from a policy.

    Args:
        engine: the XPath engine used to evaluate rule paths on the
            source document (axiom 14 evaluates ``xpath`` on the source
            theory ``db``).  The engine should have the paper-compat
            ``lone_variable_name_test`` enabled if policies use the
            paper's ``[$USER]`` shorthand.
    """

    def __init__(self, engine: Optional[XPathEngine] = None) -> None:
        self._engine = engine if engine is not None else XPathEngine(
            lone_variable_name_test=True, star_matches_text=True
        )
        # Cross-user cache: a rule path that never mentions $USER
        # selects the same nodes for every user, so re-evaluating it per
        # user is pure waste (ablation E18).  Keyed weakly by document
        # and guarded by the document's mutation stamp, and maintained
        # across commits (see note_commit).
        self._path_cache: "weakref.WeakKeyDictionary[XMLDocument, Tuple[int, Dict[str, Tuple[NodeId, ...]]]]" = (
            weakref.WeakKeyDictionary()
        )
        self._skeletons: Dict[str, Optional[PathSkeleton]] = {}
        # Concurrent readers share the path cache and commit maintenance
        # rewrites it.
        self._lock = threading.Lock()
        #: Decision counters; read via ``SecureXMLDatabase.stats()``.
        self.stats: Dict[str, int] = {
            "path_evals": 0,  # engine.select calls on rule paths
            "path_cache_hits": 0,  # selections answered from cache
            "paths_carried": 0,  # selections carried across a commit
            "paths_patched": 0,  # selections patched locally
            "paths_dropped": 0,  # selections invalidated by a commit
            "tables_carried": 0,  # tables carried across a commit
            "tables_patched": 0,  # tables patched on a commit's dirty nodes
            "delta_resolves": 0,  # re-resolves with a maintained path cache
            "full_resolves": 0,  # re-resolves with no carried state
            "conservative_commits": 0,  # commits without a usable change-set
            "degraded_rebuilds": 0,  # path patches that raised; dropped
        }

    @property
    def engine(self) -> XPathEngine:
        return self._engine

    # ------------------------------------------------------------------
    # fingerprints (cross-user sharing)
    # ------------------------------------------------------------------
    def fingerprint(self, policy: Policy, user: str) -> Fingerprint:
        """The permission fingerprint of ``user`` under ``policy``.

        Two (policy, user) pairs with equal fingerprints provably derive
        equal tables: the fingerprint is the exact rule sequence axiom
        14 replays, and the user login is included only when some
        applicable path binds ``$USER`` (otherwise the derivation never
        reads it).  Content-based, so policy mutations automatically
        change the fingerprint of affected users.
        """
        rules = policy.applicable_rules(user)
        user_dependent = any("$" in rule.path for rule in rules)
        return (rules, user if user_dependent else None)

    # ------------------------------------------------------------------
    # path selection (cached)
    # ------------------------------------------------------------------
    def _select_rule_path(
        self,
        doc: XMLDocument,
        path: str,
        variables: Dict[str, str],
    ) -> Tuple[NodeId, ...]:
        """Evaluate one rule path, caching user-independent paths."""
        if "$" in path:
            self.stats["path_evals"] += 1
            return tuple(self._engine.select(doc, path, variables=variables))
        with self._lock:
            entry = self._path_cache.get(doc)
            if entry is None or entry[0] != doc.mutation_stamp:
                entry = (doc.mutation_stamp, {})
                self._path_cache[doc] = entry
            cached = entry[1].get(path)
            if cached is None:
                self.stats["path_evals"] += 1
                cached = tuple(
                    self._engine.select(doc, path, variables=variables)
                )
                entry[1][path] = cached
            else:
                self.stats["path_cache_hits"] += 1
            return cached

    def _skeleton(self, path: str) -> Optional[PathSkeleton]:
        """The (memoized) static skeleton of a rule path."""
        if path not in self._skeletons:
            self._skeletons[path] = analyze_path(path)
        return self._skeletons[path]

    def _path_stable(self, path: str, labels: Set[str]) -> bool:
        """True when a commit touching ``labels`` provably leaves the
        path's selection unchanged ($USER paths are never stable: they
        are cheap per-user evaluations, not shared state)."""
        if "$" in path:
            return False
        skeleton = self._skeleton(path)
        if skeleton is None:
            return False
        return not skeleton.may_intersect(labels)

    # ------------------------------------------------------------------
    # commit maintenance
    # ------------------------------------------------------------------
    def note_commit(
        self, old_doc, new_doc, changes=None
    ) -> Optional[_Advanced]:
        """Advance the shared path cache across a commit
        ``old_doc -> new_doc``.

        Args:
            old_doc: the document generation being replaced.
            new_doc: the freshly installed generation.
            changes: the commit's
                :class:`~repro.xupdate.changeset.ChangeSet`, or None
                when the committer did not track one.  A missing or
                conservative change-set drops the selections cached for
                ``old_doc`` (the safe fallback).

        Returns:
            The ``$USER``-free selections advanced across the commit,
            for :meth:`patch_table` to share between every table it
            patches across this one commit; None when the change-set
            is missing or conservative.
        """
        with self._lock:
            entry = self._path_cache.pop(old_doc, None)
            if changes is None or changes.conservative:
                self.stats["conservative_commits"] += 1
                if entry is not None:
                    self.stats["paths_dropped"] += len(entry[1])
                return None
            advanced: _Advanced = {}
            if entry is None or entry[0] != old_doc.mutation_stamp:
                return advanced
            labels = changes.labels
            star_text = self._engine.star_matches_text
            carried: Dict[str, Tuple[NodeId, ...]] = {}
            for path, nodes in entry[1].items():
                if self._path_stable(path, labels):
                    carried[path] = nodes
                    advanced[path] = (nodes, ())
                    self.stats["paths_carried"] += 1
                    continue
                skeleton = self._skeleton(path)
                if skeleton is not None and skeleton.patchable:
                    # A patch that raises must not leave a torn
                    # selection in the carried cache: drop the path
                    # (it re-evaluates lazily on next use) and count
                    # the degradation.
                    try:
                        advanced[path] = _patch_selection(
                            nodes, new_doc, changes, skeleton, star_text
                        )
                        carried[path] = advanced[path][0]
                        self.stats["paths_patched"] += 1
                    except Exception:
                        self.stats["paths_dropped"] += 1
                        self.stats["degraded_rebuilds"] += 1
                        logger.exception(
                            "selection patch failed for path %r; dropping "
                            "cached selection", path
                        )
                else:
                    self.stats["paths_dropped"] += 1
            self._path_cache[new_doc] = (new_doc.mutation_stamp, carried)
            return advanced

    def patch_table(
        self,
        table: PermissionTable,
        selections: Selections,
        fp: Fingerprint,
        new_doc: XMLDocument,
        changes,
        advanced: _Advanced,
    ) -> Tuple[PermissionTable, Selections]:
        """Advance a table, derived for ``fp`` and replayed from
        ``selections``, across ``changes`` onto ``new_doc``.

        Each rule path's selection is advanced -- carried, patched or
        re-evaluated -- and contributes the nodes whose membership it
        changed; axiom 14 is replayed on those only.  Removed nodes need
        no extra term: each is in the diff of every selection that held
        it (a carried selection holds none -- its skeleton would meet
        the removed labels).  A table no decision of which changed is
        carried as the same object.  ``advanced`` holds selections
        already advanced across the same ``changes`` (from
        :meth:`note_commit`) and receives the ``$USER``-free ones this
        call advances, so tables patched across one change-set share
        them.
        """
        rules, user = fp
        new_selections: Selections = {}
        moved: Dict[str, Collection[NodeId]] = {}
        for path, nodes in selections.items():
            step = advanced.get(path)
            if step is None:
                step = self._advance(path, nodes, new_doc, changes, {"USER": user})
                if "$" not in path:  # user-independent: share it
                    advanced[path] = step
            new_selections[path], moved[path] = step
        dirty: Dict[Privilege, Set[NodeId]] = {}
        for rule in rules:
            nodes = moved[rule.path]
            if nodes:
                dirty.setdefault(rule.privilege, set()).update(nodes)
        patched = _patched(table, rules, new_selections, dirty)
        self.stats["tables_carried" if patched is table else "tables_patched"] += 1
        return patched, new_selections

    def _advance(
        self,
        path: str,
        nodes: Tuple[NodeId, ...],
        new_doc: XMLDocument,
        changes,
        variables: Dict[str, str],
    ) -> Tuple[Tuple[NodeId, ...], Collection[NodeId]]:
        """One selection across a commit, with the nodes whose
        membership changed: carried (none), patched (the touched-region
        diff), or re-evaluated (old against new)."""
        if self._path_stable(path, changes.labels):
            return nodes, ()
        skeleton = self._skeleton(path)
        if "$" not in path and skeleton is not None and skeleton.patchable:
            return _patch_selection(
                nodes, new_doc, changes, skeleton, self._engine.star_matches_text
            )
        fresh = self._select_rule_path(new_doc, path, variables)
        return fresh, set(nodes).symmetric_difference(fresh)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(
        self,
        doc: XMLDocument,
        policy: Policy,
        user: str,
        privileges: Optional[Iterable[Privilege]] = None,
    ) -> PermissionTable:
        """Derive all ``perm(user, n, r)`` facts for one user.

        Args:
            doc: the source document (theory ``db``).
            policy: the security policy (set ``P``).
            user: the subject whose privileges are derived; ``$USER``
                binds to this login in rule paths.
            privileges: restrict derivation to these privileges
                (defaults to all five).

        Raises:
            repro.security.subjects.SubjectError: if ``user`` is not a
                declared subject.
        """
        return self._resolve(doc, policy.applicable_rules(user), user, privileges)[0]

    def _resolve(
        self,
        doc: XMLDocument,
        rules: Sequence[SecurityRule],
        user: str,
        privileges: Optional[Iterable[Privilege]] = None,
    ) -> Tuple[PermissionTable, Selections]:
        """The full replay of ``rules`` (priority order), with the
        selections it was replayed from."""
        variables = {"USER": user}
        selections: Selections = {}
        for rule in rules:
            if rule.path not in selections:
                selections[rule.path] = self._select_rule_path(
                    doc, rule.path, variables
                )
        table = PermissionTable(user=user)
        wanted = tuple(privileges) if privileges is not None else tuple(Privilege)
        for privilege in wanted:
            outcome = _decide(rules, privilege, selections)
            table.winning_rule[privilege] = outcome
            table.granted[privilege] = {
                nid for nid, rule in outcome.items() if rule.effect == ACCEPT
            }
        return table, selections

    def derive(
        self, doc: XMLDocument, fp: Fingerprint, user: str
    ) -> Tuple[PermissionTable, Selections]:
        """The full replay for ``user``'s fingerprint ``fp``, with the
        selections :meth:`patch_table` later advances; counted as a
        ``delta_resolve`` when the path cache was carried onto ``doc``
        by a commit, a ``full_resolve`` otherwise."""
        with self._lock:
            entry = self._path_cache.get(doc)
            maintained = entry is not None and entry[0] == doc.mutation_stamp
        self.stats["delta_resolves" if maintained else "full_resolves"] += 1
        return self._resolve(doc, fp[0], user)


#: The privileges axioms 15-17 consult (view membership and masking).
_VIEW_PRIVILEGES = (Privilege.READ, Privilege.POSITION)


def _selects(selection: Sequence[NodeId], nid: NodeId) -> bool:
    """Membership in a document-ordered selection, by bisect."""
    at = order_index(selection, nid)
    return at < len(selection) and selection[at] == nid


def _decide(
    rules: Sequence[SecurityRule],
    privilege: Privilege,
    selections: Selections,
    dirty: Optional[Collection[NodeId]] = None,
) -> Dict[NodeId, SecurityRule]:
    """Axiom 14 for one privilege: each node's winning rule.

    Rules are replayed in priority order and each overwrites the
    outcome on the nodes its path selects -- the operational form of
    "no subsequent deny".  ``dirty`` restricts the replay to those
    nodes; None means every selected node (the full resolve).  A node
    no rule selects has no entry (closed world).
    """
    outcome: Dict[NodeId, SecurityRule] = {}
    for rule in rules:
        if rule.privilege is not privilege:
            continue
        selected = selections[rule.path]
        if dirty is not None:
            selected = [nid for nid in dirty if _selects(selected, nid)]
        outcome.update(dict.fromkeys(selected, rule))
    return outcome


def _patched(
    table: PermissionTable,
    rules: Sequence[SecurityRule],
    selections: Selections,
    dirty: Mapping[Privilege, Set[NodeId]],
) -> PermissionTable:
    """``table`` with axiom 14 replayed on each privilege's ``dirty``
    nodes against the advanced ``selections``.

    Nothing ``table`` holds is mutated: a privilege whose decisions
    change gets copies of its dict and set, the others stay shared, and
    with no change at all ``table`` itself is returned.
    """
    granted, winning = table.granted, table.winning_rule
    new_granted: Optional[Dict[Privilege, Set[NodeId]]] = None
    new_winning: Dict[Privilege, Dict[NodeId, SecurityRule]] = {}
    flipped: Set[NodeId] = set()
    for privilege, nodes in dirty.items():
        before = winning.get(privilege, {})
        decided = _decide(rules, privilege, selections, nodes)
        changed = [nid for nid in nodes if before.get(nid) is not decided.get(nid)]
        if not changed:
            continue
        if new_granted is None:
            new_granted, new_winning = dict(granted), dict(winning)
        outcome = new_winning[privilege] = dict(before)
        was = granted.get(privilege, set())
        now = new_granted[privilege] = set(was)
        for nid in changed:
            rule = decided.get(nid)
            if rule is None:
                del outcome[nid]
            else:
                outcome[nid] = rule
            if rule is not None and rule.effect == ACCEPT:
                now.add(nid)
            else:
                now.discard(nid)
            if privilege in _VIEW_PRIVILEGES and (nid in was) != (nid in now):
                flipped.add(nid)
    if new_granted is None:
        return table
    return PermissionTable(
        user=table.user,
        granted=new_granted,
        winning_rule=new_winning,
        _patched_from=(granted, frozenset(flipped)),
    )


def _patch_selection(
    nodes: Tuple[NodeId, ...],
    new_doc: XMLDocument,
    changes,
    skeleton: PathSkeleton,
    star_matches_text: bool,
) -> Tuple[Tuple[NodeId, ...], Set[NodeId]]:
    """Maintain one patchable path selection across a commit.

    Each touched root's subtree is cut out of the (document-ordered)
    selection as one contiguous run, then every node inside the touched
    regions is re-matched by its label chain (the
    :meth:`PathSkeleton.matches` NFA) and merged back in at its place --
    work proportional to the updated regions, never the document; the
    rest of the selection only moves as a block.

    Returns:
        The new selection -- ``nodes`` itself when the commit left it
        alone -- and the nodes whose membership changed (cut and not
        re-matched, or re-matched and not cut).
    """
    regrown = changes.added | changes.relabelled
    patched = list(nodes)
    cut: Set[NodeId] = set()
    for root in regrown | changes.removed:
        lo, hi = subtree_span(patched, root)
        if lo < hi:
            cut.update(patched[lo:hi])
            del patched[lo:hi]
    candidates: Set[NodeId] = set()
    for root in regrown:
        if root in new_doc:
            candidates.update(new_doc.subtree(root))
    for nid in changes.revalued:
        if nid in new_doc:
            candidates.add(nid)
    added: Set[NodeId] = set()
    for nid in candidates:
        if skeleton.matches(new_doc, nid, star_matches_text):
            at = order_index(patched, nid)
            # A revalued node lies outside the cuts: it may still be there.
            if at == len(patched) or patched[at] != nid:
                patched.insert(at, nid)
                added.add(nid)
    moved = cut ^ added
    return (tuple(patched) if moved else nodes), moved
