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

Whole permission tables are shared across users through
:meth:`fingerprint`: any two users whose applicable rule lists are
identical and ``$USER``-free provably derive the same table, so the
common role-based policy resolves once per role, not once per user.
All decisions are counted in :attr:`PermissionResolver.stats`
(surfaced through ``SecureXMLDatabase.stats()``).
"""

from __future__ import annotations

import logging
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    Optional,
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
            user=user, granted=self.granted, winning_rule=self.winning_rule
        )

    def read_position_delta(self, other: "PermissionTable") -> Set[NodeId]:
        """Nodes whose read/position status differs between two tables.

        These are exactly the nodes whose *view* membership or label
        masking can change (axioms 15-17 consult only read/position),
        so the view cache re-prunes only these regions.
        """
        if other is self or (
            other.granted is self.granted and other.winning_rule is self.winning_rule
        ):
            return set()
        dirty: Set[NodeId] = set()
        for privilege in (Privilege.READ, Privilege.POSITION):
            mine = self.granted.get(privilege, set())
            theirs = other.granted.get(privilege, set())
            dirty |= mine ^ theirs
        return dirty


#: A permission fingerprint: the applicable rules (in priority order)
#: plus the user login when any applicable path references $USER.
Fingerprint = Tuple[Tuple[SecurityRule, ...], Optional[str]]


@dataclass
class _TableEntry:
    """One cached table, pinned to a document generation."""

    doc: XMLDocument
    stamp: int
    table: PermissionTable


class PermissionResolver:
    """Derives :class:`PermissionTable` objects from a policy.

    Args:
        engine: the XPath engine used to evaluate rule paths on the
            source document (axiom 14 evaluates ``xpath`` on the source
            theory ``db``).  The engine should have the paper-compat
            ``lone_variable_name_test`` enabled if policies use the
            paper's ``[$USER]`` shorthand.
        max_tables: bound on the shared-table cache (LRU-evicted); one
            entry per distinct permission fingerprint.
    """

    def __init__(
        self,
        engine: Optional[XPathEngine] = None,
        max_tables: int = 256,
    ) -> None:
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
        self._max_tables = max_tables
        self._tables: "OrderedDict[Fingerprint, _TableEntry]" = OrderedDict()
        self._skeletons: Dict[str, Optional[PathSkeleton]] = {}
        # Concurrent readers share these caches and commit maintenance
        # rewrites them; an RLock because resolve_cached -> resolve ->
        # _select_rule_path nests.
        self._lock = threading.RLock()
        #: Decision counters; read via ``SecureXMLDatabase.stats()``.
        self.stats: Dict[str, int] = {
            "path_evals": 0,  # engine.select calls on rule paths
            "path_cache_hits": 0,  # selections answered from cache
            "paths_carried": 0,  # selections carried across a commit
            "paths_patched": 0,  # selections patched locally
            "paths_dropped": 0,  # selections invalidated by a commit
            "table_cache_hits": 0,  # tables served from the fingerprint cache
            "tables_carried": 0,  # tables carried across a commit
            "delta_resolves": 0,  # re-resolves with a maintained path cache
            "full_resolves": 0,  # re-resolves with no carried state
            "conservative_commits": 0,  # commits without a usable change-set
            "degraded_rebuilds": 0,  # patches that raised; dropped, re-derived
            "static_decisions": 0,  # checks answered by the NFA decider
            "static_fallbacks": 0,  # checks that fell back to table lookup
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
    ):
        """Evaluate one rule path, caching user-independent paths."""
        if "$" in path:
            self.stats["path_evals"] += 1
            return self._engine.select(doc, path, variables=variables)
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
    def note_commit(self, old_doc, new_doc, changes=None) -> None:
        """Advance the caches across a commit ``old_doc -> new_doc``.

        Args:
            old_doc: the document generation being replaced.
            new_doc: the freshly installed generation.
            changes: the commit's
                :class:`~repro.xupdate.changeset.ChangeSet`, or None
                when the committer did not track one.  A missing or
                conservative change-set drops every cache bound to
                ``old_doc`` (the safe fallback).
        """
        with self._lock:
            self._note_commit_locked(old_doc, new_doc, changes)

    def _note_commit_locked(self, old_doc, new_doc, changes) -> None:
        entry = self._path_cache.pop(old_doc, None)
        if changes is None or changes.conservative:
            self.stats["conservative_commits"] += 1
            if entry is not None:
                self.stats["paths_dropped"] += len(entry[1])
            for fp in [
                fp for fp, te in self._tables.items() if te.doc is not new_doc
            ]:
                del self._tables[fp]
            return
        labels = changes.labels
        star_text = self._engine.star_matches_text
        if entry is not None and entry[0] == old_doc.mutation_stamp:
            carried: Dict[str, Tuple[NodeId, ...]] = {}
            for path, nodes in entry[1].items():
                if self._path_stable(path, labels):
                    carried[path] = nodes
                    self.stats["paths_carried"] += 1
                    continue
                skeleton = self._skeleton(path)
                if skeleton is not None and skeleton.patchable:
                    # A patch that raises must not leave a torn
                    # selection in the carried cache: drop the path
                    # (it re-evaluates lazily on next use) and count
                    # the degradation.
                    try:
                        carried[path] = _patch_selection(
                            nodes, new_doc, changes, skeleton, star_text
                        )
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
        stable_paths: Dict[str, bool] = {}
        for fp in list(self._tables):
            tentry = self._tables[fp]
            if tentry.doc is not old_doc or tentry.stamp != old_doc.mutation_stamp:
                if tentry.doc is not new_doc:
                    del self._tables[fp]  # stale generation: prune
                continue
            rules, _ = fp
            carriable = True
            for rule in rules:
                stable = stable_paths.get(rule.path)
                if stable is None:
                    stable = self._path_stable(rule.path, labels)
                    stable_paths[rule.path] = stable
                if not stable:
                    carriable = False
                    break
            if carriable:
                # No applicable path's selection changed, so axiom 14
                # replays to the identical table: carry it.
                self._tables[fp] = _TableEntry(
                    new_doc, new_doc.mutation_stamp, tentry.table
                )
                self.stats["tables_carried"] += 1
            else:
                del self._tables[fp]

    # ------------------------------------------------------------------
    # static decisions (no table, no view)
    # ------------------------------------------------------------------
    def holds_static(
        self,
        doc: XMLDocument,
        policy: Policy,
        user: str,
        nid: NodeId,
        privilege: Privilege,
    ) -> Optional[bool]:
        """Decide one ``perm`` fact by NFA membership, if eligible.

        Returns the decision when every applicable rule for this
        privilege is automata-eligible (see
        :mod:`repro.security.static`), or None when the caller must
        fall back to a resolved table.  Never materializes a view or
        evaluates a rule path over the document.
        """
        from .static import decider_for

        decider = decider_for(policy, user, self._engine.star_matches_text)
        outcome = decider.decide(doc, nid, privilege)
        if outcome is None:
            self.stats["static_fallbacks"] += 1
            return None
        self.stats["static_decisions"] += 1
        return outcome[0]

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
        table = PermissionTable(user=user)
        variables = {"USER": user}
        wanted = tuple(privileges) if privileges is not None else tuple(Privilege)
        for privilege in wanted:
            # Priority order: later rules overwrite earlier outcomes on
            # the nodes they address -- the operational form of "no
            # subsequent deny" in axiom 14.
            outcome: Dict[NodeId, SecurityRule] = {}
            for rule in policy.rules_for(user, privilege):
                selected = self._select_rule_path(doc, rule.path, variables)
                outcome.update(dict.fromkeys(selected, rule))
            table.winning_rule[privilege] = outcome
            table.granted[privilege] = {
                nid for nid, rule in outcome.items() if rule.effect == ACCEPT
            }
        return table

    def resolve_cached(
        self, doc: XMLDocument, policy: Policy, user: str
    ) -> PermissionTable:
        """Like :meth:`resolve`, but shared across users and commits.

        The table is served from the fingerprint cache when the same
        (applicable rules, document generation) pair was already
        resolved -- for any user -- and recorded for carrying by
        :meth:`note_commit` otherwise.  The returned table's ``user``
        field always names the requesting user (a shared table is
        wrapped in a per-user facade).
        """
        with self._lock:
            fingerprint = self.fingerprint(policy, user)
            entry = self._tables.get(fingerprint)
            if (
                entry is not None
                and entry.doc is doc
                and entry.stamp == doc.mutation_stamp
            ):
                self.stats["table_cache_hits"] += 1
                self._tables.move_to_end(fingerprint)
                return entry.table.for_user(user)
            path_entry = self._path_cache.get(doc)
            maintained = (
                path_entry is not None and path_entry[0] == doc.mutation_stamp
            )
            table = self.resolve(doc, policy, user)
            self.stats["delta_resolves" if maintained else "full_resolves"] += 1
            self._tables[fingerprint] = _TableEntry(doc, doc.mutation_stamp, table)
            self._tables.move_to_end(fingerprint)
            while len(self._tables) > self._max_tables:
                self._tables.popitem(last=False)
            return table


def _patch_selection(
    nodes: Tuple[NodeId, ...],
    new_doc: XMLDocument,
    changes,
    skeleton: PathSkeleton,
    star_matches_text: bool,
) -> Tuple[NodeId, ...]:
    """Maintain one patchable path selection across a commit.

    Each touched root's subtree is cut out of the (document-ordered)
    selection as one contiguous run, then every node inside the touched
    regions is re-matched by its label chain (the
    :meth:`PathSkeleton.matches` NFA) and merged back in at its place --
    work proportional to the updated regions, never the document; the
    rest of the selection only moves as a block.  Returns ``nodes``
    itself when the commit left the selection alone.
    """
    regrown = changes.added | changes.relabelled
    patched = list(nodes)
    changed = False
    for root in regrown | changes.removed:
        lo, hi = subtree_span(patched, root)
        if lo < hi:
            del patched[lo:hi]
            changed = True
    candidates: Set[NodeId] = set()
    for root in regrown:
        if root in new_doc:
            candidates.update(new_doc.subtree(root))
    for nid in changes.revalued:
        if nid in new_doc:
            candidates.add(nid)
    for nid in candidates:
        if skeleton.matches(new_doc, nid, star_matches_text):
            at = order_index(patched, nid)
            # A revalued node lies outside the cuts: it may still be there.
            if at == len(patched) or patched[at] != nid:
                patched.insert(at, nid)
                changed = True
    return tuple(patched) if changed else nodes
