"""Shared, incrementally-maintained view cache (the serving layer).

The seed treated view materialization as strictly per-session state:
every session rebuilt its own pruned copy of the document (axioms
15-17) after every commit, even though (a) most users share a handful
of role-shaped permission tables, and (b) most commits touch a tiny
region of the tree.  At serving scale that is the dominant cost --
O(sessions x |doc|) per commit.

:class:`ViewCache` removes both factors:

**Sharing.** Views are keyed by ``(version, permission fingerprint)``
(:meth:`~repro.security.perm.PermissionResolver.fingerprint`): any two
users whose applicable rules are identical and ``$USER``-free provably
see byte-identical views, so one materialization serves them all.  Each
session receives a cheap per-user *facade* (same underlying document
and permission dictionaries, its own ``user`` field) -- views are
treated as immutable once published, which the rest of the codebase
already assumes (updates replace documents, never mutate views).

**Incremental patching.** On a commit that published a usable
:class:`~repro.xupdate.changeset.ChangeSet`, a stale cached view is
*patched*: the dirty regions are the change-set's touched roots plus
any nodes whose read/position outcome differs between the old and new
permission tables, and only those subtrees are re-pruned against the
new source (the rest of the cached view document is carried).  A
missing or conservative change-set, or a cache entry too far behind the
bounded change log, falls back to the full axioms-15-17 build --
patching is an optimization, never a correctness requirement; the
differential property suite pins patched == from-scratch.

Hit/patch/build decisions are counted in :attr:`ViewCache.stats` and
surfaced through ``SecureXMLDatabase.stats()``.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId, document_order_key
from ..xupdate.changeset import ChangeSet
from .perm import Fingerprint, PermissionTable
from .view import View, ViewBuilder, grow

__all__ = ["CHANGE_LOG_SIZE", "VIEW_CACHE_SIZE", "ViewCache"]

logger = logging.getLogger("repro.security.viewcache")

#: Cached views (LRU-evicted): one entry per distinct permission
#: fingerprint per policy shape.
VIEW_CACHE_SIZE = 128

#: Commits of change-set history kept; a cached view older than the
#: log cannot be patched and is rebuilt.
CHANGE_LOG_SIZE = 64


@dataclass
class _Entry:
    """One materialized view pinned to a database version."""

    version: int
    view: View


class ViewCache:
    """Materialized views shared across sessions and carried across
    commits: at most :data:`VIEW_CACHE_SIZE` views, patched from the
    last :data:`CHANGE_LOG_SIZE` commits' change-sets."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Fingerprint, _Entry]" = OrderedDict()
        self._log: "OrderedDict[int, Optional[ChangeSet]]" = OrderedDict()
        # Serving happens from many reader threads at once and cache
        # bookkeeping (LRU moves, entry replacement) is not atomic, so
        # the whole serve/commit surface is one critical section.  An
        # RLock because a full build re-enters the resolver, which may
        # call back while this lock is held.
        self._lock = threading.RLock()
        #: Decision counters; read via ``SecureXMLDatabase.stats()``.
        self.stats: Dict[str, int] = {
            "hits": 0,  # served at the current version, no work
            "incremental_patches": 0,  # stale entry patched in place
            "full_builds": 0,  # axioms 15-17 from scratch
            "degraded_rebuilds": 0,  # patch raised; entry discarded, rebuilt
        }

    # ------------------------------------------------------------------
    # commit feed
    # ------------------------------------------------------------------
    def note_commit(self, version: int, changes: Optional[ChangeSet]) -> None:
        """Record the change-set that produced ``version`` (None when
        the committer did not track one)."""
        with self._lock:
            self._log[version] = changes
            while len(self._log) > CHANGE_LOG_SIZE:
                self._log.popitem(last=False)

    def _composed_changes(
        self, from_version: int, to_version: int
    ) -> Optional[ChangeSet]:
        """The composite change-set across ``(from_version, to_version]``,
        or None when any step is missing or conservative."""
        steps: List[ChangeSet] = []
        for v in range(from_version + 1, to_version + 1):
            cs = self._log.get(v)
            if cs is None or cs.conservative:
                return None
            steps.append(cs)
        return ChangeSet.merge_all(steps)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def view_for(self, database, user: str) -> View:
        """The current view for ``user``, shared and maintained.

        Args:
            database: the owning
                :class:`~repro.security.database.SecureXMLDatabase`.
            user: the session user; the returned view's ``user`` and
                ``permissions.user`` always name this login even when
                the materialization is shared with other users.
        """
        with self._lock:
            resolver = database.resolver
            policy = database.policy
            doc = database.document
            version = database.version
            fingerprint = resolver.fingerprint(policy, user)
            entry = self._entries.get(fingerprint)
            if entry is not None and entry.version == version:
                if entry.view.source is doc:
                    self.stats["hits"] += 1
                    self._entries.move_to_end(fingerprint)
                    return self._facade(entry.view, user)
                # Same version counter but a different document object can
                # only mean a foreign commit path; treat as stale.
                entry = None
            table = resolver.resolve_cached(doc, policy, user)
            if entry is not None and entry.version < version:
                changes = self._composed_changes(entry.version, version)
                if changes is not None:
                    # A patch that raises must not leave a half-patched
                    # entry behind: discard it, count the degradation,
                    # and re-derive from scratch below.
                    try:
                        view = self._patch(entry.view, doc, policy, table, changes)
                    except Exception:
                        self._entries.pop(fingerprint, None)
                        self.stats["degraded_rebuilds"] += 1
                        logger.exception(
                            "incremental view patch failed for %r; "
                            "discarding entry and rebuilding", user
                        )
                    else:
                        self.stats["incremental_patches"] += 1
                        self._store(fingerprint, version, view)
                        return self._facade(view, user)
            view = ViewBuilder(resolver).build(doc, policy, user, permissions=table)
            self.stats["full_builds"] += 1
            self._store(fingerprint, version, view)
            return self._facade(view, user)

    def _store(self, fingerprint: Fingerprint, version: int, view: View) -> None:
        self._entries[fingerprint] = _Entry(version, view)
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > VIEW_CACHE_SIZE:
            self._entries.popitem(last=False)

    @staticmethod
    def _facade(view: View, user: str) -> View:
        """A per-user handle on a shared materialization (O(1))."""
        if view.user == user:
            return view
        return dataclasses.replace(
            view, user=user, permissions=view.permissions.for_user(user)
        )

    # ------------------------------------------------------------------
    # incremental patch
    # ------------------------------------------------------------------
    def _patch(
        self,
        old_view: View,
        new_source: XMLDocument,
        policy,
        table: PermissionTable,
        changes: ChangeSet,
    ) -> View:
        """Re-derive only the dirty regions of a stale cached view.

        Dirty roots are (a) the change-set's touched subtree roots --
        structure or labels changed there -- and (b) every node whose
        read/position outcome differs between the old and the new
        permission table (rule paths may select differently after the
        commit).  Everything outside those regions satisfies axioms
        15-17 verbatim from the old view: its source node is unchanged
        and its selection status depends only on its own privileges and
        its ancestors' (both unchanged).
        """
        dirty: Set[NodeId] = set(changes.touched_roots())
        dirty |= table.read_position_delta(old_view.permissions)
        dirty.discard(DOCUMENT_ID)  # the document node is always selected
        roots = _minimal_roots(dirty)

        new_doc = old_view.doc.copy()
        restricted = set(old_view.restricted)
        # Drop the stale regions from the view copy, then regrow them
        # under the new table.  A root whose parent is not in the view
        # stays out: the parent is clean -- a dirty one would have
        # covered this root -- so its absence is still correct.
        for root in roots:
            if root in new_doc:
                restricted.difference_update(new_doc.subtree(root))
                new_doc.remove_subtree(root)
        restricted |= grow(new_doc, new_source, roots, table)

        # Carry label/value edits of clean, still-visible nodes: a
        # rename of a readable node inside an otherwise clean region
        # only touches that node (it *is* a touched root, so it was
        # handled above); nothing else can differ.
        return View(
            user=old_view.user,
            doc=new_doc,
            source=new_source,
            restricted=frozenset(restricted),
            permissions=table,
            policy=policy,
        )


def _minimal_roots(dirty: Set[NodeId]) -> List[NodeId]:
    """The dirty roots in document order with nested roots removed (a
    resynced subtree already covers every descendant root).  In
    document order a node's descendants follow it immediately, so only
    the last root kept can cover the next."""
    kept: List[NodeId] = []
    for nid in sorted(dirty, key=document_order_key):
        if not (kept and kept[-1].is_ancestor_of(nid)):
            kept.append(nid)
    return kept
