"""The one per-fingerprint cache: permission tables and views (the
serving layer).

The seed treated view materialization as strictly per-session state:
every session rebuilt its own pruned copy of the document (axioms
15-17) after every commit, even though (a) most users share a handful
of role-shaped permission tables, and (b) most commits touch a tiny
region of the tree.  At serving scale that is the dominant cost --
O(sessions x |doc|) per commit.

:class:`ViewCache` removes both factors, for axiom 14's table and for
the view derived from it, in one entry per permission fingerprint:

**Sharing.** Entries are keyed by the permission fingerprint
(:meth:`~repro.security.perm.PermissionResolver.fingerprint`): any two
users whose applicable rules are identical and ``$USER``-free provably
hold the same table and see byte-identical views, so one derivation
serves them all.  Each caller receives a cheap per-user *facade* (same
underlying document and permission automaton, its own ``user``
field) -- tables and views are treated as immutable once published,
which the rest of the codebase already assumes (updates replace
documents, never mutate views).

**One staleness rule.** An entry holds one document generation (the
document object, its mutation stamp and the database version), the
table bound to it, and the view, or None until one is asked for.  It
is *current* when it was derived from the installed document at its
present stamp.  It is *behind* when the change log still holds every
change-set since its version, none conservative, and their mutation
stamps chain from the entry's to the installed document's.  The table
is then rebound to the installed generation
(:meth:`PermissionResolver.rebind`: the fingerprint's automaton reads
no document, so only exception rule paths are evaluated again), and a
held view is patched on the dirty regions -- the composed change-set's
touched roots plus the nodes whose membership in a read or position
exception selection changed -- and only those subtrees are re-grown
(the rest of the view document is carried).  Outside a touched
subtree no node's root-to-node chain changed, so no automaton decision
did.  Anything else -- a missing or conservative change-set, an entry
older than the log, a document edited in place -- binds the table and
builds the view from scratch: patching is an optimization, never a
correctness requirement; the differential property suite pins patched
== from-scratch.

Hit/patch/build decisions are counted in :attr:`ViewCache.stats` and
surfaced through ``SecureXMLDatabase.stats()``.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId, document_order_key
from ..xupdate.changeset import ChangeSet
from .perm import Fingerprint, PermissionTable
from .view import View, ViewBuilder, grow

__all__ = ["CHANGE_LOG_SIZE", "VIEW_CACHE_SIZE", "ViewCache"]

logger = logging.getLogger("repro.security.viewcache")

#: Cached fingerprints (LRU-evicted): each entry holds one table and at
#: most one view.
VIEW_CACHE_SIZE = 128

#: Commits of change-set history kept; an entry older than the log
#: cannot be advanced and is derived again.
CHANGE_LOG_SIZE = 64


@dataclass
class _Entry:
    """One fingerprint's table and view, pinned to one document
    generation."""

    doc: XMLDocument
    stamp: int
    version: int
    table: PermissionTable
    view: Optional[View] = None


class ViewCache:
    """Permission tables and views shared across sessions and carried
    across commits: at most :data:`VIEW_CACHE_SIZE` fingerprints,
    advanced from the last :data:`CHANGE_LOG_SIZE` commits'
    change-sets."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Fingerprint, _Entry]" = OrderedDict()
        # version -> (usable change-set or None, the replaced document's
        # stamp at commit, the installed document's stamp at commit).
        self._log: "OrderedDict[int, Tuple[Optional[ChangeSet], int, int]]" = (
            OrderedDict()
        )
        # Serving happens from many reader threads at once and cache
        # bookkeeping (LRU moves, entry replacement) is not atomic, so
        # the whole serve/commit surface is one critical section.
        self._lock = threading.Lock()
        #: Decision counters; read via ``SecureXMLDatabase.stats()``.
        self.stats: Dict[str, int] = {
            "hits": 0,  # views served at the current generation, no work
            "incremental_patches": 0,  # held views patched across commits
            "full_builds": 0,  # axioms 15-17 from scratch
            "degraded_rebuilds": 0,  # patch raised; entry discarded, rebuilt
            "table_cache_hits": 0,  # tables served at the current generation
        }

    # ------------------------------------------------------------------
    # commit feed
    # ------------------------------------------------------------------
    def note_commit(
        self, database, old_doc: XMLDocument, changes: Optional[ChangeSet]
    ) -> None:
        """Record the commit that installed ``database.document`` over
        ``old_doc`` as ``database.version`` (``changes`` None when the
        committer did not track one); the resolver says whether the
        change-set is usable."""
        with self._lock:
            doc, version = database.document, database.version
            usable = database.resolver.note_commit(old_doc, doc, changes)
            self._log[version] = (
                changes if usable else None,
                old_doc.mutation_stamp,
                doc.mutation_stamp,
            )
            while len(self._log) > CHANGE_LOG_SIZE:
                self._log.popitem(last=False)

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
            entry, current = self._entry(database, user)
            if entry.view is None:
                entry.view = ViewBuilder(database.resolver).build(
                    entry.doc,
                    database.policy,
                    user,
                    permissions=entry.table.for_user(user),
                )
                self.stats["full_builds"] += 1
            elif current:
                self.stats["hits"] += 1
            return self._facade(entry.view, user)

    def table_for(self, database, user: str) -> PermissionTable:
        """The current permission table for ``user`` (axiom 14), from
        the same entry as :meth:`view_for`; builds no view."""
        with self._lock:
            entry, current = self._entry(database, user)
            if current:
                self.stats["table_cache_hits"] += 1
            return entry.table.for_user(user)

    def _entry(self, database, user: str) -> Tuple[_Entry, bool]:
        """The user's entry brought to the installed generation, and
        whether it already was there."""
        resolver = database.resolver
        # Version before document: a commit installs the document first,
        # so an entry never claims a newer version than its document.
        version = database.version
        doc = database.document
        fp = resolver.fingerprint(database.policy, user)
        entry = self._entries.get(fp)
        current = (
            entry is not None
            and entry.doc is doc
            and entry.stamp == doc.mutation_stamp
        )
        if entry is not None and not current:
            entry = self._advance(database, entry, doc, version)
        if entry is None:
            table = resolver.derive(doc, fp, user)
            entry = _Entry(doc, doc.mutation_stamp, version, table)
        self._entries[fp] = entry
        self._entries.move_to_end(fp)
        while len(self._entries) > VIEW_CACHE_SIZE:
            self._entries.popitem(last=False)
        return entry, current

    def _advance(
        self, database, entry: _Entry, doc: XMLDocument, version: int
    ) -> Optional[_Entry]:
        """``entry`` carried onto ``doc`` (at ``version``) by the
        change-sets logged since it was derived, or None when it must be
        derived from scratch: a step is missing or conservative, or the
        stamps do not chain (a document was edited in place outside a
        commit)."""
        if entry.version >= version:
            return None
        steps: List[ChangeSet] = []
        stamp = entry.stamp
        for v in range(entry.version + 1, version + 1):
            step = self._log.get(v)
            if step is None or step[0] is None or step[1] != stamp:
                return None
            steps.append(step[0])
            stamp = step[2]
        if stamp != doc.mutation_stamp:
            return None
        changes = ChangeSet.merge_all(steps)
        # A patch that raises must not leave a half-patched entry
        # behind: discard it, count the degradation, and let the caller
        # re-derive from scratch.
        try:
            table = database.resolver.rebind(entry.table, doc)
            view = entry.view
            if view is not None:
                view = self._patch(view, doc, database.policy, table, changes)
                self.stats["incremental_patches"] += 1
        except Exception:
            self.stats["degraded_rebuilds"] += 1
            logger.exception(
                "incremental patch failed; discarding entry and rebuilding"
            )
            return None
        return _Entry(doc, doc.mutation_stamp, version, table, view)

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
        membership in a read or position exception selection changed
        (a predicate may select differently after the commit).
        Everything outside those regions satisfies axioms 15-17
        verbatim from the old view: its source node and its
        root-to-node chain are unchanged, so are its automaton state
        and its exception memberships, and so are its ancestors'.
        """
        dirty: Set[NodeId] = set(changes.touched_roots())
        dirty |= table.exception_delta(old_view.permissions)
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
            permissions=table.for_user(old_view.user),
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
