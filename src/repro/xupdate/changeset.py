"""Change-sets: the delta an update publishes alongside ``dbnew``.

The paper's semantics replaces the whole theory on every update, and the
seed implementation mirrored that operationally: each commit bumped the
database version and every cached artifact (rule-path selections,
permission tables, materialized views) was rebuilt from scratch.  That
is O(users x rules x |doc|) per commit -- avoidably so, because almost
every real update touches a tiny region of the tree (Mahfoud & Imine
2012 localize view maintenance to updated regions; Cheney 2013 rules
out most rule/update interactions statically).

A :class:`ChangeSet` is the structural summary of one update (or one
whole script) that makes that localization possible:

- ``added`` / ``removed`` -- roots of inserted / deleted subtrees;
- ``relabelled`` -- nodes whose label changed in place (a value edit
  such as ``xupdate:update`` relabels the text child it rewrites).

Only roots are recorded, so recording costs O(1) per affected node
however large an inserted or deleted subtree is; a consumer that needs
the nodes below a root walks the generation that holds them.

Its one consumer is :class:`~repro.security.viewcache.ViewCache`: it
logs each commit's change-set and patches each cached view on the
touched roots of the change-sets composed (:meth:`ChangeSet.merge_all`)
since the entry was derived -- outside those subtrees no node's
root-to-node label chain changed, so no permission automaton decision
did (:mod:`repro.security.perm`).  A missing or :attr:`conservative`
change-set means "anything may have changed" and falls back to full
re-derivation, so producing a change-set is always an optimization,
never a correctness requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

from ..xmltree.labels import NodeId

__all__ = ["ChangeSet"]


@dataclass
class ChangeSet:
    """The structural delta of one update, script, or commit.

    Attributes:
        added: roots of freshly inserted subtrees.
        removed: roots of deleted subtrees.
        relabelled: nodes whose label changed in place.
        conservative: True when the extent of the change is unknown;
            consumers must treat the whole document as touched.
    """

    added: Set[NodeId] = field(default_factory=set)
    removed: Set[NodeId] = field(default_factory=set)
    relabelled: Set[NodeId] = field(default_factory=set)
    conservative: bool = False

    @classmethod
    def unknown(cls) -> "ChangeSet":
        """A conservative change-set: "assume everything changed"."""
        return cls(conservative=True)

    def __bool__(self) -> bool:
        """True when the change-set records any change at all."""
        return bool(
            self.conservative or self.added or self.removed or self.relabelled
        )

    def touched_roots(self) -> Set[NodeId]:
        """Roots of every region whose view/selection state may differ."""
        return self.added | self.removed | self.relabelled

    # ------------------------------------------------------------------
    # recording helpers (called by the executors)
    # ------------------------------------------------------------------
    def note_added(self, root: NodeId) -> None:
        """Record the root of an inserted subtree."""
        self.added.add(root)

    def note_removed(self, root: NodeId) -> None:
        """Record the root of a deleted subtree."""
        self.removed.add(root)

    def note_relabelled(self, nid: NodeId) -> None:
        """Record an in-place relabel (rename / update-content)."""
        self.relabelled.add(nid)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def merge(self, other: "ChangeSet") -> "ChangeSet":
        """The composite change-set of this update followed by ``other``.

        Composition is set union: a root added then removed appears in
        both sets, which consumers resolve by checking presence in the
        final document (a patch of a region that no longer exists is a
        removal).
        """
        return ChangeSet(
            added=self.added | other.added,
            removed=self.removed | other.removed,
            relabelled=self.relabelled | other.relabelled,
            conservative=self.conservative or other.conservative,
        )

    @classmethod
    def merge_all(cls, changesets: Iterable["ChangeSet"]) -> "ChangeSet":
        """Fold a sequence of change-sets into one composite."""
        out = cls()
        for cs in changesets:
            out = out.merge(cs)
        return out
