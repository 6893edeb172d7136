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
- ``relabelled`` / ``revalued`` -- nodes whose label / value changed
  in place;
- ``labels`` -- every label touched by the update: old and new labels
  of relabelled nodes, and the labels of *every* node inside added or
  removed subtrees.

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

from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId

__all__ = ["ChangeSet", "subtree_labels"]


def subtree_labels(doc: XMLDocument, root: NodeId) -> Set[str]:
    """Every label in the subtree of ``root`` (attributes included)."""
    return {doc.node(nid).label for nid in doc.subtree(root)}


@dataclass
class ChangeSet:
    """The structural delta of one update, script, or commit.

    Attributes:
        added: roots of freshly inserted subtrees.
        removed: roots of deleted subtrees.
        relabelled: nodes whose label changed in place.
        revalued: nodes whose value changed in place.
        labels: all labels touched (see module docstring).
        conservative: True when the extent of the change is unknown;
            consumers must treat the whole document as touched.
    """

    added: Set[NodeId] = field(default_factory=set)
    removed: Set[NodeId] = field(default_factory=set)
    relabelled: Set[NodeId] = field(default_factory=set)
    revalued: Set[NodeId] = field(default_factory=set)
    labels: Set[str] = field(default_factory=set)
    conservative: bool = False

    @classmethod
    def unknown(cls) -> "ChangeSet":
        """A conservative change-set: "assume everything changed"."""
        return cls(conservative=True)

    def __bool__(self) -> bool:
        """True when the change-set records any change at all."""
        return bool(
            self.conservative
            or self.added
            or self.removed
            or self.relabelled
            or self.revalued
        )

    def touched_roots(self) -> Set[NodeId]:
        """Roots of every region whose view/selection state may differ."""
        return self.added | self.removed | self.relabelled | self.revalued

    # ------------------------------------------------------------------
    # recording helpers (called by the executors)
    # ------------------------------------------------------------------
    def note_added(self, doc: XMLDocument, root: NodeId) -> None:
        """Record an inserted subtree (``doc`` already contains it)."""
        self.added.add(root)
        self.labels |= subtree_labels(doc, root)

    def note_removed(self, doc: XMLDocument, root: NodeId) -> None:
        """Record a removal; call *before* the subtree is deleted."""
        self.removed.add(root)
        self.labels |= subtree_labels(doc, root)

    def note_relabelled(self, nid: NodeId, old: str, new: str) -> None:
        """Record an in-place relabel (rename / update-content)."""
        self.relabelled.add(nid)
        self.labels.add(old)
        self.labels.add(new)

    def note_revalued(self, nid: NodeId, label: str) -> None:
        """Record an in-place value change (attribute value, PI data)."""
        self.revalued.add(nid)
        self.labels.add(label)

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
            revalued=self.revalued | other.revalued,
            labels=self.labels | other.labels,
            conservative=self.conservative or other.conservative,
        )

    @classmethod
    def merge_all(cls, changesets: Iterable["ChangeSet"]) -> "ChangeSet":
        """Fold a sequence of change-sets into one composite."""
        out = cls()
        for cs in changesets:
            out = out.merge(cs)
        return out
