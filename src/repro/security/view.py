"""View derivation: the pruned document a user may see (axioms 15-17).

The paper's view access-control strategy (section 4.4.1):

- the document node always belongs to the view (axiom 15);
- a node is *selected* iff the user holds the ``read`` or ``position``
  privilege on it **and its parent is itself selected** (axioms 16-17),
  so the view is a pruned version of the source;
- a selected node held with only ``position`` is shown with the
  ``RESTRICTED`` label (axiom 17); holding ``read`` shows the real
  label (axiom 16 wins over 17 by its ``¬perm(s, n, read)`` guard).

Selected nodes are *not renumbered* -- identifiers are internal and
invisible to users, so sharing them between source and view creates no
inference channel (paper, section 4.4.1) while letting the write layer
map view selections straight back to source nodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import RESTRICTED, NodeKind
from ..xmltree.serializer import serialize
from .perm import PermissionResolver, PermissionTable
from .policy import Policy
from .privileges import Privilege

__all__ = ["View", "ViewBuilder", "grow"]

_NOTHING: FrozenSet[NodeId] = frozenset()


@dataclass
class View:
    """A user's authorized view of a source document.

    Attributes:
        user: the session user the view was derived for.
        doc: the view *as a document* -- pruned, with RESTRICTED labels
            substituted; queries and PATH selection run against this.
        source: the source document the view was derived from.
        restricted: nodes shown with the RESTRICTED label (position
            privilege without read).
        permissions: the full permission table used to build the view
            (also carries the write privileges for the secure executor).
        policy: the policy the view was derived under, kept so the
            secure executor can re-derive views between script steps.
    """

    user: str
    doc: XMLDocument
    source: XMLDocument
    restricted: FrozenSet[NodeId]
    permissions: PermissionTable
    policy: Policy
    #: Memoized (mutation_stamp, digest) of the last fingerprint call.
    _fingerprint_cache: Optional[Tuple[int, str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def visible(self, nid: NodeId) -> bool:
        """True if the node is in the view (readable or RESTRICTED)."""
        return nid in self.doc

    def is_restricted(self, nid: NodeId) -> bool:
        """True if the node is shown with the RESTRICTED label."""
        return nid in self.restricted

    def label(self, nid: NodeId) -> str:
        """The label the user sees for a visible node."""
        return self.doc.label(nid)

    def facts(self) -> Set[Tuple[NodeId, str]]:
        """The ``node_view(n, v)`` facts of the derived view theory."""
        return self.doc.facts()

    def fingerprint(self) -> str:
        """Content hash of the serialized view document.

        Two views with equal fingerprints are byte-identical to the
        user; the crash-safety suite uses this to state the atomicity
        invariant (a failed script leaves every session's fingerprint
        unchanged).

        The digest is memoized against the view document's mutation
        stamp, so repeated fingerprinting of an unchanged view (the
        atomicity suite fingerprints every session before *and* after
        every script) serializes once.
        """
        stamp = self.doc.mutation_stamp
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == stamp:
            return cached[1]
        digest = hashlib.sha256(
            serialize(self.doc).encode("utf-8")
        ).hexdigest()
        self._fingerprint_cache = (stamp, digest)
        return digest

    def rebased(
        self, new_source: XMLDocument, resolver: PermissionResolver
    ) -> "View":
        """This user's view of ``new_source`` under the same policy.

        The permission table is re-derived, not copied: rule paths may
        now match different nodes (e.g. a freshly inserted diagnosis).
        """
        return ViewBuilder(resolver).build(new_source, self.policy, self.user)


def grow(
    view_doc: XMLDocument,
    source: XMLDocument,
    roots: Iterable[NodeId],
    table: PermissionTable,
) -> Set[NodeId]:
    """Grow ``view_doc`` at ``roots`` from ``source`` (axioms 16-17).

    The one place the selection rule is evaluated for materialized
    views: a source node at or below a root enters the view iff the
    user holds ``read`` or ``position`` on it **and its parent is in
    the view** -- so a root whose parent is not in ``view_doc`` (or
    that the source no longer has) contributes nothing.  Position-only
    nodes are masked here and nowhere else: label, and for attributes
    the value too (relabelling alone would leak it through
    serialization).  The roots must not be in ``view_doc`` yet.

    Returns:
        The nodes installed with the RESTRICTED label.
    """
    readable = table.granted.get(Privilege.READ, _NOTHING)
    position_only = table.granted.get(Privilege.POSITION, _NOTHING) - readable
    installed = view_doc.graft(
        source,
        [r for r in roots if r in source and r.parent() in view_doc],
        readable | position_only if position_only else readable,
    )
    if not position_only:
        return set()
    restricted = position_only.intersection(installed)
    for nid in restricted:
        view_doc.relabel(nid, RESTRICTED)
        if view_doc.kind(nid) is NodeKind.ATTRIBUTE:
            view_doc.set_value(nid, RESTRICTED)
    return restricted


class ViewBuilder:
    """Materializes :class:`View` objects (axioms 15-17).

    Args:
        resolver: permission resolver; a paper-compat default is built
            if omitted.
    """

    def __init__(self, resolver: Optional[PermissionResolver] = None) -> None:
        self._resolver = resolver if resolver is not None else PermissionResolver()

    @property
    def resolver(self) -> PermissionResolver:
        return self._resolver

    def build(
        self,
        doc: XMLDocument,
        policy: Policy,
        user: str,
        permissions: Optional[PermissionTable] = None,
    ) -> View:
        """Derive the view of ``doc`` that ``user`` is permitted to see.

        Args:
            doc: the source document.
            policy: the security policy.
            user: the session user (the paper's ``logged(s)``).
            permissions: a pre-computed permission table (derived if
                omitted).
        """
        table = (
            permissions
            if permissions is not None
            else self._resolver.resolve(doc, policy, user)
        )
        # Axiom 15: an empty document is exactly the document node.
        view_doc = XMLDocument(doc.scheme)
        restricted = grow(view_doc, doc, doc.children(DOCUMENT_ID), table)
        return View(
            user=user,
            doc=view_doc,
            source=doc,
            restricted=frozenset(restricted),
            permissions=table,
            policy=policy,
        )
