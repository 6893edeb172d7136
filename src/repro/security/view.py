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

Views are grown top-down by :func:`grow`, which carries the user's
permission automaton state from parent to child
(:mod:`repro.security.perm`): each node costs one transition from its
parent's state, and a node the user may not see is never descended
into.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId, document_order_key
from ..xmltree.node import RESTRICTED, NodeKind
from ..xmltree.serializer import serialize
from .perm import HIDDEN, POSITION_ONLY, PermissionResolver, PermissionTable
from .policy import Policy

__all__ = ["View", "ViewBuilder", "grow"]


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
    that the source no longer has) contributes nothing.  The
    permission automaton's state is carried top-down, from each root's
    parent, so a node's decision is one transition from its parent's;
    a hidden node prunes its whole subtree unvisited.  Position-only
    nodes are masked here and nowhere else: label, and for attributes
    the value too (relabelling alone would leak it through
    serialization).  The roots must not be in ``view_doc`` yet.

    Returns:
        The nodes installed with the RESTRICTED label.
    """
    step, login, get = table.automaton.step, table.login, source.get
    named_children = table.named_children
    # Without read or position exception rules a state alone decides.
    shown = None if table.decided_by_state else table.shown
    restricted: List[NodeId] = []

    def admit(kids: Iterable[NodeId], state) -> Tuple[List[NodeId], list]:
        """The ``kids`` that enter the view below a node in ``state``,
        and their states."""
        admitted: List[NodeId] = []
        states = []
        for kid in kids:
            kid_state = step(state, get(kid), login)
            status = kid_state.decision[1] if shown is None else shown(kid, kid_state)
            if status != HIDDEN:
                if status == POSITION_ONLY:
                    restricted.append(kid)
                admitted.append(kid)
                states.append(kid_state)
        return admitted, states

    def expand(nid: NodeId, kids, state) -> Tuple[List[NodeId], list]:
        # A node whose only showable children carry labels some rule
        # names looks those up instead of testing every sibling.
        labels = named_children(state) if kids else None
        if labels is not None:
            kids = [kid for label in labels for kid in source.children_named(nid, label)]
            if len(labels) > 1:
                kids.sort(key=document_order_key)
        return admit(kids, state)

    grafted = []
    for root in roots:
        if root in source and root.parent() in view_doc:
            kept, states = admit([root], table.state(root.parent()))
            grafted.append((root, states[0] if kept else None))
    view_doc.graft(source, grafted, expand)
    for nid in restricted:
        view_doc.relabel(nid, RESTRICTED)
        if view_doc.kind(nid) is NodeKind.ATTRIBUTE:
            view_doc.set_value(nid, RESTRICTED)
    return set(restricted)


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
