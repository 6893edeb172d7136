"""Lazy (filter-based) view enforcement -- the paper's proposed follow-up.

The paper's conclusion sketches an alternative to materializing each
user's view: "applying filters reflecting the user privileges on the
queries and then evaluating the queries on the source document" (after
Fundulaki & Marx [9]), and asks whether such filtered evaluation can
"include RESTRICTED labels" compatibly with the authorized views.

:class:`LazyView` answers that question constructively.  It exposes the
*read* interface of :class:`~repro.xmltree.document.XMLDocument`, but
every accessor enforces axioms 15-17 on the fly against the source:

- children/descendants are filtered to nodes whose whole ancestor chain
  is visible;
- labels of position-only nodes read ``RESTRICTED``;
- string-values aggregate only visible text.

Because the XPath engine is written against that read interface, any
query can run directly over a :class:`LazyView` -- no copy, no pruning
pass -- and is guaranteed to return exactly what it would return on the
materialized view.  The equivalence is differentially tested
(``tests/security/test_lazy.py``) and the cost trade-off is measured by
benchmark E16: lazy wins when queries touch a small fraction of the
document; materialization amortizes when one view serves many queries.

This is a library class, not a session mode: sessions always serve the
materialized view grown by :func:`repro.security.view.grow`, and nothing
on the serving path imports this module.  With the Datalog theory
(:mod:`repro.formal`) and the generated stylesheet
(:mod:`repro.xslt.security`) it is one of three independent statements
of axioms 15-17 the tests pin the grower against.  To run a query or a
secure update through it, build one with :func:`build_lazy_view` and
hand it to the XPath engine or to
:meth:`~repro.security.write.SecureWriteExecutor.apply`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.labels import DOCUMENT_ID, NodeId
from ..xmltree.node import Node, NodeKind, RESTRICTED
from .perm import PermissionResolver, PermissionTable
from .policy import Policy
from .privileges import Privilege

__all__ = ["LazyView", "build_lazy_view"]


class LazyView:
    """A per-access-checked view over a source document.

    Implements the read interface of :class:`XMLDocument` (the portion
    the XPath evaluator and the serializer use), enforcing the view
    axioms on every call.  Not a subclass: mutation methods simply do
    not exist here, which is exactly right for a view.

    Args:
        source: the source document (theory ``db``).
        permissions: the user's derived permission table (axiom 14).
    """

    def __init__(
        self,
        source: XMLDocument,
        permissions: PermissionTable,
        policy: Optional[Policy] = None,
    ) -> None:
        self._source = source
        self._permissions = permissions
        #: The policy the view was derived under (set by
        #: :func:`build_lazy_view`); :meth:`rebased` needs it.
        self.policy = policy
        self._visible_cache: Dict[NodeId, bool] = {DOCUMENT_ID: True}
        self._len_cache: Optional[Tuple[int, int]] = None

    @property
    def doc(self) -> "LazyView":
        """Self: a LazyView *is* the queryable view document, which
        makes it a drop-in replacement for
        :attr:`repro.security.view.View.doc`."""
        return self

    # ------------------------------------------------------------------
    # visibility (axioms 15-17, evaluated on demand)
    # ------------------------------------------------------------------
    @property
    def user(self) -> str:
        return self._permissions.user

    @property
    def source(self) -> XMLDocument:
        return self._source

    @property
    def permissions(self) -> PermissionTable:
        return self._permissions

    def visible(self, nid: NodeId) -> bool:
        """True iff the node is in the view: itself readable or
        positional, and its parent visible (the pruning condition).

        Iterative: climbs to the nearest cached ancestor (the document
        node is always cached), then fills the cache back down -- no
        recursion, so arbitrarily deep documents cannot overflow the
        stack.
        """
        cache = self._visible_cache
        cached = cache.get(nid)
        if cached is not None:
            return cached
        if nid not in self._source:
            cache[nid] = False
            return False
        chain = []  # uncached ancestors-or-self, nearest first
        current = nid
        while current not in cache:
            chain.append(current)
            current = current.parent()
        result = cache[current]
        perms = self._permissions
        for node in reversed(chain):
            if result:  # ancestors of an in-source node are in source
                result = perms.holds(node, Privilege.READ) or perms.holds(
                    node, Privilege.POSITION
                )
            cache[node] = result
        return result

    def rebased(
        self, new_source: XMLDocument, resolver: PermissionResolver
    ) -> "LazyView":
        """This user's lazy view of ``new_source`` under the same
        policy (the counterpart of ``View.rebased``: the secure write
        executor calls it between the operations of a script)."""
        return build_lazy_view(new_source, self.policy, self.user, resolver)

    def is_restricted(self, nid: NodeId) -> bool:
        """True iff the node is shown with the RESTRICTED label."""
        return (
            self.visible(nid)
            and not nid.is_document
            and not self._permissions.holds(nid, Privilege.READ)
        )

    # ------------------------------------------------------------------
    # the XMLDocument read interface
    # ------------------------------------------------------------------
    @property
    def document_node(self) -> Node:
        return self._source.document_node

    @property
    def root(self) -> Optional[NodeId]:
        kids = self.children(DOCUMENT_ID)
        return kids[0] if kids else None

    @property
    def scheme(self):
        return self._source.scheme

    def __contains__(self, nid: NodeId) -> bool:
        return self.visible(nid)

    def __len__(self) -> int:
        # Memoized against the source's mutation stamp: repeated len()
        # probes (the evaluator's last()/size checks) must not re-walk
        # the whole visible tree.
        stamp = self._source.mutation_stamp
        if self._len_cache is None or self._len_cache[0] != stamp:
            self._len_cache = (stamp, sum(1 for _ in self.all_nodes()))
        return self._len_cache[1]

    def node(self, nid: NodeId) -> Node:
        """The visible node, with RESTRICTED substitution applied."""
        from ..xmltree.document import DocumentError

        if not self.visible(nid):
            raise DocumentError(f"no node with id {nid!r}")
        node = self._source.node(nid)
        if self.is_restricted(nid):
            if node.kind is NodeKind.ATTRIBUTE:
                # Hide the value as well as the name -- an empty one
                # too (see repro.security.view.grow).
                return Node(nid, NodeKind.ATTRIBUTE, RESTRICTED, RESTRICTED)
            return node.relabelled(RESTRICTED)
        return node

    def get(self, nid: NodeId) -> Optional[Node]:
        """The visible node, or None for invisible/unknown ids."""
        return self.node(nid) if self.visible(nid) else None

    def label(self, nid: NodeId) -> str:
        """The label the user sees (RESTRICTED where position-only)."""
        return self.node(nid).label

    def kind(self, nid: NodeId) -> NodeKind:
        """The node kind (kinds are never hidden, labels are)."""
        return self.node(nid).kind

    def parent(self, nid: NodeId) -> Optional[NodeId]:
        """The parent id (visible whenever the node is)."""
        self.node(nid)
        return None if nid.is_document else nid.parent()

    def children(self, nid: NodeId) -> List[NodeId]:
        """Visible non-attribute children, in document order."""
        return [c for c in self._source.children(nid) if self.visible(c)]

    def children_named(self, parent: NodeId, label: str) -> List[NodeId]:
        """Visible element children labelled ``label`` (as the user sees
        labels, RESTRICTED included): a scan of :meth:`children`, the
        reading :meth:`XMLDocument.children_named` indexes."""
        return [
            c
            for c in self.children(parent)
            if self.kind(c) is NodeKind.ELEMENT and self.label(c) == label
        ]

    def attributes(self, nid: NodeId) -> List[NodeId]:
        """Visible attribute nodes, in document order."""
        return [a for a in self._source.attributes(nid) if self.visible(a)]

    def attribute_value(self, element: NodeId, name: str) -> Optional[str]:
        """The value of a visible attribute, or None."""
        for attr in self.attributes(element):
            node = self.node(attr)
            if node.label == name:
                return node.value
        return None

    def descendants(self, nid: NodeId) -> Iterator[NodeId]:
        """Visible proper descendants in document order (iterative:
        document depth never limits traversal)."""
        stack = list(reversed(self.children(nid)))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children(node)))

    def descendants_or_self(self, nid: NodeId) -> Iterator[NodeId]:
        """The node, then its visible descendants."""
        yield nid
        yield from self.descendants(nid)

    def ancestors(self, nid: NodeId) -> Iterator[NodeId]:
        """Proper ancestors, nearest first."""
        self.node(nid)
        # Visibility is ancestor-closed: every ancestor of a visible
        # node is visible, so no filtering is needed.
        yield from nid.ancestors()

    def subtree(self, nid: NodeId) -> Iterator[NodeId]:
        """The visible subtree, attributes included (iterative, in the
        order node, its attributes, then each child's subtree)."""
        stack = [nid]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children(node)))
            if not node.is_document:
                # Attributes go on top: yielded right after their owner.
                stack.extend(reversed(self.attributes(node)))

    def siblings(self, nid: NodeId) -> List[NodeId]:
        """Visible children of this node's parent (self included)."""
        parent = self.parent(nid)
        if parent is None:
            return [nid]
        return self.children(parent)

    def following_siblings(self, nid: NodeId) -> List[NodeId]:
        """Visible following siblings, in document order."""
        sibs = self.siblings(nid)
        try:
            i = sibs.index(nid)
        except ValueError:
            return []
        return sibs[i + 1 :]

    def preceding_siblings(self, nid: NodeId) -> List[NodeId]:
        """Visible preceding siblings, nearest first."""
        sibs = self.siblings(nid)
        try:
            i = sibs.index(nid)
        except ValueError:
            return []
        return list(reversed(sibs[:i]))

    def following(self, nid: NodeId) -> List[NodeId]:
        """The visible XPath following axis."""
        result: List[NodeId] = []
        current = nid
        while not current.is_document:
            for sib in self.following_siblings(current):
                result.extend(self.descendants_or_self(sib))
            current = current.parent()
        return result

    def preceding(self, nid: NodeId) -> List[NodeId]:
        """The visible XPath preceding axis, reverse document order."""
        result: List[NodeId] = []
        current = nid
        while not current.is_document:
            for sib in self.preceding_siblings(current):
                result.extend(reversed(list(self.descendants_or_self(sib))))
            current = current.parent()
        return result

    def all_nodes(self) -> List[NodeId]:
        """Every visible node id in document order."""
        return list(self.subtree(DOCUMENT_ID))

    def string_value(self, nid: NodeId) -> str:
        """XPath string-value over visible content only."""
        node = self.node(nid)
        if node.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            parts = [
                self.label(d)
                for d in self.descendants(nid)
                if self._source.kind(d) is NodeKind.TEXT
            ]
            return "".join(parts)
        return node.string_value()

    def facts(self) -> Set[Tuple[NodeId, str]]:
        """The ``node_view(n, v)`` facts -- identical by construction to
        the materialized view's fact set."""
        return {(nid, self.label(nid)) for nid in self.all_nodes()}

    def path_string(self, nid: NodeId) -> str:
        """Human-readable absolute path (diagnostics only)."""
        return self._source.path_string(nid)


def build_lazy_view(
    doc: XMLDocument,
    policy: Policy,
    user: str,
    resolver: Optional[PermissionResolver] = None,
    permissions: Optional[PermissionTable] = None,
) -> LazyView:
    """Derive a :class:`LazyView` for ``user``.

    Permission resolution (axiom 14) still happens eagerly -- it is
    policy-sized, not document-sized in its output -- but no view
    document is materialized.
    """
    if permissions is None:
        if resolver is None:
            resolver = PermissionResolver()
        permissions = resolver.resolve(doc, policy, user)
    return LazyView(doc, permissions, policy)
