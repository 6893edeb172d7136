"""The XML document store: the paper's theory ``db`` made operational.

An :class:`XMLDocument` is the set of facts ``node(n, v)`` (section 3.3,
equation 1) together with the tree-geometry relations the paper derives
from the numbering scheme (``child``, ``parent``, ``descendant``,
``ancestor``, the sibling axes, ...).  Geometry is derivable from the
:class:`~repro.xmltree.labels.NodeId` values alone; the document keeps a
children index purely as an accelerator.

Updates follow the paper's theory-replacement reading: an XUpdate
operation maps theory ``db`` to theory ``dbnew`` (formulae (2)-(9):
``dbnew = db +- delta``).  Callers that need that functional behaviour
copy the document first, and :meth:`XMLDocument.copy` makes the copy
cost O(parents) dict slots, not O(nodes): node objects are immutable
and shared, and so are the sibling lists, copy-on-first-write.

Sharing rule: a document owns a sibling list -- may mutate it in place
-- only if the parent is in its ``_owned`` set (None: the document was
never copied and owns every list).  :meth:`copy` empties that set on
*both* sides (the old generation may still be served to a
reader, so neither may write to a list the other can see), and the
first write to a shared list replaces it with a private copy
(:meth:`XMLDocument._own`).  Lists a document creates itself -- a new
node's empty list, a graft's filtered lists, a renumbering's rebuilt
ones -- are owned from birth.  Nothing outside this module touches
``_children``.

Name index: :meth:`XMLDocument.children_named` answers a child step by
name from a lazily built, per-parent ``label -> element ids`` map.  An
entry records the sibling list it was built from and is used only while
that list ``is`` the document's current one, so a copy-on-first-write
(:meth:`XMLDocument._own`) retires it by itself.  :meth:`copy` copies
the entry dict, so two generations share entries exactly as they share
lists; an entry is never mutated, only dropped -- in this document
alone -- when its list is written in place (``_install``,
``remove_subtree``) or one of its children is relabelled.  Persistent
numbering (section 3.1) is what keeps this cheap: an id never changes,
so an entry stays valid for as long as its list is shared.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .labels import (
    DOCUMENT_ID,
    NodeId,
    NumberingScheme,
    PersistentDeweyScheme,
    RenumberingRequired,
    order_index,
)
from .node import Node, NodeKind

__all__ = ["XMLDocument", "DocumentError"]


class DocumentError(Exception):
    """Structural error: unknown node, illegal parent/child combination..."""


#: One name-index entry: (the sibling list it was built from,
#: label -> element children in document order).
_NameEntry = Tuple[List[NodeId], Dict[str, List[NodeId]]]


_DOCUMENT_NODE = Node(DOCUMENT_ID, NodeKind.DOCUMENT, "/")

#: Kinds that participate in the child axis (attributes do not).
_CHILD_KINDS = frozenset(
    {
        NodeKind.ELEMENT,
        NodeKind.TEXT,
        NodeKind.COMMENT,
        NodeKind.PROCESSING_INSTRUCTION,
    }
)


class XMLDocument:
    """A mutable XML tree over persistent node identifiers.

    Args:
        scheme: the numbering scheme assigning ordering components to new
            nodes.  Defaults to the persistent Dewey scheme, which never
            renumbers (the paper's requirement).
    """

    def __init__(self, scheme: Optional[NumberingScheme] = None) -> None:
        self._scheme = scheme if scheme is not None else PersistentDeweyScheme()
        self._nodes: Dict[NodeId, Node] = {DOCUMENT_ID: _DOCUMENT_NODE}
        # All children (attributes included) per parent.  Invariant: each
        # list is strictly increasing under document_order_key, which is
        # what lets every lookup and insertion bisect (order_index)
        # instead of scan.
        self._children: Dict[NodeId, List[NodeId]] = {DOCUMENT_ID: []}
        # Parents whose sibling list no other document shares (see the
        # module docstring's sharing rule); None until the first copy(),
        # while every list is owned, so loading pays no bookkeeping.
        self._owned: Optional[Set[NodeId]] = None
        #: Number of renumbering episodes performed (0 unless the naive
        #: scheme is in use); read by benchmark E13.
        self.renumber_count = 0
        #: Number of individual node ids rewritten by renumbering.
        self.renumbered_nodes = 0
        #: Old-id -> new-id mapping of the most recent renumbering, so
        #: callers holding stale identifiers can re-resolve them.  Empty
        #: under persistent schemes.
        self.last_renumber_mapping: Dict[NodeId, NodeId] = {}
        #: Monotonic counter bumped by every mutation; caches keyed on
        #: (document, stamp) stay sound even under in-place updates.
        self.mutation_stamp = 0
        # Lazy element-label index for the //name fast path, guarded by
        # the mutation stamp.
        self._label_index: Optional[Dict[str, Set[NodeId]]] = None
        self._label_index_stamp = -1
        # Lazy per-kind index for the //*, //node(), //text() fast paths.
        self._kind_index: Optional[Dict[NodeKind, Set[NodeId]]] = None
        self._kind_index_stamp = -1
        # parent -> (the sibling list it was built from, label -> element
        # ids in document order); see the module docstring's name index.
        self._name_index: Dict[NodeId, _NameEntry] = {}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> NumberingScheme:
        """The numbering scheme in use."""
        return self._scheme

    @property
    def document_node(self) -> Node:
        """The unique document node (identifier ``/``)."""
        return self._nodes[DOCUMENT_ID]

    @property
    def root(self) -> Optional[NodeId]:
        """The root element's identifier, or None for an empty document."""
        kids = self.children(DOCUMENT_ID)
        return kids[0] if kids else None

    def __contains__(self, nid: NodeId) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        """Number of nodes, document node included."""
        return len(self._nodes)

    def node(self, nid: NodeId) -> Node:
        """The node with identifier ``nid``.

        Raises:
            DocumentError: if no such node exists.
        """
        try:
            return self._nodes[nid]
        except KeyError:
            raise DocumentError(f"no node with id {nid!r}") from None

    def get(self, nid: NodeId) -> Optional[Node]:
        """The node with identifier ``nid``, or None."""
        return self._nodes.get(nid)

    def label(self, nid: NodeId) -> str:
        """The paper's ``v`` for node ``n`` -- its label."""
        return self.node(nid).label

    def kind(self, nid: NodeId) -> NodeKind:
        """The kind of node ``nid``."""
        return self.node(nid).kind

    # ------------------------------------------------------------------
    # geometry (the paper's derived predicates)
    # ------------------------------------------------------------------
    def parent(self, nid: NodeId) -> Optional[NodeId]:
        """``parent(x)``: the parent identifier, None for the document node."""
        self.node(nid)
        return None if nid.is_document else nid.parent()

    def children(self, nid: NodeId) -> List[NodeId]:
        """``child`` axis: non-attribute children in document order."""
        return [
            c
            for c in self._children.get(nid, ())
            if self._nodes[c].kind in _CHILD_KINDS
        ]

    def children_named(self, parent: NodeId, label: str) -> Sequence[NodeId]:
        """``child::label``: the element children of ``parent`` labelled
        ``label``, in document order -- a lookup, not a sibling scan.

        The first call for a parent builds its ``label -> ids`` entry in
        one pass over the sibling list; later calls, in this generation
        and in every copy still sharing the list, are dict reads.  The
        result is shared with the index: callers must not mutate it.
        """
        kids = self._children.get(parent)
        if kids is None:
            return ()
        entry = self._name_index.get(parent)
        if entry is None or entry[0] is not kids:
            # Two readers racing here build equal entries; either wins.
            named: Dict[str, List[NodeId]] = {}
            nodes = self._nodes
            for kid in kids:
                node = nodes[kid]
                if node.kind is NodeKind.ELEMENT:
                    named.setdefault(node.label, []).append(kid)
            entry = self._name_index[parent] = (kids, named)
        return entry[1].get(label, ())

    def attributes(self, nid: NodeId) -> List[NodeId]:
        """Attribute nodes of an element, in document order."""
        return [
            c
            for c in self._children.get(nid, ())
            if self._nodes[c].kind is NodeKind.ATTRIBUTE
        ]

    def attribute_value(self, element: NodeId, name: str) -> Optional[str]:
        """The value of attribute ``name`` on ``element``, or None."""
        for attr in self.attributes(element):
            node = self._nodes[attr]
            if node.label == name:
                return node.value
        return None

    def descendants(self, nid: NodeId) -> Iterator[NodeId]:
        """Proper descendants in document order (attributes excluded).

        Iterative (explicit stack) so document depth is bounded by
        memory, not the interpreter's recursion limit.
        """
        stack = list(reversed(self.children(nid)))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self.children(node)))

    def descendants_or_self(self, nid: NodeId) -> Iterator[NodeId]:
        """``descendant_or_self``: the node, then descendants in order."""
        yield nid
        yield from self.descendants(nid)

    def ancestors(self, nid: NodeId) -> Iterator[NodeId]:
        """Proper ancestors, nearest first, ending at the document node."""
        self.node(nid)
        yield from nid.ancestors()

    def subtree(self, nid: NodeId) -> Iterator[NodeId]:
        """The node and every descendant *including* attribute nodes."""
        stack = [nid]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._children.get(node, ())))

    def siblings(self, nid: NodeId) -> List[NodeId]:
        """All non-attribute children of this node's parent (self included)."""
        parent = self.parent(nid)
        if parent is None:
            return [nid]
        return self.children(parent)

    def following_siblings(self, nid: NodeId) -> List[NodeId]:
        """``following_sibling`` axis, in document order."""
        sibs = self.siblings(nid)
        try:
            i = sibs.index(nid)
        except ValueError:
            return []
        return sibs[i + 1 :]

    def preceding_siblings(self, nid: NodeId) -> List[NodeId]:
        """``preceding_sibling`` axis, in *reverse* document order."""
        sibs = self.siblings(nid)
        try:
            i = sibs.index(nid)
        except ValueError:
            return []
        return list(reversed(sibs[:i]))

    def following(self, nid: NodeId) -> List[NodeId]:
        """XPath ``following`` axis: after the subtree, in document order."""
        result: List[NodeId] = []
        current = nid
        while not current.is_document:
            for sib in self.following_siblings(current):
                result.extend(self.descendants_or_self(sib))
            current = current.parent()
        return result

    def preceding(self, nid: NodeId) -> List[NodeId]:
        """XPath ``preceding`` axis, in reverse document order."""
        result: List[NodeId] = []
        current = nid
        while not current.is_document:
            for sib in self.preceding_siblings(current):
                result.extend(reversed(list(self.descendants_or_self(sib))))
            current = current.parent()
        return result

    def all_nodes(self) -> List[NodeId]:
        """Every node id (attributes included) in document order."""
        return list(self.subtree(DOCUMENT_ID))

    def string_value(self, nid: NodeId) -> str:
        """XPath string-value of a node.

        Elements and the document node concatenate descendant text; other
        kinds carry their own value.
        """
        node = self.node(nid)
        if node.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            parts = [
                self._nodes[d].label
                for d in self.descendants(nid)
                if self._nodes[d].kind is NodeKind.TEXT
            ]
            return "".join(parts)
        return node.string_value()

    # ------------------------------------------------------------------
    # fact views (the formal layer reads these)
    # ------------------------------------------------------------------
    def facts(self) -> Set[Tuple[NodeId, str]]:
        """The paper's set ``F`` of ``node(n, v)`` facts (equation 1)."""
        return {node.fact() for node in self._nodes.values()}

    def child_facts(self) -> Set[Tuple[NodeId, NodeId]]:
        """All ``child(x, y)`` facts (x is a child of y), as in section 3.3."""
        out: Set[Tuple[NodeId, NodeId]] = set()
        for parent, kids in self._children.items():
            for kid in kids:
                if self._nodes[kid].kind in _CHILD_KINDS:
                    out.add((kid, parent))
        return out

    def path_string(self, nid: NodeId) -> str:
        """A stable, human-readable absolute path for a node.

        Uses element labels with positional indices; text nodes are shown
        as ``text()``.  Intended for error messages, audit logs and the
        EXPERIMENTS.md transcripts, never for addressing.
        """
        if nid.is_document:
            return "/"
        parts: List[str] = []
        current = nid
        while not current.is_document:
            node = self._nodes.get(current)
            if node is None:
                parts.append("?")
            elif node.kind is NodeKind.TEXT:
                parts.append("text()")
            elif node.kind is NodeKind.ATTRIBUTE:
                parts.append("@" + node.label)
            else:
                parent = current.parent()
                same = [
                    c
                    for c in self.children(parent)
                    if self._nodes[c].kind is node.kind
                    and self._nodes[c].label == node.label
                ]
                if len(same) > 1:
                    parts.append(f"{node.label}[{same.index(current) + 1}]")
                else:
                    parts.append(node.label)
            current = current.parent()
        return "/" + "/".join(reversed(parts))

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------
    def add_root(self, label: str) -> NodeId:
        """Create the root element; the document must be empty.

        Raises:
            DocumentError: if a root element already exists.
        """
        if self.root is not None:
            raise DocumentError("document already has a root element")
        return self.append_child(DOCUMENT_ID, NodeKind.ELEMENT, label)

    def append_child(
        self,
        parent: NodeId,
        kind: NodeKind,
        label: str,
        value: str = "",
    ) -> NodeId:
        """Append a new node as the last child of ``parent``."""
        self._check_can_contain(parent, kind)
        kids = self._children.get(parent)
        before = kids[-1] if kids else None
        nid = self._fresh_child_id(parent, before, None)
        self._install(Node(nid, kind, label, value))
        return nid

    def insert_before(
        self,
        sibling: NodeId,
        kind: NodeKind,
        label: str,
        value: str = "",
    ) -> NodeId:
        """Insert a new node as the immediately preceding sibling."""
        parent = self.parent(sibling)
        if parent is None:
            raise DocumentError("cannot insert a sibling of the document node")
        if self.node(sibling).kind is NodeKind.ATTRIBUTE:
            raise DocumentError("attributes have no sibling order to insert into")
        self._check_can_contain(parent, kind)
        kids = self._children[parent]
        i = order_index(kids, sibling)
        before = kids[i - 1] if i > 0 else None
        nid = self._fresh_child_id(parent, before, sibling)
        self._install(Node(nid, kind, label, value))
        return nid

    def insert_after(
        self,
        sibling: NodeId,
        kind: NodeKind,
        label: str,
        value: str = "",
    ) -> NodeId:
        """Insert a new node as the immediately following sibling."""
        parent = self.parent(sibling)
        if parent is None:
            raise DocumentError("cannot insert a sibling of the document node")
        if self.node(sibling).kind is NodeKind.ATTRIBUTE:
            raise DocumentError("attributes have no sibling order to insert into")
        self._check_can_contain(parent, kind)
        kids = self._children[parent]
        i = order_index(kids, sibling)
        after = kids[i + 1] if i + 1 < len(kids) else None
        nid = self._fresh_child_id(parent, sibling, after)
        self._install(Node(nid, kind, label, value))
        return nid

    def set_attribute(self, element: NodeId, name: str, value: str) -> NodeId:
        """Set (create or overwrite) an attribute on an element."""
        node = self.node(element)
        if node.kind is not NodeKind.ELEMENT:
            raise DocumentError("attributes can only be set on elements")
        for attr in self.attributes(element):
            if self._nodes[attr].label == name:
                self._nodes[attr] = Node(attr, NodeKind.ATTRIBUTE, name, value)
                return attr
        # Attributes are kept at the front of the sibling run so document
        # order places them between the element and its content children.
        attrs = self.attributes(element)
        before = attrs[-1] if attrs else None
        content = self.children(element)
        after = content[0] if content else None
        nid = self._fresh_child_id(element, before, after)
        self._install(Node(nid, NodeKind.ATTRIBUTE, name, value))
        return nid

    def relabel(self, nid: NodeId, new_label: str) -> None:
        """Change a node's label in place (XUpdate rename/update target)."""
        node = self.node(nid)
        if node.is_document:
            raise DocumentError("the document node cannot be relabelled")
        self._nodes[nid] = node.relabelled(new_label)
        self._name_index.pop(nid.parent(), None)
        self.mutation_stamp += 1

    def set_value(self, nid: NodeId, new_value: str) -> None:
        """Change a node's value in place (attribute values, PI data)."""
        node = self.node(nid)
        if node.is_document:
            raise DocumentError("the document node has no value")
        self._nodes[nid] = Node(nid, node.kind, node.label, new_value)
        self.mutation_stamp += 1

    def remove_subtree(self, nid: NodeId) -> int:
        """Delete a node and its whole subtree; returns nodes removed.

        Raises:
            DocumentError: for the document node or an unknown node.
        """
        node = self.node(nid)
        if node.is_document:
            raise DocumentError("the document node cannot be removed")
        removed = list(self.subtree(nid))
        name_index = self._name_index
        for r in removed:
            self._nodes.pop(r, None)
            self._children.pop(r, None)
            name_index.pop(r, None)
            if self._owned is not None:
                self._owned.discard(r)
        parent = nid.parent()
        kids = self._own(parent)
        del kids[order_index(kids, nid)]
        name_index.pop(parent, None)
        self.mutation_stamp += 1
        return len(removed)

    def nodes_with_label(self, label: str) -> Set[NodeId]:
        """All *element* nodes carrying ``label`` (unordered).

        Backed by a lazily built index that the mutation stamp keeps
        honest; the XPath engine uses it to evaluate ``//name`` steps
        without walking the whole tree.
        """
        if self._label_index is None or self._label_index_stamp != self.mutation_stamp:
            index: Dict[str, Set[NodeId]] = {}
            for nid, node in self._nodes.items():
                if node.kind is NodeKind.ELEMENT:
                    index.setdefault(node.label, set()).add(nid)
            self._label_index = index
            self._label_index_stamp = self.mutation_stamp
        return self._label_index.get(label, set())

    def nodes_with_kind(self, kind: NodeKind) -> Set[NodeId]:
        """All nodes of one kind (unordered), from a lazy stamped index.

        Like :meth:`nodes_with_label`, this backs the evaluator's
        ``//*`` / ``//node()`` / ``//text()`` fast paths.
        """
        if self._kind_index is None or self._kind_index_stamp != self.mutation_stamp:
            index: Dict[NodeKind, Set[NodeId]] = {}
            for nid, node in self._nodes.items():
                index.setdefault(node.kind, set()).add(nid)
            self._kind_index = index
            self._kind_index_stamp = self.mutation_stamp
        return self._kind_index.get(kind, set())

    def graft(
        self,
        source: "XMLDocument",
        roots: Iterable[Tuple[NodeId, object]],
        expand: Callable[
            [NodeId, Sequence[NodeId], object], Tuple[List[NodeId], List[object]]
        ],
    ) -> List[NodeId]:
        """Install the admitted part of ``source``'s subtrees at ``roots``.

        Each root comes with its state, or None to leave it out (it is
        checked all the same); a root's parent must already be here.
        For every installed node, ``expand(nid, kids, state)`` gets the
        source's sibling list of ``nid`` (attributes included, document
        order, shared: read it, do not mutate it) and returns the
        children to install, in document order, and their own states,
        as two lists; nothing below a child it leaves out is looked at.
        Installed nodes keep their identifier and share the source's
        node object.  This is the one primitive views are grown with: a
        first build grafts the document node's children into an empty
        document, a cache patch grafts each dirty root back after
        cutting it out, and the state is the permission automaton's.

        Each installed node's sibling list is the source's filtered, so
        it is strictly increasing because the source's is: only the
        roots themselves are placed by bisect and move the mutation
        stamp.

        Returns:
            The installed identifiers, parents before children.

        Raises:
            DocumentError: for a root that is the document node, is
                already present, is unknown to ``source``, or whose
                parent is not in this document.  Roots before the
                offending one stay installed.
        """
        nodes, children, owned = self._nodes, self._children, self._owned
        src_nodes, src_children = source._nodes, source._children
        installed: List[NodeId] = []
        for root, state in roots:
            if root.is_document:
                raise DocumentError("the document node cannot be grafted")
            if root in nodes:
                raise DocumentError(f"node {root!r} already present")
            if root.parent() not in nodes:
                raise DocumentError(
                    f"cannot graft {root!r}: parent not in this document"
                )
            node = source.node(root)
            if state is None:
                continue
            self._install(node)
            grown, states = [root], [state]
            for at, nid in enumerate(grown):  # extended as walked: breadth-first
                kids, kid_states = expand(nid, src_children[nid], states[at])
                children[nid] = kids
                if owned is not None:
                    owned.add(nid)
                for kid in kids:
                    nodes[kid] = src_nodes[kid]
                grown += kids
                states += kid_states
            installed += grown
        return installed

    def copy(self) -> "XMLDocument":
        """An independent copy sharing node objects and sibling lists.

        Two C-level dict copies: nodes are immutable, and each sibling
        list is shared until one side first writes to it.  Both sides
        give up ownership of every list here (the receiver may still be
        served to readers, so it must not write through to the copy
        either); a write then copies only the one list it changes.
        """
        dup = XMLDocument.__new__(XMLDocument)
        dup._scheme = self._scheme
        dup._nodes = dict(self._nodes)
        dup._children = dict(self._children)
        dup._owned = set()
        self._owned = set()
        dup._label_index = None
        dup._label_index_stamp = -1
        dup._kind_index = None
        dup._kind_index_stamp = -1
        dup._name_index = dict(self._name_index)
        dup.renumber_count = self.renumber_count
        dup.renumbered_nodes = self.renumbered_nodes
        dup.last_renumber_mapping = dict(self.last_renumber_mapping)
        dup.mutation_stamp = self.mutation_stamp
        return dup

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_can_contain(self, parent: NodeId, kind: NodeKind) -> None:
        pnode = self.node(parent)
        if pnode.kind is NodeKind.TEXT or pnode.kind is NodeKind.ATTRIBUTE:
            raise DocumentError(f"{pnode.kind.value} nodes cannot have children")
        if kind is NodeKind.DOCUMENT:
            raise DocumentError("cannot create a second document node")
        if pnode.is_document and kind is NodeKind.ELEMENT and self.root is not None:
            raise DocumentError("document already has a root element")

    def _fresh_child_id(
        self,
        parent: NodeId,
        before: Optional[NodeId],
        after: Optional[NodeId],
    ) -> NodeId:
        try:
            return self._scheme.child_id_between(parent, before, after)
        except RenumberingRequired:
            mapping = self._renumber_children(parent)
            before = mapping.get(before, before) if before is not None else None
            after = mapping.get(after, after) if after is not None else None
            # The sibling run is now 2-spaced, so a gap always exists.
            return self._scheme.child_id_between(parent, before, after)

    def _renumber_children(self, parent: NodeId) -> Dict[NodeId, NodeId]:
        """Reassign 2-spaced integer components to a sibling run.

        Only reachable under :class:`RenumberingScheme`; rewrites the ids
        of the siblings *and all their descendants* -- the cost that
        persistent schemes avoid (benchmark E13 measures it through
        :attr:`renumber_count` / :attr:`renumbered_nodes`).
        """
        kids = list(self._children.get(parent, ()))
        self.renumber_count += 1
        mapping: Dict[NodeId, NodeId] = {}
        for index, old in enumerate(kids):
            new = parent.child(Fraction(2 * (index + 1)))
            if new != old:
                for sub in self.subtree(old):
                    mapping[sub] = NodeId(new.components + sub.components[old.level :])
        self.last_renumber_mapping = mapping
        if not mapping:
            return mapping
        self.renumbered_nodes += len(mapping)
        new_nodes: Dict[NodeId, Node] = {}
        for nid, node in self._nodes.items():
            target = mapping.get(nid, nid)
            new_nodes[target] = Node(target, node.kind, node.label, node.value)
        new_children: Dict[NodeId, List[NodeId]] = {}
        for nid, cs in self._children.items():
            new_children[mapping.get(nid, nid)] = [mapping.get(c, c) for c in cs]
        self._nodes = new_nodes
        self._children = new_children
        self._owned = None  # every list was just rebuilt
        self._name_index = {}
        self.mutation_stamp += 1
        return mapping

    def renumber_siblings(self, parent: NodeId) -> None:
        """Public hook used by the E13 ablation to force a renumbering."""
        self._renumber_children(parent)

    def _own(self, parent: NodeId) -> List[NodeId]:
        """``parent``'s (existing) sibling list, made private to this
        document before its first write: copy-on-first-write."""
        owned = self._owned
        if owned is None or parent in owned:
            return self._children[parent]
        kids = self._children[parent] = list(self._children[parent])
        owned.add(parent)
        return kids

    def _install(self, node: Node) -> None:
        nid = node.nid
        parent = nid.parent()
        kids = self._own(parent)
        # Keep the sibling list strictly increasing: appending (loading,
        # append_child) is O(1), anything else a bisect on the stored key.
        if not kids or kids[-1] < nid:
            kids.append(nid)
        else:
            kids.insert(order_index(kids, nid), nid)
        self._name_index.pop(parent, None)
        self._nodes[nid] = node
        self._children[nid] = []  # a fresh id: no list to keep
        if self._owned is not None:
            self._owned.add(nid)
        self.mutation_stamp += 1
