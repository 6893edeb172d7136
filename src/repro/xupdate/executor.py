"""Unsecured XUpdate execution: the paper's formulae (2)-(9).

This executor implements the *unprotected* semantics of section 3.4:
PATH is evaluated on the source document and no privileges are checked.
The secure semantics (axioms 18-25) are layered on top by
:mod:`repro.security.write`; both share the tree-mutation primitives in
this module.

Execution is functional, matching the paper's theory-replacement
reading: ``apply`` maps a theory ``db`` to a fresh theory ``dbnew`` and
reports what it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError, UpdateAborted
from ..faults import kill_point
from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId
from ..xmltree.node import NodeKind
from ..xpath.engine import XPathEngine
from ..xpath.values import XPathValue
from .changeset import ChangeSet
from .operations import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
    XUpdateOperation,
)

__all__ = ["UpdateResult", "XUpdateExecutor", "XUpdateError"]


class XUpdateError(ReproError):
    """Unknown operation type or malformed target."""


@dataclass
class UpdateResult:
    """Outcome of applying one operation (or script).

    Attributes:
        document: the new document (the theory ``dbnew``).
        selected: nodes addressed by PATH, in document order.
        affected: nodes actually changed/created/removed.  For creation
            operations these are the fresh identifiers of the inserted
            fragment roots (the paper's ``create_number`` outputs).
        denied: nodes selected but skipped -- always empty for the
            unsecured executor; the secure executor fills it.
        changes: the structural delta (roots of added and removed
            subtrees, relabelled nodes) the serving layer uses for
            incremental view maintenance.
    """

    document: XMLDocument
    selected: List[NodeId] = field(default_factory=list)
    affected: List[NodeId] = field(default_factory=list)
    denied: List[NodeId] = field(default_factory=list)
    changes: ChangeSet = field(default_factory=ChangeSet)

    def merge(self, other: "UpdateResult") -> "UpdateResult":
        """Fold a later operation's result into a script-level result."""
        return UpdateResult(
            document=other.document,
            selected=self.selected + other.selected,
            affected=self.affected + other.affected,
            denied=self.denied + other.denied,
            changes=self.changes.merge(other.changes),
        )


class XUpdateExecutor:
    """Applies XUpdate operations with the paper's *unsecured* semantics.

    Args:
        engine: XPath engine used to resolve PATH parameters; a default
            engine is created if omitted.
    """

    def __init__(self, engine: Optional[XPathEngine] = None) -> None:
        self._engine = engine if engine is not None else XPathEngine()

    @property
    def engine(self) -> XPathEngine:
        return self._engine

    def select_path(
        self,
        doc: XMLDocument,
        path: str,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> List[NodeId]:
        """Resolve a PATH parameter to the node-set it addresses.

        Operation paths repeat across scripts, retries, and secure
        re-checks; the engine's compiled-evaluator cache makes every
        evaluation after the first skip parsing *and* AST dispatch.
        """
        return self._engine.select(doc, path, variables=variables)

    def apply(
        self,
        doc: XMLDocument,
        operation: XUpdateOperation | UpdateScript,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> UpdateResult:
        """Apply one operation (or a whole script) to a copy of ``doc``.

        The input document is never mutated; the result carries the new
        document (``dbnew``).

        Scripts are transactional: each operation runs against a fresh
        copy, so the document after operation *i* is a savepoint.  When
        any operation fails, the whole script is abandoned and
        :class:`~repro.errors.UpdateAborted` reports the failing index
        with the last savepoint attached -- the input ``doc`` is the
        rollback state, untouched by construction.  The ``before-op``
        and ``after-op`` kill-points of :mod:`repro.faults` are
        consulted around every operation.

        Raises:
            XUpdateError: for an unknown operation type (single
                operations).
            UpdateAborted: when any operation of a script fails.
        """
        if isinstance(operation, UpdateScript):
            result = UpdateResult(document=doc)
            for index, op in enumerate(operation):
                op_name = type(op).__name__
                try:
                    kill_point("before-op", index=index, operation=op_name)
                    step = self.apply(result.document, op, variables)
                    kill_point("after-op", index=index, operation=op_name)
                except UpdateAborted:
                    raise
                except Exception as exc:
                    raise UpdateAborted(
                        f"script aborted at operation {index} ({op_name}): "
                        f"{exc}; {index} completed operation(s) rolled back",
                        operation_index=index,
                        operation=op_name,
                        completed=index,
                        savepoint=result.document,
                    ) from exc
                result = result.merge(step)
            return result
        new_doc = doc.copy()
        targets = self.select_path(new_doc, operation.path, variables)
        return self._dispatch(new_doc, operation, targets)

    def apply_in_place(
        self,
        doc: XMLDocument,
        operation: XUpdateOperation,
        variables: Optional[Mapping[str, XPathValue]] = None,
    ) -> UpdateResult:
        """Like :meth:`apply` but mutates ``doc`` (no copy)."""
        targets = self.select_path(doc, operation.path, variables)
        return self._dispatch(doc, operation, targets)

    # ------------------------------------------------------------------
    # per-operation mutation primitives (shared with the secure layer)
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        doc: XMLDocument,
        operation: XUpdateOperation,
        targets: Sequence[NodeId],
    ) -> UpdateResult:
        if isinstance(operation, Rename):
            return self.do_rename(doc, targets, operation.new_name)
        if isinstance(operation, UpdateContent):
            return self.do_update_content(doc, targets, operation.new_value)
        if isinstance(operation, Append):
            return self.do_append(doc, targets, operation.tree)
        if isinstance(operation, InsertBefore):
            return self.do_insert_before(doc, targets, operation.tree)
        if isinstance(operation, InsertAfter):
            return self.do_insert_after(doc, targets, operation.tree)
        if isinstance(operation, Remove):
            return self.do_remove(doc, targets)
        raise XUpdateError(f"unknown operation {operation!r}")

    def do_rename(
        self, doc: XMLDocument, targets: Sequence[NodeId], new_name: str
    ) -> UpdateResult:
        """Formulae (2)-(3): relabel each addressed node to VNEW."""
        affected = []
        changes = ChangeSet()
        for nid in targets:
            if nid.is_document:
                continue  # the document node has no renameable label
            doc.relabel(nid, new_name)
            changes.note_relabelled(nid)
            affected.append(nid)
        return UpdateResult(doc, list(targets), affected, changes=changes)

    def do_update_content(
        self, doc: XMLDocument, targets: Sequence[NodeId], new_value: str
    ) -> UpdateResult:
        """Formulae (4)-(5): relabel each *child* of an addressed node.

        When an addressed element has no children, XUpdate's operational
        behaviour is to give it the new text content; the paper's
        formulae are silent on that case (an empty set of children means
        nothing is updated), so we follow the formulae strictly and add
        content only through ``strict=False`` callers if ever needed.
        """
        affected = []
        changes = ChangeSet()
        for nid in targets:
            for child in doc.children(nid):
                doc.relabel(child, new_value)
                changes.note_relabelled(child)
                affected.append(child)
        return UpdateResult(doc, list(targets), affected, changes=changes)

    def do_append(
        self, doc: XMLDocument, targets: Sequence[NodeId], tree
    ) -> UpdateResult:
        """Formulae (6)-(7), o=append: tree becomes the last subtree."""
        affected = []
        changes = ChangeSet()
        for nid in targets:
            root = tree.attach(doc, nid)
            changes.note_added(root)
            affected.append(root)
        return UpdateResult(doc, list(targets), affected, changes=changes)

    def do_insert_before(
        self, doc: XMLDocument, targets: Sequence[NodeId], tree
    ) -> UpdateResult:
        """Formulae (6)-(7), o=insert-before."""
        affected = []
        changes = ChangeSet()
        for nid in targets:
            self._check_sibling_target(doc, nid)
            root = tree.attach_before(doc, nid)
            changes.note_added(root)
            affected.append(root)
        return UpdateResult(doc, list(targets), affected, changes=changes)

    def do_insert_after(
        self, doc: XMLDocument, targets: Sequence[NodeId], tree
    ) -> UpdateResult:
        """Formulae (6)-(7), o=insert-after."""
        affected = []
        changes = ChangeSet()
        for nid in targets:
            self._check_sibling_target(doc, nid)
            root = tree.attach_after(doc, nid)
            changes.note_added(root)
            affected.append(root)
        return UpdateResult(doc, list(targets), affected, changes=changes)

    @staticmethod
    def _check_sibling_target(doc: XMLDocument, nid: NodeId) -> None:
        if nid.is_document:
            raise XUpdateError("cannot insert a sibling of the document node")
        if doc.kind(nid) is NodeKind.ATTRIBUTE:
            raise XUpdateError("attributes have no sibling order to insert into")

    def do_remove(self, doc: XMLDocument, targets: Sequence[NodeId]) -> UpdateResult:
        """Formulae (8)-(9): delete the subtree of each addressed node.

        Targets are processed outermost-first so nested targets vanish
        with their ancestors, matching the ``undeleted`` fixpoint.
        """
        affected = []
        changes = ChangeSet()
        for nid in sorted(targets, key=lambda n: n.level):
            if nid.is_document:
                raise XUpdateError("cannot remove the document node")
            if nid in doc:
                changes.note_removed(nid)
                doc.remove_subtree(nid)
                affected.append(nid)
        return UpdateResult(doc, list(targets), affected, changes=changes)
