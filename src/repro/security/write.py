"""Secure write access controls: XUpdate on views (paper section 4.4.2).

The paper's central fix over SQL and over its predecessor model [10]:
a write operation runs with the privileges *and the limitations* of the
submitting user, so the PATH parameter selecting nodes to update is
evaluated **on the user's view**, never on the source (section 2.2).
Only the selection step uses the view; the matched nodes are then
located in the source by their shared identifiers and mutated there.

Per-operation requirements (axioms 18-25):

===============  =============================================
operation        requirement on each node n selected by PATH
===============  =============================================
rename           ``update`` on n, and n not shown RESTRICTED
update           ``update`` **and** ``read`` on each child of n
                 *in the view*
append           ``insert`` on n
insert-before    ``insert`` on the parent of n
insert-after     ``insert`` on the parent of n
remove           ``delete`` on n (invisible descendants are
                 deleted silently: confidentiality wins over
                 integrity, the paper's explicit choice)
===============  =============================================

An operation may succeed on some selected nodes and fail on others; the
result reports both sets.  ``strict=True`` turns any denial into an
:class:`AccessDenied` error instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DeadlineExceeded, ReproError, UpdateAborted
from ..faults import kill_point
from ..xmltree.document import XMLDocument
from ..xmltree.labels import NodeId
from ..xmltree.node import NodeKind
from ..xpath.engine import XPathEngine
from ..xupdate.changeset import ChangeSet
from ..xupdate.executor import UpdateResult, XUpdateExecutor
from ..xupdate.operations import (
    Append,
    InsertAfter,
    InsertBefore,
    Remove,
    Rename,
    UpdateContent,
    UpdateScript,
    XUpdateOperation,
)
from .audit import AuditLog
from .perm import PermissionResolver
from .privileges import Privilege
from .view import View

__all__ = ["AccessDenied", "Denial", "SecureUpdateResult", "SecureWriteExecutor"]


class AccessDenied(ReproError, PermissionError):
    """Raised in strict mode when an operation is (partly) denied."""

    def __init__(self, denials: Sequence["Denial"]) -> None:
        lines = "; ".join(str(d) for d in denials)
        super().__init__(f"access denied: {lines}")
        self.denials = list(denials)


@dataclass(frozen=True)
class Denial:
    """One refused target: which node, which privilege, and why."""

    node: NodeId
    privilege: Privilege
    reason: str

    def __str__(self) -> str:
        return f"{self.reason} (needs {self.privilege} on {self.node!r})"


@dataclass
class SecureUpdateResult:
    """Outcome of one access-controlled operation or script.

    Attributes:
        document: the new source document (``dbnew``).
        selected: nodes the PATH matched *on the view*.
        affected: source nodes actually modified/created/removed.
        denials: selected nodes refused, with reasons.
        changes: the structural delta of the applied mutations, used by
            the serving layer for incremental view maintenance.
        summary: the acknowledgement a served commit answers with
            (``fully_applied``, ``selected``, ``affected``, ``denied``
            counts and the committed ``version``), set by the serving
            layer under its write lock; None outside it.
    """

    document: XMLDocument
    selected: List[NodeId] = field(default_factory=list)
    affected: List[NodeId] = field(default_factory=list)
    denials: List[Denial] = field(default_factory=list)
    changes: ChangeSet = field(default_factory=ChangeSet)
    summary: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def fully_applied(self) -> bool:
        """True when no selected node was refused."""
        return not self.denials

    def merge(self, other: "SecureUpdateResult") -> "SecureUpdateResult":
        """Fold a later operation's result into a script-level result."""
        return SecureUpdateResult(
            document=other.document,
            selected=self.selected + other.selected,
            affected=self.affected + other.affected,
            denials=self.denials + other.denials,
            changes=self.changes.merge(other.changes),
        )


class SecureWriteExecutor:
    """Applies XUpdate operations under the paper's write access controls.

    Args:
        executor: the unsecured executor providing the tree-mutation
            primitives and the XPath engine; a default is built if
            omitted.
        audit: optional audit log receiving one record per decision.
        resolver: the
            :class:`~repro.security.perm.PermissionResolver` that
            re-derives the view between the operations of a script; one
            over the executor's engine is built if omitted.

    Every privilege check reads the table in ``view.permissions`` --
    the view's own axiom-14 derivation, so a check costs one lookup.
    """

    def __init__(
        self,
        executor: Optional[XUpdateExecutor] = None,
        audit: Optional[AuditLog] = None,
        resolver: Optional[PermissionResolver] = None,
    ) -> None:
        self._executor = (
            executor
            if executor is not None
            else XUpdateExecutor(
                XPathEngine(lone_variable_name_test=True, star_matches_text=True)
            )
        )
        self._audit = audit
        self._resolver = (
            resolver
            if resolver is not None
            else PermissionResolver(self._executor.engine)
        )

    @property
    def executor(self) -> XUpdateExecutor:
        return self._executor

    def apply(
        self,
        view: View,
        operation: "XUpdateOperation | UpdateScript",
        strict: bool = False,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> SecureUpdateResult:
        """Apply an operation on behalf of the view's user.

        The input source document is not mutated; the result carries the
        new source.  For scripts, each operation after the first selects
        on the view re-derived against its predecessor's result.

        Scripts are transactional: every operation applies to a fresh
        copy of the source, so a failure at any point -- a strict-mode
        denial, an internal error, or an injected fault at the
        ``before-op`` / ``after-op`` kill-points -- abandons the whole
        script with the pre-script theory untouched.  The abort (with
        how many completed operations were rolled back, and why) is
        recorded in the audit log.

        Args:
            view: the user's current view (selection context and
                privilege table).
            operation: one XUpdate operation or a script.
            strict: raise :class:`AccessDenied` on any denial.
            checkpoint: optional callable invoked before every
                operation; raising
                :class:`~repro.errors.DeadlineExceeded` from it aborts
                the script through the savepoint path (nothing
                applied, an ``abort`` audit record written) and
                re-raises with its own type -- the serving layer's
                per-request deadlines ride this hook.

        Raises:
            AccessDenied: strict mode, when any selected node is
                refused; for scripts, prior operations are rolled back.
            DeadlineExceeded: the checkpoint expired; prior operations
                are rolled back.
            UpdateAborted: when a script operation fails for any other
                reason.
        """
        if isinstance(operation, UpdateScript):
            result = SecureUpdateResult(document=view.source)
            current_view = view
            for index, op in enumerate(operation):
                op_name = type(op).__name__
                if index:
                    # Only an operation that follows another needs the
                    # view re-derived against its predecessor's result.
                    current_view = current_view.rebased(
                        result.document, self._resolver
                    )
                try:
                    if checkpoint is not None:
                        checkpoint()
                    kill_point(
                        "before-op", index=index, operation=op_name, secure=True
                    )
                    step = self.apply(current_view, op, strict=strict)
                    kill_point(
                        "after-op", index=index, operation=op_name, secure=True
                    )
                except AccessDenied as exc:
                    self._audit_abort(view, op, index, f"denied: {exc}")
                    raise
                except DeadlineExceeded as exc:
                    self._audit_abort(view, op, index, f"deadline: {exc}")
                    raise
                except UpdateAborted:
                    raise
                except Exception as exc:
                    self._audit_abort(view, op, index, str(exc))
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
        if checkpoint is not None:
            checkpoint()
        result = self._apply_one(view, operation)
        if strict and result.denials:
            raise AccessDenied(result.denials)
        return result

    def _audit_abort(self, view: View, operation, index: int, reason: str) -> None:
        """Record a script abort (rolled-back operations included)."""
        if self._audit is None:
            return
        self._audit.record_abort(
            user=view.user,
            operation=type(operation).__name__,
            path=operation.path,
            reason=reason,
            operation_index=index,
            rolled_back=index,
        )

    # ------------------------------------------------------------------
    # one operation
    # ------------------------------------------------------------------
    def _apply_one(
        self, view: View, operation: XUpdateOperation
    ) -> SecureUpdateResult:
        # Axioms 18-25: nodes to update are selected on the *view*,
        # through the engine's compiled-evaluator cache.
        selected = self._executor.select_path(
            view.doc, operation.path, {"USER": view.user}
        )
        new_doc = view.source.copy()
        holds = view.permissions.holds
        affected: List[NodeId] = []
        denials: List[Denial] = []
        changes = ChangeSet()

        def decide(nid: NodeId, privilege: Privilege, ok: bool, reason: str) -> bool:
            if not ok:
                denials.append(Denial(nid, privilege, reason))
            if self._audit is not None:
                self._audit.record(
                    user=view.user,
                    operation=type(operation).__name__,
                    path=operation.path,
                    node=nid,
                    privilege=privilege,
                    allowed=ok,
                    reason=reason if not ok else "",
                )
            return ok

        if isinstance(operation, Rename):
            # Axioms 18-19 + the RESTRICTED-label prose rule.
            for nid in selected:
                if nid.is_document:
                    continue
                if not decide(
                    nid,
                    Privilege.UPDATE,
                    holds(nid, Privilege.UPDATE),
                    "rename requires the update privilege",
                ):
                    continue
                if not decide(
                    nid,
                    Privilege.READ,
                    not view.is_restricted(nid),
                    "RESTRICTED nodes cannot be renamed",
                ):
                    continue
                new_doc.relabel(nid, operation.new_name)
                changes.note_relabelled(nid)
                affected.append(nid)
        elif isinstance(operation, UpdateContent):
            # Axioms 20-21: children *in the view* need update and read.
            for nid in selected:
                for child in view.doc.children(nid):
                    ok = decide(
                        child,
                        Privilege.UPDATE,
                        holds(child, Privilege.UPDATE),
                        "update requires the update privilege on the child",
                    ) and decide(
                        child,
                        Privilege.READ,
                        holds(child, Privilege.READ),
                        "update requires the read privilege on the child",
                    )
                    if ok:
                        new_doc.relabel(child, operation.new_value)
                        changes.note_relabelled(child)
                        affected.append(child)
        elif isinstance(operation, Append):
            # Axiom 22: insert privilege on the selected node itself.
            for nid in selected:
                if decide(
                    nid,
                    Privilege.INSERT,
                    holds(nid, Privilege.INSERT),
                    "append requires the insert privilege",
                ):
                    root = operation.tree.attach(new_doc, nid)
                    changes.note_added(root)
                    affected.append(root)
        elif isinstance(operation, (InsertBefore, InsertAfter)):
            # Axioms 23-24: insert privilege on the *parent* of the node.
            for nid in selected:
                if nid.is_document:
                    denials.append(
                        Denial(
                            nid,
                            Privilege.INSERT,
                            "the document node has no siblings",
                        )
                    )
                    continue
                if view.source.kind(nid) is NodeKind.ATTRIBUTE:
                    denials.append(
                        Denial(
                            nid,
                            Privilege.INSERT,
                            "attributes have no sibling order to insert into",
                        )
                    )
                    continue
                parent = nid.parent()
                if decide(
                    parent,
                    Privilege.INSERT,
                    holds(parent, Privilege.INSERT),
                    "sibling insertion requires the insert privilege on the parent",
                ):
                    if isinstance(operation, InsertBefore):
                        root = operation.tree.attach_before(new_doc, nid)
                    else:
                        root = operation.tree.attach_after(new_doc, nid)
                    changes.note_added(root)
                    affected.append(root)
        elif isinstance(operation, Remove):
            # Axiom 25: delete privilege on the selected node; the whole
            # source subtree goes, invisible descendants included.
            for nid in sorted(selected, key=lambda n: n.level):
                if nid.is_document:
                    denials.append(
                        Denial(
                            nid, Privilege.DELETE, "the document node cannot be removed"
                        )
                    )
                    continue
                if decide(
                    nid,
                    Privilege.DELETE,
                    holds(nid, Privilege.DELETE),
                    "remove requires the delete privilege",
                ):
                    if nid in new_doc:
                        changes.note_removed(nid)
                        new_doc.remove_subtree(nid)
                        affected.append(nid)
        else:
            raise TypeError(f"unknown operation {operation!r}")

        return SecureUpdateResult(
            document=new_doc,
            selected=list(selected),
            affected=affected,
            denials=denials,
            changes=changes,
        )
