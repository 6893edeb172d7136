"""Audit log of access-control decisions.

Not part of the paper's formal model, but any credible implementation
of it needs one: every grant/deny decision taken by the secure write
executor (and optionally by view derivation) is recorded with the rule
machinery's reason, so administrators can answer "why was this write
refused?" without re-deriving axioms by hand.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from ..xmltree.labels import NodeId
from .privileges import Privilege

__all__ = ["AUDIT_LOG_SIZE", "AuditRecord", "AuditLog", "REJECTION_EVENTS"]

#: Records an :class:`AuditLog` retains: a serving process records every
#: decision of every commit, so an unbounded log is memory that grows
#: for as long as the server runs.
AUDIT_LOG_SIZE = 4096

#: Serving-layer rejection events the log accepts: a request
#: shed by admission control, expired against its deadline, given up
#: after exhausting its retries, refused by a fenced server, or shed
#: because its log volume is full and reclaiming space failed.
REJECTION_EVENTS = (
    "shed", "deadline", "retry-exhausted", "fenced", "disk-full"
)


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One access decision (or transaction event).

    Attributes:
        sequence: monotonically increasing record number.
        user: the session user.
        operation: operation class name (``Rename``, ``Remove``, ...) or
            ``"view"`` for view-derivation events.
        path: the PATH parameter of the operation.
        node: the node the decision was about; None for script-level
            events such as aborts.
        privilege: the privilege that was checked; None for
            script-level events.
        allowed: the outcome.
        reason: denial/abort reason; empty when allowed.
        event: ``"decision"`` for per-node grant/deny records,
            ``"abort"`` for a script rollback, or a serving-layer
            rejection: ``"shed"`` (admission control refused the
            request), ``"deadline"`` (the request's budget expired),
            ``"retry-exhausted"`` (every backoff retry was spent),
            ``"fenced"`` (the server was deposed) or ``"disk-full"``
            (the log volume is full and reclaiming space failed).
        rolled_back: for aborts, how many completed operations of the
            script were rolled back.
    """

    sequence: int
    user: str
    operation: str
    path: str
    node: Optional[NodeId] = None
    privilege: Optional[Privilege] = None
    allowed: bool = False
    reason: str = ""
    event: str = "decision"
    rolled_back: int = 0

    def __str__(self) -> str:
        if self.event == "abort":
            return (
                f"#{self.sequence} ABORT {self.user} {self.operation}"
                f"({self.path}) rolled back {self.rolled_back} "
                f"operation(s) -- {self.reason}"
            )
        if self.event in REJECTION_EVENTS:
            return (
                f"#{self.sequence} REJECT[{self.event}] {self.user} "
                f"{self.operation}({self.path}) -- {self.reason}"
            )
        verdict = "ALLOW" if self.allowed else "DENY "
        detail = f" -- {self.reason}" if self.reason else ""
        return (
            f"#{self.sequence} {verdict} {self.user} {self.operation}"
            f"({self.path}) {self.privilege} on {self.node!r}{detail}"
        )


class AuditLog:
    """An in-memory decision log, bounded to the most recent
    :data:`AUDIT_LOG_SIZE` records.

    ``sequence`` numbers keep counting from 1 across evictions, so a
    gap before the oldest retained record is visible (and counted by
    :attr:`dropped`); ``len()``, iteration and the filters below cover
    the retained records.
    """

    def __init__(self) -> None:
        self._records: Deque[AuditRecord] = deque(maxlen=AUDIT_LOG_SIZE)
        # Request threads record rejections while the writer records
        # decisions; a deque cannot be iterated while it is appended to.
        self._lock = threading.Lock()
        self._sequence = 0  # of the newest record
        self._cleared = 0  # of the newest record clear() discarded

    def record(
        self,
        user: str,
        operation: str,
        path: str,
        node: NodeId,
        privilege: Privilege,
        allowed: bool,
        reason: str = "",
    ) -> AuditRecord:
        """Append one decision and return the stored record."""
        return self._append(
            user=user,
            operation=operation,
            path=path,
            node=node,
            privilege=privilege,
            allowed=allowed,
            reason=reason,
        )

    def record_abort(
        self,
        user: str,
        operation: str,
        path: str,
        reason: str,
        operation_index: int = 0,
        rolled_back: int = 0,
    ) -> AuditRecord:
        """Append a script-abort event (a failed or rolled-back write).

        Args:
            user: the session user whose script aborted.
            operation: class name of the failing operation.
            path: the failing operation's PATH parameter.
            reason: why the script aborted.
            operation_index: zero-based index of the failing operation.
            rolled_back: completed operations undone by the rollback.
        """
        return self._append(
            user=user,
            operation=operation,
            path=path,
            allowed=False,
            reason=f"aborted at operation {operation_index}: {reason}",
            event="abort",
            rolled_back=rolled_back,
        )

    def record_rejected(
        self,
        user: str,
        operation: str,
        path: str,
        reason: str,
        event: str,
    ) -> AuditRecord:
        """Append a serving-layer rejection (shed / timed-out /
        retry-exhausted request), mirroring :meth:`record_abort` for
        requests that never reached -- or never finished -- execution.

        Args:
            user: the requesting user.
            operation: request kind (operation class name, ``"query"``,
                ``"view"``, ...).
            path: the request's PATH parameter when it had one.
            reason: human-readable rejection reason.
            event: one of :data:`REJECTION_EVENTS`.
        """
        if event not in REJECTION_EVENTS:
            raise ValueError(
                f"unknown rejection event {event!r}; "
                f"known: {', '.join(REJECTION_EVENTS)}"
            )
        return self._append(
            user=user,
            operation=operation,
            path=path,
            allowed=False,
            reason=reason,
            event=event,
        )

    def _append(self, **fields) -> AuditRecord:
        with self._lock:
            self._sequence += 1
            entry = AuditRecord(sequence=self._sequence, **fields)
            self._records.append(entry)
        return entry

    def _retained(self) -> List[AuditRecord]:
        with self._lock:
            return list(self._records)

    @property
    def dropped(self) -> int:
        """Records evicted to keep the log within its bound (since the
        last :meth:`clear`)."""
        with self._lock:
            return self._sequence - self._cleared - len(self._records)

    def aborts(self) -> List[AuditRecord]:
        """Only the script-abort events."""
        return [r for r in self._retained() if r.event == "abort"]

    def rejections(self, event: Optional[str] = None) -> List[AuditRecord]:
        """Serving-layer rejection records, optionally filtered to one
        of :data:`REJECTION_EVENTS`."""
        return [
            r
            for r in self._retained()
            if r.event in REJECTION_EVENTS
            and (event is None or r.event == event)
        ]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._retained())

    def denials(self) -> List[AuditRecord]:
        """Only the refused decisions."""
        return [r for r in self._retained() if not r.allowed]

    def for_user(self, user: str) -> List[AuditRecord]:
        """All decisions concerning one user."""
        return [r for r in self._retained() if r.user == user]

    def clear(self) -> None:
        """Drop all records (testing convenience)."""
        with self._lock:
            self._records.clear()
            self._cleared = self._sequence
