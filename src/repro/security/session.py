"""User sessions: the paper's ``logged(s)`` made operational.

A :class:`Session` binds one logged-in user to a
:class:`~repro.security.database.SecureXMLDatabase`.  Everything the
user does flows through their view:

- queries (:meth:`Session.query` / :meth:`Session.select`) evaluate on
  the view document, with ``$USER`` bound to the login;
- updates (:meth:`Session.execute`) follow axioms 18-25: PATH selection
  on the view, privilege checks per operation, then mutation of the
  source; successful updates commit to the database and invalidate the
  cached view.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..xmltree.labels import NodeId
from ..xmltree.serializer import render_tree, serialize
from ..xpath.values import NodeSet, XPathValue
from ..xupdate.operations import UpdateScript, XUpdateOperation
from ..xupdate.parser import parse_xupdate
from .privileges import Privilege
from .view import View
from .write import SecureUpdateResult, SecureWriteExecutor

__all__ = ["ExplainEntry", "SESSION_CACHE_SIZE", "Session", "SessionCache"]

#: Served sessions a server or replica keeps: each pins its user's view,
#: so the bound is :data:`~repro.security.viewcache.VIEW_CACHE_SIZE`,
#: the number of fingerprints whose table and view the database keeps.
SESSION_CACHE_SIZE = 128


@dataclass(frozen=True)
class ExplainEntry:
    """One line of :meth:`Session.explain` output.

    Attributes:
        node: the node the path selected (on the view).
        path_string: human-readable absolute path of the node.
        privilege: the privilege that was asked about.
        held: whether the session user holds it (axiom 14's verdict).
        rule: the deciding policy rule, or None under the closed-world
            default deny.
    """

    node: NodeId
    path_string: str
    privilege: "Privilege"
    held: bool
    rule: object = None

    def __str__(self) -> str:
        verdict = "GRANTED" if self.held else "DENIED "
        why = f"by {self.rule}" if self.rule is not None else "by default (no rule)"
        return f"{verdict} {self.privilege} on {self.path_string} {why}"


class Session:
    """One user's connection to a secure XML database.

    Obtained from :meth:`SecureXMLDatabase.login`; not constructed
    directly.
    """

    def __init__(
        self,
        database: "SecureXMLDatabase",  # noqa: F821
        user: str,
    ) -> None:
        self._database = database
        self._user = user
        self._view = None
        self._view_version: int = -1

    @property
    def user(self) -> str:
        """The logged-in subject (the paper's ``logged(s)``)."""
        return self._user

    @property
    def database(self) -> "SecureXMLDatabase":  # noqa: F821
        return self._database

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def view(self) -> View:
        """The current authorized view (axioms 15-17), cached per
        database version."""
        version = self._database.version
        if self._view is None or self._view_version != version:
            self._view = self._database.build_view(self._user)
            self._view_version = version
        return self._view

    def query(self, path: str) -> XPathValue:
        """Evaluate an XPath expression on the view.

        ``$USER`` is bound to the session login.  The result may be a
        node-set, string, number or boolean.
        """
        view = self.view()
        return self._database.engine.evaluate(
            view.doc, path, variables={"USER": self._user}
        )

    def select(self, path: str) -> NodeSet:
        """Evaluate a path on the view, requiring a node-set result."""
        view = self.view()
        return self._database.engine.select(
            view.doc, path, variables={"USER": self._user}
        )

    def read_xml(self, indent: Optional[str] = None) -> str:
        """The view serialized as XML (what this user may see)."""
        return serialize(self.view().doc, indent=indent)

    def read_tree(self) -> str:
        """The view in the paper's figure notation (one node per line)."""
        return render_tree(self.view().doc)

    def can(self, privilege: "str | Privilege", nid: NodeId) -> bool:
        """Does this user hold ``privilege`` on node ``nid``?

        One lookup in the user's permission table
        (:meth:`SecureXMLDatabase.check`), which is shared with every
        user of the same fingerprint and patched across commits; a
        privilege probe never builds a view.
        """
        return self._database.check(self._user, privilege, nid)

    def explain(
        self, privilege: "str | Privilege", path: str
    ) -> List["ExplainEntry"]:
        """Why does (or doesn't) this user hold a privilege on a path?

        For each node the path selects *on the view*, report whether
        the privilege is held and which policy rule decided it (None
        when no rule matched -- the closed-world default deny).

        Example::

            for entry in session.explain("read", "//diagnosis/*"):
                print(entry)
        """
        privilege = Privilege.parse(privilege)
        view = self.view()
        table = view.permissions
        out: List[ExplainEntry] = []
        for nid in self.select(path):
            out.append(
                ExplainEntry(
                    node=nid,
                    path_string=view.source.path_string(nid),
                    privilege=privilege,
                    held=table.holds(nid, privilege),
                    rule=table.explain(nid, privilege),
                )
            )
        return out

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def execute(
        self,
        operation: Union[XUpdateOperation, UpdateScript, str],
        strict: bool = False,
        checkpoint: Optional[Callable[[], None]] = None,
    ) -> SecureUpdateResult:
        """Apply an XUpdate operation, script, or XUpdate XML document.

        Selection happens on this session's view (axioms 18-25); the
        resulting document is committed to the database, so other
        sessions observe it on their next view refresh.

        The call is transactional: either the complete ``dbnew`` is
        committed (document swap + version bump, which invalidates every
        session's cached view and the permission caches), or -- on a
        strict-mode denial, an internal failure, or an injected fault --
        the database stays at the pre-script theory and every session's
        view is byte-identical to what it was before the call.

        Args:
            operation: an operation object, an :class:`UpdateScript`,
                or XUpdate XML text starting at
                ``<xupdate:modifications>``.
            strict: raise
                :class:`~repro.security.write.AccessDenied` if any
                selected node is refused (default: partial application
                with denials reported in the result).
            checkpoint: optional callable run before every operation
                of the script -- the serving layer's per-request
                deadline hook.  Raising
                :class:`~repro.errors.DeadlineExceeded` from it aborts
                the script via the savepoint path with nothing
                committed.

        Raises:
            AccessDenied: strict mode, any refused node; nothing is
                committed.
            UpdateAborted: a script operation failed; nothing is
                committed and the abort is in the audit log.
            DeadlineExceeded: the checkpoint expired mid-script;
                nothing is committed.
            ConcurrentUpdateError: another session committed while this
                script was executing; nothing is committed.
        """
        if isinstance(operation, str):
            operation = parse_xupdate(operation)
        executor: SecureWriteExecutor = self._database.write_executor
        from .database import CommitOrigin

        with self._database.transaction() as txn:
            result = executor.apply(
                self.view(), operation, strict=strict, checkpoint=checkpoint
            )
            txn.commit(
                result.document,
                result.changes,
                origin=CommitOrigin(
                    "update",
                    operation=operation,
                    user=self._user,
                    strict=strict,
                ),
            )
        return result


class SessionCache:
    """The served sessions of one server or replica: a thread-safe LRU
    of :data:`SESSION_CACHE_SIZE` logins, keyed by user.

    A cached user keeps one session (and its per-version view) across
    requests; past the bound the least recently served user is dropped
    and simply logs in again on their next request -- a session holds
    nothing that is not re-derived from the database.

    Args:
        login: ``user -> Session`` for a miss (called under the cache
            lock, so one user never gets two live sessions).
    """

    def __init__(self, login: Callable[[str], Session]) -> None:
        self._login = login
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, user: str) -> Session:
        """The user's session, logging in on a miss."""
        with self._lock:
            session = self._sessions.get(user)
            if session is None:
                session = self._sessions[user] = self._login(user)
                if len(self._sessions) > SESSION_CACHE_SIZE:
                    self._sessions.popitem(last=False)
            else:
                self._sessions.move_to_end(user)
            return session

    def clear(self) -> None:
        """Drop every session (the database underneath was replaced)."""
        with self._lock:
            self._sessions.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
