"""The secure XML database facade (paper section 4).

:class:`SecureXMLDatabase` assembles the whole model: a source document
(theory ``db``), a subject hierarchy (set ``S`` + axioms 11-12), a
security policy (set ``P`` + axiom 14), view derivation (axioms 15-17)
and access-controlled updates (axioms 18-25).  Users interact through
:class:`~repro.security.session.Session` objects obtained via
:meth:`login`.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, List, Optional

from ..errors import ConcurrentUpdateError
from ..xmltree.document import XMLDocument
from ..xmltree.labels import NumberingScheme
from ..xmltree.parser import parse_xml
from ..xpath.engine import XPathEngine
from ..xupdate.changeset import ChangeSet
from ..xupdate.executor import UpdateResult, XUpdateExecutor
from ..xupdate.operations import UpdateScript, XUpdateOperation
from .audit import AuditLog
from .perm import PermissionResolver, PermissionTable
from .policy import Policy
from .privileges import Privilege
from .session import Session
from .subjects import SubjectError, SubjectHierarchy
from .view import View, ViewBuilder

__all__ = ["CommitOrigin", "SecureXMLDatabase", "Transaction"]

logger = logging.getLogger("repro.security.database")


@dataclass(frozen=True)
class CommitOrigin:
    """What produced a commit -- the write-ahead log's provenance.

    The paper makes ``dbnew`` a pure function of ``db`` and the update
    script, so a commit whose origin carries the script can be logged
    *logically* (the script text) and replayed through the real secure
    executor path.  Commits with no origin (a direct
    :meth:`SecureXMLDatabase.commit` of a document) are still durable --
    the log falls back to a full state record.

    Attributes:
        kind: ``"update"`` (a session's access-controlled script) or
            ``"admin"`` (an unsecured administrative script).
        operation: the committed operation or script.
        user: (update) the session's login name.
        strict: (update) whether denied-operation semantics was strict.
    """

    kind: str
    operation: Any = None
    user: Optional[str] = None
    strict: bool = False


class Transaction:
    """One all-or-nothing theory replacement (``db`` -> ``dbnew``).

    Obtained from :meth:`SecureXMLDatabase.transaction`.  The paper's
    update semantics replaces the whole theory in one step; this object
    makes that operational: between ``begin`` (construction) and
    :meth:`commit`, the database is never observed in an intermediate
    state -- commit installs the new document and bumps the version in
    one swap (every cached permission table and view goes stale until
    it is advanced onto the new document), while :meth:`rollback`
    (or an exception inside the ``with`` block) leaves the pre-script
    theory exactly as it was.

    Commit is guarded by optimistic concurrency: if another transaction
    committed since this one began, :class:`ConcurrentUpdateError` is
    raised instead of silently clobbering the interleaved write.

    Example::

        with db.transaction() as txn:
            result = db.write_executor.apply(view, script, strict=True)
            txn.commit(result.document)
    """

    def __init__(self, database: "SecureXMLDatabase") -> None:
        self._database = database
        self._base_version = database.version
        self._base_document = database.document
        self._state = "active"

    @property
    def active(self) -> bool:
        """True until the transaction commits or rolls back."""
        return self._state == "active"

    def commit(
        self,
        document: XMLDocument,
        changes: Optional[ChangeSet] = None,
        origin: Optional[CommitOrigin] = None,
    ) -> None:
        """Install ``document`` as the new theory, atomically.

        Args:
            document: the new source document (``dbnew``).
            changes: the update's structural delta, published to the
                view cache for incremental maintenance; None (or a
                conservative change-set) makes every entry fall back to
                full re-derivation.
            origin: provenance for the write-ahead log (the committed
                script, when there is one); None logs a full state
                record instead.

        Raises:
            ConcurrentUpdateError: another commit happened since this
                transaction began; nothing is installed.
            WalWriteError: the attached write-ahead log could not make
                the commit durable; nothing is installed.
            RuntimeError: the transaction already ended.
        """
        if not self.active:
            raise RuntimeError(f"transaction already {self._state}")
        # The version check and the install must be one atomic step:
        # under real threads, two committers passing the check together
        # would both install and one write would be silently lost.  The
        # database's commit lock makes check-then-install a critical
        # section (readers never take it; the swap itself is a single
        # reference assignment they can observe safely).
        with self._database._commit_lock:
            if self._database.version != self._base_version:
                self._state = "rolled back"
                raise ConcurrentUpdateError(
                    f"database moved from version {self._base_version} to "
                    f"{self._database.version} since this transaction began"
                )
            self._database._install(document, changes, origin)
        self._state = "committed"

    def rollback(self) -> None:
        """End the transaction leaving the database untouched."""
        if self.active:
            self._state = "rolled back"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None or self.active:
            self.rollback()


class SecureXMLDatabase:
    """An XML database protected by the paper's access control model.

    Args:
        document: the source document.
        subjects: the subject hierarchy; a fresh empty one if omitted.
        policy: the security policy; a fresh empty one (which, under the
            closed-world assumption, denies everything) if omitted.
        audit: audit log receiving write decisions; created if omitted.

    Example::

        db = SecureXMLDatabase.from_xml("<patients>...</patients>")
        db.subjects.add_role("staff")
        db.subjects.add_user("laporte", member_of="staff")
        db.policy.grant("read", "//*", "staff")
        session = db.login("laporte")
        print(session.read_xml())
    """

    def __init__(
        self,
        document: XMLDocument,
        subjects: Optional[SubjectHierarchy] = None,
        policy: Optional[Policy] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self._document = document
        self._subjects = subjects if subjects is not None else SubjectHierarchy()
        self._policy = (
            policy if policy is not None else Policy(self._subjects)
        )
        if self._policy.subjects is not self._subjects:
            raise ValueError("policy must reference the database's subjects")
        self._audit = audit if audit is not None else AuditLog()
        self._engine = XPathEngine(
            lone_variable_name_test=True, star_matches_text=True
        )
        self._resolver = PermissionResolver(self._engine)
        self._view_builder = ViewBuilder(self._resolver)
        self._unsecured = XUpdateExecutor(self._engine)
        from .write import SecureWriteExecutor

        self._write_executor = SecureWriteExecutor(
            self._unsecured, self._audit, resolver=self._resolver
        )
        from .viewcache import ViewCache

        self._view_cache = ViewCache()
        self._version = 0
        self._commit_lock = threading.Lock()
        self._degraded_view_serves = 0
        self._wal = None
        self._read_only = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(
        cls,
        source: str,
        subjects: Optional[SubjectHierarchy] = None,
        policy: Optional[Policy] = None,
        scheme: Optional[NumberingScheme] = None,
    ) -> "SecureXMLDatabase":
        """Build a database by parsing XML text."""
        return cls(parse_xml(source, scheme), subjects, policy)

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    @property
    def document(self) -> XMLDocument:
        """The source document (the administrator's unrestricted view)."""
        return self._document

    @property
    def subjects(self) -> SubjectHierarchy:
        return self._subjects

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def audit(self) -> AuditLog:
        return self._audit

    @property
    def engine(self) -> XPathEngine:
        """The shared XPath engine (paper-compat options enabled)."""
        return self._engine

    @property
    def resolver(self) -> PermissionResolver:
        return self._resolver

    @property
    def write_executor(self):
        return self._write_executor

    @property
    def version(self) -> int:
        """Monotonic commit counter; sessions use it to refresh views."""
        return self._version

    @property
    def read_only(self) -> bool:
        """True while the database refuses commits (a serving replica).

        Set by :meth:`set_read_only`; the replication layer marks a
        replica's database read-only so any write that sneaks past the
        router (a cached session, a direct ``admin_update``) fails with
        :class:`~repro.errors.ReadOnlyReplica` instead of silently
        forking the replica from the primary's history.  The replica's
        own apply path lifts the guard around each replayed record.
        """
        return self._read_only

    def set_read_only(self, flag: bool) -> None:
        """Raise (or lift) the commit guard; see :attr:`read_only`."""
        self._read_only = bool(flag)

    # ------------------------------------------------------------------
    # sessions and views
    # ------------------------------------------------------------------
    def login(self, user: str) -> Session:
        """Open a session for a declared *user*.

        Args:
            user: the login name (must be a user, not a role).

        Raises:
            SubjectError: if the subject is unknown or is a role (roles
                cannot log in; they exist to be granted to).
        """
        if user not in self._subjects:
            raise SubjectError(f"unknown subject {user!r}")
        if not self._subjects.is_user(user):
            raise SubjectError(f"{user!r} is a role; only users can log in")
        return Session(self, user)

    def build_view(self, user: str) -> View:
        """Derive the view for any declared subject (axioms 15-17).

        The view is served from the shared cache: users with identical,
        ``$USER``-free permission tables receive facades over one
        materialization, and stale cached views are patched from commit
        change-sets instead of rebuilt.  Served views are shared state
        -- treat them as immutable, as every in-tree consumer already
        does.

        The degradation ladder (DESIGN.md §9): a failing incremental
        patch is retried as a full build *inside* the cache; if the
        shared cache itself raises, the failure is logged, counted
        (``degraded_view_serves`` in :meth:`stats`), and the view is
        rebuilt per-session -- a cache bug never fails a read.
        """
        try:
            return self._view_cache.view_for(self, user)
        except SubjectError:
            raise  # a real domain error, not a cache failure
        except Exception:
            self._degraded_view_serves += 1
            logger.exception(
                "shared view cache failed for %r; rebuilding per-session",
                user,
            )
        return self._view_builder.build(self._document, self._policy, user)

    def permissions_for(self, user: str) -> PermissionTable:
        """Derive the full ``perm`` table for a subject (axiom 14).

        Served from the same fingerprint cache entry as
        :meth:`build_view` (advanced across commits like the view), so
        repeated calls for users sharing a permission fingerprint cost
        O(1) until the document or the applicable rules change; a
        table lookup never builds a view.
        """
        return self._view_cache.table_for(self, user)

    def check(self, user: str, privilege, nid) -> bool:
        """Decide one ``perm(user, nid, privilege)`` fact.

        Asks :meth:`permissions_for`'s table -- fingerprint-cached
        across users and rebound across commits -- which runs the
        permission automaton down the node's ancestry, so a probe never
        builds a view (DESIGN.md §11, one decision procedure).
        """
        return self.permissions_for(user).holds(nid, Privilege.parse(privilege))

    def stats(self) -> dict:
        """Serving-layer counters: permission-cache and view-cache
        decisions since construction, plus the commit count.

        Keys are the union of
        :attr:`repro.security.perm.PermissionResolver.stats` and
        :attr:`repro.security.viewcache.ViewCache.stats` (prefixed
        ``view_``, except ``table_cache_hits``), e.g. ``view_hits`` /
        ``view_incremental_patches`` / ``full_resolves`` (permission
        automata compiled) / ``path_evals`` (exception rule paths
        evaluated), plus ``rules_compiled`` (compiled-cache misses of
        the one XPath engine that rule paths, queries and XUpdate PATHs
        share) and the degradation ledger: ``degraded_rebuilds``
        (cache-entry patches that raised and were re-derived from
        scratch) and ``degraded_view_serves`` (reads that fell all the
        way back from the shared cache to a per-session build).
        """
        out = {"version": self._version, "read_only": self._read_only}
        out.update(self._resolver.stats)
        out["rules_compiled"] = self._engine.paths_compiled
        cache = dict(self._view_cache.stats)
        out["table_cache_hits"] = cache.pop("table_cache_hits")
        out.update({f"view_{k}": v for k, v in cache.items()})
        out["degraded_rebuilds"] = cache["degraded_rebuilds"]
        out["degraded_view_serves"] = self._degraded_view_serves
        # Pinned to 0 for bench/harness.py, which indexes these keys.
        out["static_decisions"] = out["static_fallbacks"] = 0
        out["delta_resolves"] = out["path_cache_hits"] = 0
        out["paths_patched"] = out["paths_carried"] = 0
        return out

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def admin_update(
        self, operation: "XUpdateOperation | UpdateScript | str"
    ) -> UpdateResult:
        """Apply an update with *no* access control (the administrator /
        database-owner path, outside the paper's model).

        Transactional like :meth:`Session.execute`: a failing script
        (:class:`~repro.errors.UpdateAborted`) commits nothing.  Like
        ``execute``, accepts an operation, a script, or XUpdate XML
        text.
        """
        if isinstance(operation, str):
            from ..xupdate.parser import parse_xupdate

            operation = parse_xupdate(operation)
        with self.transaction() as txn:
            result = self._unsecured.apply(self._document, operation)
            txn.commit(
                result.document,
                result.changes,
                origin=CommitOrigin("admin", operation=operation),
            )
        return result

    def transaction(self) -> Transaction:
        """Begin an all-or-nothing theory replacement."""
        return Transaction(self)

    def commit(
        self, document: XMLDocument, changes: Optional[ChangeSet] = None
    ) -> None:
        """Install a new source document and bump the version.

        Prefer :meth:`transaction`, which adds rollback-on-error and a
        concurrent-commit guard around this swap.
        """
        self._install(document, changes)

    def _install(
        self,
        document: XMLDocument,
        changes: Optional[ChangeSet] = None,
        origin: Optional[CommitOrigin] = None,
    ) -> None:
        # The single point where the theory is replaced.  Cache entries
        # are current only for the installed document object at its
        # mutation stamp, so they can never serve a half-installed
        # state.  The change-set (possibly None = "unknown extent") is
        # published to the view cache *after* the swap, so maintenance
        # sees the installed generation.
        if self._read_only:
            from ..errors import ReadOnlyReplica

            raise ReadOnlyReplica(
                "this database serves as a read-only replica; route the "
                "write to the primary"
            )
        if self._wal is not None:
            # Write-ahead: the record must be durable *before* anyone
            # can observe the new theory.  A failed append raises
            # (WalWriteError) and nothing is installed -- the commit
            # simply never happened.
            self._wal.log_commit(
                self._version + 1,
                document,
                self._subjects,
                self._policy,
                changes,
                origin,
            )
        old_document = self._document
        self._document = document
        self._version += 1
        self._view_cache.note_commit(self, old_document, changes)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached :class:`repro.wal.WriteAheadLog`, or None."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Make every future commit write-ahead durable through ``wal``.

        Commits append their record (script or state) before installing;
        subject-hierarchy and policy mutations are captured through the
        hierarchies' mutation listeners.  The caller is responsible for
        the log starting in sync with the current state (normally by
        checkpointing right after attach, or by attaching the log that
        recovery just replayed).
        """
        if self._wal is not None:
            raise ValueError("a write-ahead log is already attached")
        wal.bind(self)
        self._wal = wal

    def detach_wal(self):
        """Stop logging (snapshot-only durability); returns the old log.

        Idempotent; used by the serving layer to degrade when the log
        keeps failing, and by recovery while replaying (a replay must
        not re-log itself).
        """
        wal, self._wal = self._wal, None
        if wal is not None:
            wal.unbind()
        return wal

    def restore_version(self, version: int) -> None:
        """Set the version counter; recovery-only.

        After loading a checkpoint snapshot the in-memory database is
        at version 0 but *represents* the checkpointed version; replay
        needs the counter to match so that each replayed record's
        stamped version lines up (the recovery invariant).
        """
        if version < 0:
            raise ValueError("version must be >= 0")
        with self._commit_lock:
            self._version = version

    # ------------------------------------------------------------------
    # policy hygiene
    # ------------------------------------------------------------------
    def lint_policy(self) -> List["object"]:
        """Run the policy linter against the current document.

        Convenience for ``db.policy.lint(document=db.document,
        engine=db.engine)``; see :meth:`repro.security.policy.Policy.lint`.
        """
        return self._policy.lint(document=self._document, engine=self._engine)
