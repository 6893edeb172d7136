"""Multi-document collections: lifting the paper's one-document limit.

The paper simplifies its logical formulae by assuming "the database may
contain only one document" (section 3.2), while its deployment target
(Xindice [23]) is a *collection* store.  :class:`SecureCollection`
generalizes the model the way the paper's simplification anticipates:
one subject hierarchy and one security policy govern a set of named
documents, and every per-document derivation (perm, view, secure write)
is exactly the single-document model applied to that document.

Rule paths are interpreted against each document separately -- the
paper's ``rule(accept, read, /patients, staff, t)`` protects the
``/patients`` root of *every* document it matches, which is the natural
reading once several documents share a schema.  Per-document scoping is
expressed in the policy itself by the documents' distinct root labels
(e.g. ``/patients`` vs ``/inventory``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..xmltree.document import XMLDocument
from ..xmltree.parser import parse_xml
from .audit import AuditLog
from .database import SecureXMLDatabase
from .policy import Policy
from .session import Session
from .subjects import SubjectError, SubjectHierarchy
from .view import View
from .write import SecureUpdateResult

__all__ = ["CollectionError", "SecureCollection", "CollectionSession"]


class CollectionError(KeyError):
    """Unknown document name, or a duplicate insertion."""


class SecureCollection:
    """A set of named documents under one subject hierarchy and policy.

    Example::

        collection = SecureCollection()
        collection.subjects.add_user("u")
        collection.policy.grant("read", "//node()", "u")
        collection.add_document("patients", "<patients>...</patients>")
        collection.add_document("wards", "<wards>...</wards>")
        session = collection.login("u")
        session.query("patients", "count(//diagnosis)")
    """

    def __init__(
        self,
        subjects: Optional[SubjectHierarchy] = None,
        policy: Optional[Policy] = None,
    ) -> None:
        self._subjects = subjects if subjects is not None else SubjectHierarchy()
        self._policy = policy if policy is not None else Policy(self._subjects)
        if self._policy.subjects is not self._subjects:
            raise ValueError("policy must reference the collection's subjects")
        self._audit = AuditLog()
        self._databases: Dict[str, SecureXMLDatabase] = {}

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    @property
    def subjects(self) -> SubjectHierarchy:
        return self._subjects

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def audit(self) -> AuditLog:
        """One audit log shared by every document's write executor."""
        return self._audit

    # ------------------------------------------------------------------
    # document management
    # ------------------------------------------------------------------
    def add_document(
        self, name: str, source: "str | XMLDocument"
    ) -> SecureXMLDatabase:
        """Add a document (XML text or an existing tree) under ``name``.

        Raises:
            CollectionError: if the name is taken.
        """
        if name in self._databases:
            raise CollectionError(f"document {name!r} already exists")
        document = parse_xml(source) if isinstance(source, str) else source
        database = SecureXMLDatabase(
            document, self._subjects, self._policy, self._audit
        )
        self._databases[name] = database
        return database

    def remove_document(self, name: str) -> None:
        """Drop a document from the collection.

        Raises:
            CollectionError: for an unknown name.
        """
        if name not in self._databases:
            raise CollectionError(f"no document named {name!r}")
        del self._databases[name]

    def database(self, name: str) -> SecureXMLDatabase:
        """The per-document database (the single-document model)."""
        try:
            return self._databases[name]
        except KeyError:
            raise CollectionError(f"no document named {name!r}") from None

    def names(self) -> List[str]:
        """Document names in insertion order."""
        return list(self._databases)

    def __contains__(self, name: str) -> bool:
        return name in self._databases

    def __len__(self) -> int:
        return len(self._databases)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def login(self, user: str) -> "CollectionSession":
        """Open a collection-wide session for a declared user."""
        if user not in self._subjects:
            raise SubjectError(f"unknown subject {user!r}")
        if not self._subjects.is_user(user):
            raise SubjectError(f"{user!r} is a role; only users can log in")
        return CollectionSession(self, user)


class CollectionSession:
    """One user's sessions across every document of a collection.

    Per-document sessions are created lazily and share the collection's
    subjects/policy; each behaves exactly like a single-document
    :class:`~repro.security.session.Session`.
    """

    def __init__(self, collection: SecureCollection, user: str) -> None:
        self._collection = collection
        self._user = user
        self._sessions: Dict[str, Session] = {}

    @property
    def user(self) -> str:
        return self._user

    def session(self, name: str) -> Session:
        """The per-document session for ``name``."""
        session = self._sessions.get(name)
        if session is None:
            session = self._collection.database(name).login(self._user)
            self._sessions[name] = session
        return session

    def view(self, name: str) -> View:
        """The user's authorized view of one document."""
        return self.session(name).view()

    def query(self, name: str, path: str):
        """Evaluate XPath on one document's view."""
        return self.session(name).query(path)

    def query_all(self, path: str) -> Dict[str, object]:
        """Evaluate one expression on every document's view."""
        return {
            name: self.session(name).query(path)
            for name in self._collection.names()
        }

    def execute(
        self, name: str, operation, strict: bool = False
    ) -> SecureUpdateResult:
        """Apply a secure update to one document."""
        return self.session(name).execute(operation, strict=strict)

    def read_xml(self, name: str, indent: Optional[str] = None) -> str:
        """One document's view serialized as XML."""
        return self.session(name).read_xml(indent=indent)
