"""The paper's access control model (section 4): the core contribution.

Subject hierarchy, prioritized accept/deny policy, conflict resolution
(axiom 14), authorized views with RESTRICTED labels (axioms 15-17),
view-evaluated secure writes (axioms 18-25), sessions, audit, and the
:class:`SecureXMLDatabase` facade, over one document (section 3.2) and
without an administration model (section 4.3 leaves it out).

:mod:`repro.security.insecure` provides the deliberately vulnerable
source-evaluated semantics of section 2.2 for comparison experiments.
It is not re-exported here, so the serving stack never loads it; import
it from its module.
"""

from .audit import AuditLog, AuditRecord
from .database import SecureXMLDatabase, Transaction
from .perm import PermissionResolver, PermissionTable
from .policy import (
    ACCEPT,
    DENY,
    Policy,
    PolicyError,
    PolicyLintWarning,
    SecurityRule,
)
from .privileges import Privilege, READ_PRIVILEGES, WRITE_PRIVILEGES
from .session import ExplainEntry, Session
from .subjects import SubjectError, SubjectHierarchy
from .view import View, ViewBuilder
from .viewcache import ViewCache
from .write import (
    AccessDenied,
    Denial,
    SecureUpdateResult,
    SecureWriteExecutor,
)

__all__ = [
    "ACCEPT",
    "AccessDenied",
    "AuditLog",
    "AuditRecord",
    "DENY",
    "Denial",
    "ExplainEntry",
    "PermissionResolver",
    "PermissionTable",
    "Policy",
    "PolicyError",
    "PolicyLintWarning",
    "Privilege",
    "READ_PRIVILEGES",
    "SecureUpdateResult",
    "SecureWriteExecutor",
    "SecureXMLDatabase",
    "SecurityRule",
    "Session",
    "SubjectError",
    "SubjectHierarchy",
    "Transaction",
    "View",
    "ViewBuilder",
    "ViewCache",
    "WRITE_PRIVILEGES",
]
