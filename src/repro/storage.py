"""Persistence: save and load a whole secure database as one XML file.

Not part of the paper's formal model, but required for the system to be
usable as a database: the document, the subject hierarchy (set S), and
the security policy (set P, priorities included) round-trip through a
single self-describing XML file::

    <securedb version="1">
      <subjects>
        <role name="staff"/>
        <role name="doctor"><isa>staff</isa></role>
        <user name="laporte"><isa>doctor</isa></user>
      </subjects>
      <policy>
        <rule effect="accept" privilege="read" subject="staff"
              priority="10" path="//*"/>
      </policy>
      <document>
        <patients>...</patients>
      </document>
    </securedb>

Node identifiers are regenerated on load -- they are internal and never
visible to users (paper section 4.4.1), so this is safe; anything that
must survive a reload (views, permissions) is re-derived from the
reloaded theory.  A reloaded document always takes the default
persistent Dewey numbering scheme.

The file holds exactly one document, as the paper's database does
(section 3.2), and this is the only persistence format: the write-ahead
log's checkpoint snapshots are :func:`dump_database` files and its
``state`` records carry :func:`dump_state` bodies.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import DiskError, StorageCorrupt, StorageError, classify_disk_error
from .faults import faults, kill_point
from .security.database import SecureXMLDatabase
from .security.policy import ACCEPT, Policy
from .security.subjects import SubjectHierarchy
from .xmltree.document import XMLDocument
from .xmltree.fragments import Fragment, element, fragment_from_subtree
from .xmltree.node import NodeKind
from .xmltree.parser import XMLSyntaxError, parse_fragment
from .xmltree.serializer import serialize

__all__ = [
    "StorageError",
    "StorageCorrupt",
    "LoadProblem",
    "LoadReport",
    "dump_database",
    "dump_state",
    "snapshot_digest",
    "state_digest",
    "load_database",
    "save_to_file",
    "load_from_file",
    "backup_path",
]

_FORMAT_VERSION = "1"

logger = logging.getLogger("repro.storage")

#: ``OSError``s that are the caller's mistake (or already classified),
#: not the device's: they propagate as they are.
_NOT_DISK_FAULTS = (
    DiskError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
    PermissionError,
)

#: Integrity header: a processing instruction carrying the SHA-256 of
#: the rest of the snapshot, written as the file's first line.  Old
#: files without it still load (the check is skipped).
_INTEGRITY_RE = re.compile(
    r'^<\?repro-integrity sha256="([0-9a-f]{64})"\?>\n'
)


@dataclass(frozen=True)
class LoadProblem:
    """One entry a lenient load had to drop or repair.

    Attributes:
        section: which part of the file (``subjects``, ``policy``,
            ``document`` or ``file``).
        detail: what was wrong and what was dropped.
    """

    section: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.section}] {self.detail}"


@dataclass
class LoadReport:
    """What a lenient load recovered and what it dropped.

    Attributes:
        source: file path (or ``"<string>"``) the data came from.
        problems: everything that was dropped or repaired, in file
            order; empty means the file loaded cleanly.
    """

    source: str = "<string>"
    problems: List[LoadProblem] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was dropped."""
        return not self.problems

    def add(self, section: str, detail: str) -> None:
        """Record one dropped/repaired entry."""
        self.problems.append(LoadProblem(section, detail))

    def __str__(self) -> str:
        if self.clean:
            return f"{self.source}: loaded cleanly"
        lines = "\n".join(f"  {p}" for p in self.problems)
        return f"{self.source}: {len(self.problems)} problem(s) dropped\n{lines}"


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------
def dump_state(
    document: XMLDocument,
    subjects: SubjectHierarchy,
    policy: Policy,
) -> str:
    """Serialize a (document, subjects, policy) triple to ``<securedb>``
    XML text, without the integrity header.

    The components are taken separately so callers mid-commit (the
    write-ahead log, which must describe a *new* document against the
    current subjects and policy) need not assemble a throwaway
    :class:`SecureXMLDatabase` first.
    """
    doc_children: List[Fragment] = []
    if document.root is not None:
        doc_children.append(fragment_from_subtree(document, document.root))

    bundle = element(
        "securedb",
        _subjects_fragment(subjects),
        _policy_fragment(policy),
        element("document", *doc_children),
        attributes={"version": _FORMAT_VERSION},
    )
    return _serialize_bundle(bundle)


def _serialize_bundle(bundle: Fragment) -> str:
    carrier = XMLDocument()
    bundle.attach(carrier, carrier.document_node.nid)
    return serialize(carrier, indent="  ")


def state_digest(
    document: XMLDocument,
    subjects: SubjectHierarchy,
    policy: Policy,
) -> str:
    """The SHA-256 hex digest of a (document, subjects, policy) state.

    Exactly the digest :func:`dump_database` records in its integrity
    header, computed without keeping the serialized body around.  Two
    databases with equal digests serialize byte-identically -- the
    replication layer uses this to compare a replica's replayed state
    against the primary's checkpoint snapshots without shipping either
    state anywhere.
    """
    return _body_digest(dump_state(document, subjects, policy))


def dump_database(db: SecureXMLDatabase) -> str:
    """Serialize a database (document + subjects + policy) to XML text.

    The first line is an integrity header -- a processing instruction
    carrying the SHA-256 of the body -- which
    :func:`load_database` verifies: a strict load of a silently
    corrupted snapshot fails with :class:`StorageCorrupt` instead of
    loading garbage, and a lenient load reports the mismatch through
    the :class:`LoadReport`.  Files without the header (older dumps,
    hand-written fixtures) load with the check skipped.
    """
    body = dump_state(db.document, db.subjects, db.policy)
    return f'<?repro-integrity sha256="{_body_digest(body)}"?>\n{body}'


def snapshot_digest(path: str) -> Optional[str]:
    """The digest recorded in a snapshot file's integrity header.

    Reads only the header line; returns None when the file has no
    integrity header (or cannot be read at all) -- callers treat that
    as "cannot verify", never as a mismatch.
    """
    try:
        with faults.open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
    except OSError:
        return None
    return _check_integrity(first)[0]


def _body_digest(body: str) -> str:
    """The SHA-256 an integrity header records for a snapshot body."""
    return hashlib.sha256(body.rstrip("\n").encode("utf-8")).hexdigest()


def _check_integrity(text: str) -> Tuple[Optional[str], Optional[str], str]:
    """Split off the integrity header and recompute the body's digest:
    ``(recorded, actual, body)``, both digests None without a header.
    What a mismatch means (raise, report, scrub finding) is the
    caller's policy."""
    match = _INTEGRITY_RE.match(text)
    if match is None:
        return None, None, text
    body = text[match.end():]
    return match.group(1), _body_digest(body), body


def backup_path(path: str, index: int = 1) -> str:
    """The ``index``-th rolling-backup sibling a save leaves behind.

    Backup 1 (``path + '.bak'``) is the most recent pre-save content;
    higher indices (``path + '.bak2'``, ...) are progressively older
    generations kept when saving with ``backup_count > 1``.
    """
    if index < 1:
        raise ValueError("backup index starts at 1")
    return path + ".bak" if index == 1 else f"{path}.bak{index}"


def save_to_file(
    db: SecureXMLDatabase,
    path: str,
    backup: bool = True,
    backup_count: int = 1,
) -> None:
    """Write :func:`dump_database` output to a file, crash-safely.

    The payload goes to a temp file in the same directory, is fsynced,
    and is installed with an atomic rename -- at every instant ``path``
    holds either the complete previous database or the complete new one,
    never a torn write.  When ``backup`` is true and ``path`` already
    exists, its previous content survives as :func:`backup_path`;
    ``backup_count`` keeps that many rolling generations (``.bak``,
    ``.bak2``, ...), so a checkpoint rewriting the file repeatedly can
    never clobber the only good backup.

    Kill-points consulted (see :mod:`repro.faults`): ``mid-write``
    tears the one write of the payload in half,
    ``before-rename`` once the temp file is durable.

    Raises:
        DiskFullError: the volume ran out of space mid-save; ``path``
            still holds the complete previous database.
        DiskIOError: the device failed the write or fsync; ``path``
            still holds the complete previous database.
    """
    payload = dump_database(db) + "\n"
    _write_atomically(
        payload, path, backup, backup_count, point="mid-write", op="save"
    )


def _write_atomically(
    payload: str,
    path: str,
    backup: bool,
    backup_count: int = 1,
    *,
    point: str,
    op: str,
) -> None:
    """The one temp + fsync + rename + directory-fsync writer, shared by
    :func:`save_to_file` and the write-ahead log's checkpoint snapshots.

    ``point`` names the kill-point that tears the payload's one write;
    ``op`` labels a classified disk error.
    """
    if backup_count < 1:
        raise ValueError("backup_count must be >= 1")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with faults.wrap(os.fdopen(fd, "w", encoding="utf-8"), temp_path) as handle:
            handle.write(payload, point=point)
            handle.flush()
            faults.fsync(handle)
        if backup and os.path.exists(path):
            _refresh_backup(path, backup_count)
        kill_point("before-rename", path=path)
        os.replace(temp_path, path)
        _fsync_directory(directory)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        if isinstance(exc, OSError) and not isinstance(exc, _NOT_DISK_FAULTS):
            # A raw disk failure never escapes unclassified: the atomic
            # write guarantees path still holds the previous complete
            # content, and the classified error says whether reclaiming
            # space can help.
            raise classify_disk_error(exc, path=path, op=op) from exc
        raise


def _refresh_backup(path: str, count: int = 1) -> None:
    """Rotate the ``.bak`` generations and point the newest at ``path``.

    With ``count`` N: ``.bak(N-1)`` moves to ``.bakN`` (dropping the
    previous ``.bakN``), and so on down, then ``.bak`` is re-pointed at
    the current on-disk content.
    """
    for index in range(count, 1, -1):
        older = backup_path(path, index - 1)
        if os.path.exists(older):
            os.replace(older, backup_path(path, index))
    bak = backup_path(path)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(bak)
    try:
        os.link(path, bak)  # instant; rename then swaps path away
    except OSError:
        shutil.copy2(path, bak)  # filesystem without hard links


def _fsync_directory(directory: str) -> None:
    """Make the rename itself durable (best effort off POSIX).

    Some platforms and filesystems refuse to fsync a directory handle
    (``EINVAL`` on certain network/overlay mounts, no directory handles
    at all elsewhere); durability of the rename then rests on the OS,
    so the failure is *logged* -- never raised: a commit must not die
    on a filesystem that already did all it can.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError as exc:
        logger.warning(
            "cannot open directory %s for fsync (%s); the last rename "
            "is only as durable as the OS makes it", directory, exc
        )
        return
    try:
        os.fsync(dir_fd)
    except OSError as exc:
        logger.warning(
            "directory fsync failed for %s (%s); degrading to "
            "best-effort rename durability", directory, exc
        )
    finally:
        os.close(dir_fd)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------
def _attr(fragment: Fragment, name: str, what: str) -> str:
    for key, value in fragment.attributes:
        if key == name:
            return value
    raise StorageError(f"<{fragment.label}> is missing the {name!r} attribute ({what})")


def _child_elements(fragment: Fragment) -> List[Fragment]:
    return [c for c in fragment.children if c.kind is NodeKind.ELEMENT]


def _find_section(root: Fragment, name: str) -> Fragment:
    for child in _child_elements(root):
        if child.label == name:
            return child
    raise StorageError(f"missing <{name}> section")


def _parse_root(text: str, expected_label: str, source: str) -> Fragment:
    """Parse the file-level XML; damage here is unrecoverable."""
    try:
        root = parse_fragment(text)
    except XMLSyntaxError as exc:
        raise StorageCorrupt(
            f"{source}: not well-formed XML ({exc}); "
            f"restore from the .bak sibling if one exists"
        ) from exc
    if root.label != expected_label:
        raise StorageCorrupt(
            f"{source}: expected <{expected_label}>, got <{root.label}>"
        )
    return root


def load_database(
    text: str,
    mode: str = "strict",
    report: Optional[LoadReport] = None,
    source: str = "<string>",
) -> SecureXMLDatabase:
    """Rebuild a :class:`SecureXMLDatabase` from :func:`dump_database`
    output.

    Args:
        text: the file content.
        mode: ``"strict"`` (default) raises on the first problem;
            ``"lenient"`` recovers everything readable from a partially
            corrupt ``<securedb>``, dropping broken subjects, rules or
            isa links and recording each drop in ``report``.
        report: a :class:`LoadReport` to fill in lenient mode (one is
            created -- and discarded -- if omitted).
        source: label used in error messages and the report (the file
            path, when loading from a file).

    Raises:
        StorageError: strict mode, for any structural problem (unknown
            version, missing sections, dangling subject references, bad
            priorities); messages carry ``source`` plus the offending
            element for context.
        StorageCorrupt: both modes, when the XML itself is not
            well-formed or the root element is wrong -- nothing can be
            recovered then.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    lenient = mode == "lenient"
    if report is None:
        report = LoadReport(source=source)
    else:
        report.source = source

    recorded, actual, text = _check_integrity(text)
    if actual != recorded:
        if not lenient:
            raise StorageCorrupt(
                f"{source}: integrity check failed (header sha256 "
                f"{recorded[:12]}..., content {actual[:12]}...); the "
                f"file was modified or damaged after it was written; "
                f"restore from the .bak sibling if one exists"
            )
        report.add(
            "file",
            f"sha256 integrity mismatch (recorded {recorded[:12]}..., "
            f"actual {actual[:12]}...); loaded what was readable",
        )

    try:
        root = _parse_root(text, "securedb", source)
        version = _attr(root, "version", "format version")
        if version != _FORMAT_VERSION:
            if not lenient:
                raise StorageError(f"unsupported securedb version {version!r}")
            report.add("file", f"unsupported version {version!r}; loaded anyway")

        subjects = _load_subjects(
            _section(root, "subjects", lenient, report),
            report if lenient else None,
        )
        policy = _load_policy(
            _section(root, "policy", lenient, report),
            subjects,
            report if lenient else None,
        )

        document = XMLDocument()
        doc_section = _section(root, "document", lenient, report)
        roots = _child_elements(doc_section)
        if len(roots) > 1:
            if not lenient:
                raise StorageError(
                    "<document> may contain at most one root element"
                )
            report.add(
                "document",
                f"{len(roots)} root elements; kept the first "
                f"(<{roots[0].label}>), dropped the rest",
            )
            roots = roots[:1]
        if roots:
            roots[0].attach(document, document.document_node.nid)
    except StorageCorrupt:
        raise
    except StorageError as exc:
        raise type(exc)(f"{source}: {exc}") from exc

    return SecureXMLDatabase(document, subjects, policy)


def _section(
    root: Fragment, name: str, lenient: bool, report: LoadReport
) -> Fragment:
    """Find a required section; lenient mode substitutes an empty one."""
    try:
        return _find_section(root, name)
    except StorageError:
        if not lenient:
            raise
        report.add(name, f"missing <{name}> section; treated as empty")
        return element(name)


def load_from_file(
    path: str,
    mode: str = "strict",
    report: Optional[LoadReport] = None,
) -> SecureXMLDatabase:
    """Read a database file written by :func:`save_to_file`.

    Args:
        path: the database file.
        mode: ``"strict"`` (default) or ``"lenient"``; see
            :func:`load_database`.
        report: a :class:`LoadReport` filled with everything a lenient
            load dropped; pass one in to inspect the recovery.

    Raises:
        StorageError: strict mode, with the file path and offending
            element in the message.
        StorageCorrupt: unrecoverable damage (either mode); the message
            points at the ``.bak`` sibling when restoring is an option.
        DiskIOError: the device failed the read (``EIO``); a missing
            file still raises plain :class:`FileNotFoundError`.
    """
    try:
        with faults.open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        if isinstance(exc, _NOT_DISK_FAULTS):
            raise
        raise classify_disk_error(exc, path=path, op="read") from exc
    return load_database(text, mode=mode, report=report, source=path)


# ---------------------------------------------------------------------------
# sections shared by dump_state and load_database
# ---------------------------------------------------------------------------
def _subjects_fragment(subjects: SubjectHierarchy) -> Fragment:
    entries: List[Fragment] = []
    for name in sorted(subjects.roles) + sorted(subjects.users):
        isa = [
            element("isa", parent)
            for parent in sorted(subjects.direct_parents(name))
        ]
        tag = "role" if name in subjects.roles else "user"
        entries.append(element(tag, *isa, attributes={"name": name}))
    return element("subjects", *entries)


def _policy_fragment(policy: Policy) -> Fragment:
    rules = [
        element(
            "rule",
            attributes={
                "effect": effect,
                "privilege": privilege,
                "subject": subject,
                "priority": str(priority),
                "path": path,
            },
        )
        for effect, privilege, path, subject, priority in policy.facts()
    ]
    return element("policy", *rules)


def _load_subjects(
    section: Fragment, report: Optional[LoadReport] = None
) -> SubjectHierarchy:
    """Rebuild the subject hierarchy; ``report`` enables lenient drops."""
    subjects = SubjectHierarchy()
    pending: List[tuple] = []
    for entry in _child_elements(section):
        try:
            name = _attr(entry, "name", "subject name")
            if entry.label == "role":
                subjects.add_role(name)
            elif entry.label == "user":
                subjects.add_user(name)
            else:
                raise StorageError(f"unknown subject kind <{entry.label}>")
            for isa in _child_elements(entry):
                if isa.label != "isa":
                    raise StorageError(
                        f"unexpected <{isa.label}> in subject {name!r}"
                    )
                parent = "".join(
                    c.label for c in isa.children if c.kind is NodeKind.TEXT
                ).strip()
                if not parent:
                    raise StorageError(f"empty <isa> under subject {name!r}")
                pending.append((name, parent))
        except Exception as exc:
            if report is not None:
                report.add("subjects", f"dropped <{entry.label}>: {exc}")
                continue
            if isinstance(exc, StorageError):
                raise
            raise StorageError(
                f"bad <{entry.label}> entry in subjects: {exc}"
            ) from exc
    for child, parent in pending:
        try:
            subjects.add_isa(child, parent)
        except Exception as exc:
            if report is None:
                raise StorageError(
                    f"bad isa link {child!r} -> {parent!r}: {exc}"
                ) from exc
            report.add(
                "subjects", f"dropped isa({child!r}, {parent!r}): {exc}"
            )
    return subjects


def _load_policy(
    section: Fragment,
    subjects: SubjectHierarchy,
    report: Optional[LoadReport] = None,
) -> Policy:
    """Rebuild the policy; ``report`` enables lenient per-rule drops."""
    policy = Policy(subjects)
    ordered: List[tuple] = []
    for rule in _child_elements(section):
        try:
            if rule.label != "rule":
                raise StorageError(f"unexpected <{rule.label}> in policy")
            ordered.append((int(_attr(rule, "priority", "rule priority")), rule))
        except Exception as exc:
            if report is None:
                raise StorageError(
                    f"bad <{rule.label}> entry in policy: {exc}"
                ) from exc
            report.add("policy", f"dropped <{rule.label}>: {exc}")
    for priority, rule in sorted(ordered, key=lambda pair: pair[0]):
        try:
            effect = _attr(rule, "effect", "rule effect")
            privilege = _attr(rule, "privilege", "rule privilege")
            subject = _attr(rule, "subject", "rule subject")
            path = _attr(rule, "path", "rule path")
            if effect == ACCEPT:
                policy.grant(privilege, path, subject, priority=priority)
            elif effect == "deny":
                policy.deny(privilege, path, subject, priority=priority)
            else:
                raise StorageError(f"unknown rule effect {effect!r}")
        except Exception as exc:
            if report is not None:
                report.add(
                    "policy", f"dropped rule with priority {priority}: {exc}"
                )
                continue
            if isinstance(exc, StorageError):
                raise
            raise StorageError(
                f"bad rule with priority {priority}: {exc}"
            ) from exc
    return policy

