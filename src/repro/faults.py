"""The fault seam: every injected crash and every injected disk fault.

Production code consults the module-level :data:`faults` registry at
the instants where a failure would do the most damage.  In production
nothing is armed and every consultation is a dictionary-emptiness test;
a test *arms* a site so that its next reach fails:

- a **kill-point** (:data:`KILL_POINTS`) raises :class:`InjectedFault`,
  simulating a process death at exactly that instant;
- a **disk op** (:data:`DISK_OPS`) raises a plain ``OSError`` with a
  real ``errno`` -- the process survives but the device misbehaved --
  so the library's own classification
  (:func:`repro.errors.classify_disk_error`) is exercised, not
  bypassed.

Sites
-----

==============================  ===========================================
``before-op`` / ``after-op``    script execution, around operation *i*
``mid-write``                   ``save_to_file``: half the snapshot written
``before-rename``               atomic writer: temp file durable, rename
                                not yet done (checkpoints pass it too)
``wal-before-append``           before any byte of a WAL record is written
``wal-mid-record``              half the WAL frame written (a torn tail)
``wal-before-fsync``            the record is written, not yet durable
``checkpoint-mid-snapshot``     half a checkpoint snapshot written
``stream-truncated``            top of ``WalStream.poll``: the feed is cut
``replica-before-apply``        a streamed record decoded, not yet applied
``replica-mid-replay``          applied and the lsn advanced, the rest of
                                the poll batch not yet run
``net-mid-frame``               half a response frame on the socket
``group-after-leader-append``   the leader's member appended, no follower
                                run yet
``group-before-fsync``          every member appended, no group fsync yet
``supervisor-before-promote``   promotion decided, no candidate touched
``promote-mid-drain``           the candidate drained, promotion not begun
``old-primary-late-ack``        a deposed primary's group appended, about
                                to fsync and acknowledge
==============================  ===========================================

The disk ops are ``open``, ``read``, ``write`` and ``fsync``, each armed
with an error: ``eio`` (``EIO``), ``enospc`` (``ENOSPC``) or -- writes
only -- ``short``.

Arming rules, the same for every site: :meth:`FaultSeam.arm` keeps one
armed record per site, which fires on the (``after`` + 1)-th eligible
reach and then disarms itself (one-shot); ``match`` makes only reaches
whose path contains the substring eligible (a kill-point's path is its
``path=`` context).  Disk faults that fire are logged in
:attr:`FaultSeam.injected`; with :attr:`FaultSeam.trace` on, every
kill-point reach is logged in :attr:`FaultSeam.history`.

Tearing happens in one place, :meth:`FaultyFile.write`: when a
``("write", "short")`` fault or the kill-point passed as ``point=``
fires, the first half of the buffer is written and flushed before the
fault raises (``OSError(ENOSPC)`` or :class:`InjectedFault`).  The WAL
append and the atomic snapshot writer each write a whole record or
snapshot with one such call.  ``net-mid-frame`` tears a socket, not a
file, and :mod:`repro.netserve` does that itself.

Example::

    from repro.faults import faults, inject, InjectedFault

    with inject("before-op", after=1):   # fail when op index 1 starts
        with pytest.raises(UpdateAborted):
            session.execute(script)

    faults.arm("write", "enospc", match=".wal")
    with pytest.raises(WalWriteError) as err:
        db.admin_update(script)          # the append hits ENOSPC
    assert isinstance(err.value.disk, DiskFullError)
"""

from __future__ import annotations

import errno
import io
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple

from .errors import ReproError

__all__ = [
    "DISK_ERRORS",
    "DISK_OPS",
    "KILL_POINTS",
    "FaultSeam",
    "FaultyFile",
    "InjectedFault",
    "faults",
    "inject",
    "kill_point",
]

#: Every kill-point the library consults, in execution order.
KILL_POINTS = (
    "before-op",
    "after-op",
    "mid-write",
    "before-rename",
    "wal-before-append",
    "wal-mid-record",
    "wal-before-fsync",
    "checkpoint-mid-snapshot",
    "stream-truncated",
    "replica-before-apply",
    "replica-mid-replay",
    "net-mid-frame",
    "group-after-leader-append",
    "group-before-fsync",
    "supervisor-before-promote",
    "promote-mid-drain",
    "old-primary-late-ack",
)

#: The I/O operations the seam can fail.
DISK_OPS = ("open", "read", "write", "fsync")

#: The error names a disk op can be armed with.
DISK_ERRORS = ("eio", "enospc", "short")

_ERRNO = {"eio": errno.EIO, "enospc": errno.ENOSPC, "short": errno.ENOSPC}


class InjectedFault(ReproError):
    """A simulated crash raised by an armed kill-point.

    Attributes:
        point: the kill-point name that fired.
        context: keyword context the call site passed to
            :func:`kill_point` (operation index, file path, ...).
    """

    def __init__(self, point: str, context: Dict[str, Any]) -> None:
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(f"injected fault at kill-point {point!r}"
                         + (f" ({detail})" if detail else ""))
        self.point = point
        self.context = dict(context)


@dataclass
class _Armed:
    """One armed site: fire on the (``remaining`` + 1)-th eligible reach."""

    error: Optional[str]  # a DISK_ERRORS name; None at a kill-point
    remaining: int
    match: str

    def exception(self, site: str, path: str, context: Dict[str, Any]) -> Exception:
        if self.error is None:
            return InjectedFault(site, context)
        return OSError(
            _ERRNO[self.error], f"injected disk fault ({site}/{self.error})", path
        )


class FaultSeam:
    """The registry of armed sites, consulted by every hook.

    Thread-safe; the module-level :data:`faults` instance is what the
    library consults, but independent seams can be built for isolated
    tests.

    Attributes:
        injected: every disk fault that fired since the last
            :meth:`reset`, as ``(op, error, path)`` tuples.
        history: with :attr:`trace` on, every kill-point reach since
            the last :meth:`reset`, as ``(point, context)`` pairs.
        trace: record kill-point reaches even while nothing is armed
            (off by default: zero cost in production).
    """

    def __init__(self) -> None:
        self._armed: Dict[str, _Armed] = {}
        self._lock = threading.Lock()
        self.injected: List[Tuple[str, str, str]] = []
        self.history: List[Tuple[str, Dict[str, Any]]] = []
        self.trace = False

    # -- arming -----------------------------------------------------------
    def arm(
        self,
        site: str,
        error: Optional[str] = None,
        *,
        after: int = 0,
        match: str = "",
    ) -> None:
        """Make the next eligible reach of ``site`` fail.

        Args:
            site: one of :data:`KILL_POINTS` or :data:`DISK_OPS`.
            error: (disk ops only) one of :data:`DISK_ERRORS`, default
                ``"eio"``; ``"short"`` only for ``"write"``.
            after: number of eligible reaches to let through first.
            match: only paths containing this substring are eligible.
        """
        self._check(site)
        if site in DISK_OPS:
            error = error or "eio"
            if error not in DISK_ERRORS:
                raise ValueError(
                    f"unknown disk error {error!r}; known: {', '.join(DISK_ERRORS)}"
                )
            if error == "short" and site != "write":
                raise ValueError("a short write only makes sense for 'write'")
        elif error is not None:
            raise ValueError(f"kill-point {site!r} takes no error")
        if after < 0:
            raise ValueError("after must be >= 0")
        with self._lock:
            self._armed[site] = _Armed(error, after, match)

    def disarm(self, site: Optional[str] = None) -> None:
        """Disarm one site, or all of them when ``site`` is None."""
        if site is not None:
            self._check(site)
        with self._lock:
            if site is None:
                self._armed.clear()
            else:
                self._armed.pop(site, None)

    def is_armed(self, site: str) -> bool:
        """True if ``site`` is currently armed."""
        self._check(site)
        with self._lock:
            return site in self._armed

    def reset(self) -> None:
        """Disarm everything and clear both logs."""
        with self._lock:
            self._armed.clear()
            self.injected.clear()
            self.history.clear()

    @contextmanager
    def armed(
        self,
        site: str,
        error: Optional[str] = None,
        *,
        after: int = 0,
        match: str = "",
    ) -> Iterator["FaultSeam"]:
        """Arm ``site`` for the duration of a ``with`` block."""
        self.arm(site, error, after=after, match=match)
        try:
            yield self
        finally:
            self.disarm(site)

    @staticmethod
    def _check(site: str) -> None:
        if site not in KILL_POINTS and site not in DISK_OPS:
            raise ValueError(
                f"unknown fault site {site!r}; known: "
                f"{', '.join(KILL_POINTS + DISK_OPS)}"
            )

    # -- consultation -----------------------------------------------------
    def _fire(
        self, site: str, path: str, context: Optional[Dict[str, Any]] = None
    ) -> Optional[_Armed]:
        """The one consume routine: ``site``'s armed record when this
        reach is the one it fires on, else None.  ``context`` marks a
        kill-point reach (traced)."""
        self._check(site)
        with self._lock:
            if context is not None and self.trace:
                self.history.append((site, dict(context)))
            armed = self._armed.get(site)
            if armed is None or armed.match not in path:
                return None
            if armed.remaining > 0:
                armed.remaining -= 1
                return None
            del self._armed[site]  # one-shot: fire once, then disarm
            if armed.error is not None:
                self.injected.append((site, armed.error, path))
            return armed

    def reach(self, point: str, **context: Any) -> None:
        """A kill-point: raise :class:`InjectedFault` when ``point`` is
        armed and its countdown has expired."""
        if not self._armed and not self.trace:
            return  # hot path: nothing armed, nothing traced
        path = str(context.get("path", ""))
        armed = self._fire(point, path, context)
        if armed is not None:
            raise armed.exception(point, path, context)

    def _disk(self, op: str, path: str) -> None:
        """Raise ``op``'s armed disk fault if it fires at ``path`` now."""
        if self._armed:
            armed = self._fire(op, path)
            if armed is not None:
                raise armed.exception(op, path, {})

    # -- the I/O hooks ----------------------------------------------------
    def open(self, path: str, mode: str = "rb", **kwargs: Any) -> "FaultyFile":
        """``open()`` through the seam; always returns a proxy, so faults
        armed after the open still fire on later reads and writes."""
        self._disk("open", str(path))
        return FaultyFile(io.open(path, mode, **kwargs), str(path), self)

    def wrap(self, handle: IO[Any], path: str) -> "FaultyFile":
        """Wrap an already-open handle (mkstemp et al.) in the proxy."""
        return FaultyFile(handle, str(path), self)

    def fsync(self, handle: IO[Any]) -> None:
        """``os.fsync(handle.fileno())`` through the seam."""
        path = getattr(handle, "name", "")
        self._disk("fsync", "" if isinstance(path, int) else str(path))
        os.fsync(handle.fileno())


class FaultyFile:
    """A file proxy that consults the seam on every read and write.

    Everything not intercepted delegates to the wrapped handle, so the
    proxy is a drop-in file object (``fileno``, ``seek``, ``truncate``,
    context-manager protocol, ...).
    """

    def __init__(self, handle: IO[Any], path: str, seam: FaultSeam) -> None:
        self._handle = handle
        self._path = path
        self._seam = seam

    @property
    def name(self) -> str:
        # mkstemp handles report their fd as .name; the proxy always
        # knows the real path, which is what fault matching needs.
        return self._path

    def read(self, size: int = -1) -> Any:
        """Delegate to the wrapped handle after consulting ``read``."""
        self._seam._disk("read", self._path)
        return self._handle.read(size)

    def write(self, data: Any, point: Optional[str] = None) -> int:
        """Delegate to the wrapped handle after consulting ``write`` and,
        when given, the kill-point ``point``.

        The one half-write routine: a ``"short"`` fault or a fired
        kill-point writes and flushes the first half of ``data``, then
        raises; ``"eio"`` / ``"enospc"`` raise with nothing written.
        """
        seam = self._seam
        if seam._armed or (point is not None and seam.trace):
            path, context = self._path, {"path": self._path}
            site, armed = "write", seam._fire("write", path)
            if armed is None and point is not None:
                site, armed = point, seam._fire(point, path, context)
            if armed is not None:
                if armed.error in (None, "short") and data:
                    self._handle.write(data[: max(1, len(data) // 2)])
                    self._handle.flush()
                raise armed.exception(site, path, context)
        return self._handle.write(data)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._handle.close()

    def __iter__(self) -> Iterator[Any]:
        return iter(self._handle)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._handle, name)


#: The registry every hook in the library consults.
faults = FaultSeam()

#: Library-side hook: consult :data:`faults` at a named kill-point.
kill_point = faults.reach

#: Test-side sugar: arm :data:`faults` inside a ``with`` block.
inject = faults.armed
