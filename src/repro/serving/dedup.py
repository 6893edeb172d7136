"""The exactly-once dedup ledger: idempotency key -> typed result.

A client whose connection dies mid-request cannot tell whether its
write committed (the outcome is *unknown* -- see
:class:`~repro.errors.NetworkError`).  The safe client move is to
re-send, and the safe server move is to recognize the re-send: every
write may carry an **idempotency key**, and the primary remembers the
commit summary it acknowledged under that key.  A re-send of an
already-acknowledged key returns the remembered summary as a
:class:`DedupedResult` without touching the database -- even when the
re-send lands on a *different* primary after failover, because the key
rides the WAL record (the ``idem`` annotation, see
:meth:`repro.wal.WriteAheadLog.annotate`) and every replica/recovery
replay rebuilds the same ledger from the log alone.

The table is **bounded**: at most ``capacity`` entries, evicted
oldest-first (FIFO by acknowledgement order).  An evicted key is
forgotten -- a re-send after eviction applies again -- so the capacity
bounds the window of retry safety, not correctness of anything else;
size it to cover the client retry horizon (default 1024 entries, a few
hundred bytes each).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = ["DedupTable", "DedupedResult"]


@dataclass(frozen=True)
class DedupedResult:
    """The remembered acknowledgement for a replayed idempotency key.

    Carries the same summary shape the original commit acknowledged
    (counts, not node lists -- the nodes belong to the first
    acknowledgement), plus ``deduped=True`` so front-ends can mark the
    response.  Returned by the serving layer instead of re-applying the
    write.

    Attributes:
        fully_applied: whether the original script applied completely.
        selected / affected / denied: the original summary's counts.
        version: the database version the original commit produced.
        deduped: always True (present so wire summaries can branch
            without isinstance checks).
    """

    fully_applied: bool
    selected: int
    affected: int
    denied: int
    version: int
    deduped: bool = True

    @property
    def summary(self) -> Dict[str, Any]:
        """The remembered acknowledgement, shaped like a fresh commit's
        ``SecureUpdateResult.summary``."""
        return {
            "fully_applied": self.fully_applied,
            "selected": self.selected,
            "affected": self.affected,
            "denied": self.denied,
            "version": self.version,
        }

    @classmethod
    def from_entry(cls, entry: Dict[str, Any]) -> "DedupedResult":
        """Build from a stored (or log-replayed) summary dict."""
        return cls(
            fully_applied=bool(entry.get("fully_applied", True)),
            selected=int(entry.get("selected", 0)),
            affected=int(entry.get("affected", 0)),
            denied=int(entry.get("denied", 0)),
            version=int(entry.get("version", 0)),
        )


class DedupTable:
    """A bounded, thread-safe FIFO map of idempotency key -> summary.

    Args:
        capacity: maximum remembered acknowledgements; inserting past
            it evicts the oldest entry (counted in :meth:`stats`).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("dedup capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._hits = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """The configured entry ceiling."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The remembered summary for ``key``, or None (counts a hit
        when found)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                return dict(entry)
            return None

    def put(self, key: str, summary: Dict[str, Any]) -> None:
        """Remember ``summary`` under ``key``; re-putting an existing
        key keeps its original FIFO position (first ack wins)."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = dict(summary)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def seed(self, entries: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Bulk-load (key, summary) pairs in order -- how a promoted
        primary inherits the ledger its replica rebuilt from the log."""
        for key, summary in entries:
            self.put(key, summary)

    def entries(self) -> Tuple[Tuple[str, Dict[str, Any]], ...]:
        """A snapshot of every (key, summary) pair in FIFO order."""
        with self._lock:
            return tuple(
                (key, dict(value)) for key, value in self._entries.items()
            )

    def stats(self) -> Dict[str, int]:
        """``size`` / ``capacity`` / ``hits`` / ``evictions``."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "evictions": self._evictions,
            }
