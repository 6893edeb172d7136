"""Supervised failover: detect a dead primary, promote a replica.

The :class:`FailoverSupervisor` closes the loop the rest of the
replication stack leaves open: replicas follow and the router routes,
but when the primary dies someone must *decide* -- pick the
most-caught-up healthy replica, drain it to the reachable end of the
old log, and turn it into a full primary with its own write-ahead log.
This module is that someone.

**Failure detection** (:meth:`FailoverSupervisor.heartbeat`) probes
the primary through :meth:`~repro.serving.DatabaseServer.stats` -- the
same ledger operators read -- and folds five signals into one verdict:

* the stats probe itself raising (the server object is gone/broken);
* a poisoned write-ahead log (``wal_failed`` set, or the log already
  detached by the degrade path -- the primary can no longer make
  writes durable);
* a sick disk (``disk_sick``: consecutive commits failed with
  ``EIO``-class disk errors -- the device under the log is dying, and
  a healthy replica on a healthy disk beats a primary on a bad one);
* the circuit breaker stuck open (commit liveness lost);
* the server already fenced (a higher epoch exists somewhere).

A probe with no signals refreshes the supervisor's "last known good"
timestamp; :attr:`primary_failed` holds once signals persist past the
``heartbeat_timeout_ms`` grace window, so one transient blip never
triggers a promotion.

**Promotion** (:meth:`FailoverSupervisor.promote`) is fenced by
epochs: the new primary's log is created at ``old epoch + 1``, the
router refuses the swap unless the epoch strictly increases, and the
deposed primary (if still reachable) is fenced so it can never
acknowledge a write again.  The candidate's rebuilt dedup ledger is
carried over, so a client retrying a write the *old* primary
acknowledged still gets exactly-once semantics from the new one.

Kill-points (``supervisor-before-promote``, ``promote-mid-drain``)
fire before any cluster-visible mutation, so a supervisor that crashes
mid-promotion can simply run :meth:`promote` again.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time
from typing import Any, Callable, Dict, List, Optional

from ..errors import FailoverError, ReplicaDiverged
from ..serving.server import DatabaseServer
from ..faults import kill_point
from ..wal import WriteAheadLog
from .replica import Replica
from .router import ReplicationRouter

__all__ = ["FailoverSupervisor"]

logger = logging.getLogger("repro.replication")


class FailoverSupervisor:
    """Watches a router's primary; promotes a replica when it dies.

    Args:
        router: the cluster to supervise (primary + read pool).
        promote_dir: base directory for promoted primaries' logs; each
            promotion creates ``epoch-<n>`` beneath it.
        heartbeat_timeout_ms: grace window -- the primary must look
            unhealthy for this long before :attr:`primary_failed`
            holds.  0 fails on the first bad probe.
        fsync: durability policy for the promoted primary's new log
            (same values as :class:`~repro.wal.WriteAheadLog`).
        clock: monotonic time source, injectable for tests.
        server_options: extra keyword arguments for the promoted
            :class:`~repro.serving.DatabaseServer` (retry policy,
            admission bounds, ...).
    """

    def __init__(
        self,
        router: ReplicationRouter,
        *,
        promote_dir: str,
        heartbeat_timeout_ms: float = 500.0,
        fsync: str = "always",
        clock: Callable[[], float] = time.monotonic,
        **server_options: Any,
    ) -> None:
        if heartbeat_timeout_ms < 0:
            raise ValueError("heartbeat_timeout_ms must be >= 0")
        self._router = router
        self._promote_dir = os.path.abspath(promote_dir)
        self._timeout_ms = heartbeat_timeout_ms
        self._fsync = fsync
        self._clock = clock
        self._server_options = dict(server_options)
        self._last_ok = clock()
        self._last_reasons: List[str] = []
        self._stats: Dict[str, int] = {
            "probes": 0,  # heartbeat() calls
            "unhealthy_probes": 0,  # probes that found any signal
            "promotions": 0,  # completed promotions
            "candidates_skipped": 0,  # candidates lost to drain divergence
            "demotions": 0,  # deposed primaries turned into replicas
        }

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def heartbeat(self) -> Dict[str, Any]:
        """One failure-detector probe against the current primary.

        Returns:
            ``{"healthy", "reasons", "age_ms", "epoch"}`` -- the
            verdict, the signals behind it, milliseconds since the
            last healthy probe, and the cluster epoch.
        """
        reasons: List[str] = []
        primary = self._router.primary
        stats: Optional[Dict[str, Any]] = None
        try:
            stats = primary.stats()
        except Exception as exc:  # the probe itself is a signal
            reasons.append(f"stats-probe-failed: {exc}")
        if stats is not None:
            if stats.get("wal_attached"):
                failed = stats.get("wal_failed")
                if failed:
                    reasons.append(f"wal-poisoned: {failed}")
            elif stats.get("wal_degraded", 0):
                reasons.append(
                    "wal-detached: the degrade path gave up on the log"
                )
            if stats.get("disk_sick"):
                reasons.append(
                    "disk-sick: consecutive disk I/O failures on the "
                    "primary's log volume"
                )
            if stats.get("breaker_state") == "open":
                reasons.append("breaker-open: commits are being refused")
            if stats.get("fenced"):
                reasons.append(
                    f"fenced: epoch {stats.get('fenced_at')} exists elsewhere"
                )
        now = self._clock()
        self._stats["probes"] += 1
        if reasons:
            self._stats["unhealthy_probes"] += 1
        else:
            self._last_ok = now
        self._last_reasons = reasons
        return {
            "healthy": not reasons,
            "reasons": reasons,
            "age_ms": max(0.0, (now - self._last_ok) * 1000.0),
            "epoch": self._router.epoch,
        }

    @property
    def primary_failed(self) -> bool:
        """True once unhealthy probes have outlived the grace window.

        Reflects the *last* :meth:`heartbeat` verdict -- callers drive
        the probe loop; this property only folds in the timeout.
        """
        if not self._last_reasons:
            return False
        age_ms = (self._clock() - self._last_ok) * 1000.0
        return age_ms >= self._timeout_ms

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def promote(self, *, force: bool = False) -> DatabaseServer:
        """Promote the most-caught-up healthy replica to primary.

        The sequence (each step safe to re-run after a crash):

        1. Re-probe; refuse to depose a healthy primary unless
           ``force``.
        2. Pick the non-quarantined replica with the highest applied
           lsn; drain it to the reachable end of the old log (a
           candidate that diverges while draining is quarantined by
           its own checks and the next-best is picked).
        3. Open a fresh log at ``old epoch + 1``, checkpoint the
           candidate's state into it, seed the new server's dedup
           ledger from the candidate's rebuilt one.
        4. Swap the router's primary (it enforces the strict epoch
           increase), retarget the surviving replicas, and fence the
           deposed primary.

        Returns:
            The new primary server.

        Raises:
            FailoverError: the primary still looks healthy (and not
                ``force``), or no eligible replica exists.
            InjectedFault: an armed failover kill-point fired; the
                cluster is unchanged and :meth:`promote` may simply be
                called again.
        """
        kill_point("supervisor-before-promote", epoch=self._router.epoch)
        if not force and self.heartbeat()["healthy"]:
            raise FailoverError(
                "refusing to depose a healthy primary (use force=True "
                "for a planned switchover)",
                reason="primary-healthy",
            )
        deposed = self._router.primary
        candidate = self._drain_best_candidate()
        kill_point(
            "promote-mid-drain",
            replica=candidate.replica_id,
            lsn=candidate.applied_lsn,
        )
        new_epoch = max(self._router.epoch, candidate.epoch) + 1
        new_dir = os.path.join(self._promote_dir, f"epoch-{new_epoch:04d}")
        os.makedirs(new_dir, exist_ok=True)
        database = candidate.database
        if database.wal is not None:  # pragma: no cover - replicas log-less
            database.detach_wal()
        database.set_read_only(False)
        wal = WriteAheadLog(new_dir, fsync=self._fsync, epoch=new_epoch)
        server = DatabaseServer(database, wal=wal, **self._server_options)
        server.checkpoint()  # the new log's durable baseline
        server.dedup.seed(candidate.dedup_entries())
        server.mark_promoted()
        self._router.promote(server)  # enforces the strict epoch increase
        self._router.remove_replica(candidate)
        for survivor in self._router.replicas:
            try:
                survivor.retarget(new_dir)
            except Exception as exc:  # pragma: no cover - defensive
                logger.warning(
                    "replica %s failed to retarget onto %s: %s",
                    survivor.replica_id,
                    new_dir,
                    exc,
                )
        with contextlib.suppress(Exception):
            deposed.fence(new_epoch)  # best effort; it may be truly dead
        self._stats["promotions"] += 1
        self._last_ok = self._clock()
        self._last_reasons = []
        logger.warning(
            "promoted replica %s to primary at epoch %d (log: %s)",
            candidate.replica_id,
            new_epoch,
            new_dir,
        )
        return server

    def _drain_best_candidate(self) -> Replica:
        """The most-caught-up non-quarantined replica, fully drained."""
        while True:
            eligible = [
                r for r in self._router.replicas if not r.quarantined
            ]
            if not eligible:
                raise FailoverError(
                    "no eligible replica: every follower is quarantined "
                    "or the pool is empty",
                    reason="no-candidate",
                )
            candidate = max(eligible, key=lambda r: r.applied_lsn)
            try:
                candidate.sync()  # drain to the reachable end of the log
            except ReplicaDiverged:
                # Quarantined itself while draining; the next selection
                # skips it.  InjectedFault propagates: a simulated
                # crash aborts the whole promotion attempt cleanly.
                self._stats["candidates_skipped"] += 1
                continue
            return candidate

    def demote(self, deposed: DatabaseServer) -> Replica:
        """Re-join a deposed primary's state machine as a follower.

        The recovered old primary observes the cluster's higher epoch
        (fencing itself -- it can never acknowledge again) and a fresh
        :class:`Replica` is seeded from the *new* primary's log and
        added to the router's read pool.

        Raises:
            FailoverError: the new primary has no attached log to
                follow.
        """
        wal = self._router.primary.database.wal
        if wal is None:
            raise FailoverError(
                "the current primary has no write-ahead log; nothing "
                "for a demoted node to follow",
                reason="primary-not-logged",
            )
        deposed.observe_epoch(self._router.epoch)
        replica = Replica(wal.directory)
        self._router.add_replica(replica)
        self._stats["demotions"] += 1
        return replica

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The supervisor's ledger: probe/promotion counters, the last
        probe's signals, the grace window, and the cluster epoch."""
        out: Dict[str, Any] = dict(self._stats)
        out["heartbeat_timeout_ms"] = self._timeout_ms
        out["last_reasons"] = list(self._last_reasons)
        out["primary_failed"] = self.primary_failed
        out["epoch"] = self._router.epoch
        return out
