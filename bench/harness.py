"""One benchmark run: set-up, probes, warm-up, timed window, checks.

A run of workload W at seed N:

1. generates the document, subjects and policy and saves the snapshot;
2. sets the server up :data:`SETUPS` times on fresh copies of it --
   spawn ``serve``, wait for ``listening``, run the three security
   probes, run the warm-up ops -- and reports the median as
   ``setup_s`` (the last server is the one measured);
3. drives the timed window over the two connections (closed loop),
   checking every reply against the shadow;
4. re-reads the whole document and the commit count and compares them
   with the shadow; ``write_group`` then SIGKILLs the server, restarts
   it on the same files and compares again (no acked write lost);
5. with ``--trace 1``, adds the per-layer metrics: ``stats`` counter
   deltas across the window and the in-process traced replay
   (:mod:`bench.trace`).

Loopback only; fsync policy ``always``; latencies are this sandbox's
page-cache fsync, not a device's.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.netserve import NetClient
from repro.storage import save_to_file

from . import trace as tracing
from .client import TIMEOUT, Sample, open_lanes, run_parallel
from .metrics import emit, load_spec, percentile, ratio
from .server import REPO_ROOT, ServerProcess, Workdir
from .workloads import (
    CONNECTIONS, READ_SHAPES, Plan, build_database, build_plan, stream_digest,
    xupdate_script,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Bursts a fixed-length workload's ops are spread over the window in.
BURSTS = 10

#: Per-layer count -> ``stats`` ledger key, diffed across the window
#: (exact with these clients: nothing else talks to the server).
_COUNTERS = {
    "netserve.frames_in": "net_frames_in",
    "netserve.frames_out": "net_frames_out",
    "netserve.connections_opened": "net_connections_opened",
    "netserve.reads_paused": "net_reads_paused",
    "netserve.protocol_errors": "net_protocol_errors",
    "serving.reads": "reads",
    "serving.writes": "writes",
    "serving.commits": "commits",
    "serving.retries": "retries",
    "serving.commit_races": "commit_races",
    "serving.shed": "shed",
    "serving.deadline_exceeded": "deadline_exceeded",
    "serving.group.commits": "group_commits",
    "serving.group.fsyncs_saved": "group_fsyncs_saved",
    "security.perm.full_resolves": "full_resolves",
    "security.perm.delta_resolves": "delta_resolves",
    "security.perm.path_evals": "path_evals",
    "security.perm.path_cache_hits": "path_cache_hits",
    "security.perm.paths_patched": "paths_patched",
    "security.perm.paths_carried": "paths_carried",
    "security.viewcache.hits": "view_hits",
    "security.viewcache.incremental_patches": "view_incremental_patches",
    "security.viewcache.full_builds": "view_full_builds",
    "security.degraded_rebuilds": "degraded_rebuilds",
    "security.static.decisions": "static_decisions",
    "security.static.fallbacks": "static_fallbacks",
    "xpath.rules_compiled": "rules_compiled",
    "wal.appends": "wal_appends",
    "wal.fsyncs": "wal_fsyncs",
    "wal.rotations": "wal_rotations",
    "wal.checkpoints": "wal_checkpoints",
}


@dataclass
class Tally:
    """Every checked reply of the run: attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def count(self, samples: List[Sample]) -> None:
        for sample in samples:
            self.check(sample.ok)


@dataclass
class Live:
    """A set-up server with its lanes connected and warmed."""

    server: ServerProcess
    control: NetClient
    lanes: list
    setup_s: float

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()
        self.control.close()
        self.server.stop()


@dataclass
class Snapshot:
    """Server and client counters at one edge of the timed window."""

    stats: Dict[str, Any]
    server_cpu: float
    wal_bytes: int
    client_cpu: float


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    #: Diagnostics printed but neither declared nor gated.
    detail: Dict[str, Any] = field(default_factory=dict)

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "metrics": self.metrics,
        }


def environment(seed: int, seconds: float, setups: int = SETUPS
                ) -> Dict[str, Any]:
    """The block every result carries."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": sha, "seed": seed, "fsync_policy": "always",
        "transport": "loopback", "connections": CONNECTIONS,
        "window_s": seconds, "setups_per_run": setups, "loop": "closed",
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def security_probes(server: ServerProcess, control: NetClient, plan: Plan,
                    tally: Tally) -> None:
    """Three fixed probes that must hold before any timing: a
    secretary's update of a diagnosis is denied; a secretary's update
    selecting on the diagnosis *text* selects nothing (the paper's
    section 2.2 covert channel stays closed -- she sees RESTRICTED);
    a patient cannot select another patient.  The two non-strict
    executes each install a (changeless) commit."""
    shadow = plan.shadow
    victim = shadow.names[0]
    path = f"/patients/{victim}/diagnosis"

    def leak(select: str) -> str:
        return xupdate_script(
            f'<xupdate:update select="{select}">leaked</xupdate:update>')

    with NetClient(server.host, server.port, timeout=TIMEOUT) as secretary:
        secretary.open_session("beaufort")
        denied = secretary.execute(leak(path))
        tally.check(
            not denied["fully_applied"] and denied["affected"] == 0
            and denied["denied"] >= 1
        )
        covert = secretary.execute(
            leak(f"//diagnosis[.='{shadow.text[victim]}']"))
        tally.check(covert["selected"] == 0 and covert["affected"] == 0)
        shadow.version += 2
    with NetClient(server.host, server.port, timeout=TIMEOUT) as patient:
        patient.open_session("robert")  # a patient with no record here
        tally.check(patient.select(f"/patients/{victim}") == [])
    tally.check(
        control.query(path)["nodes"] == [shadow.diagnosis_xml(victim)]
    )


def set_up(work: Workdir, snapshot: str, plan: Plan, tally: Tally,
           index: int) -> Live:
    """Spawn ``serve`` on a fresh copy of the snapshot and bring it to
    the measured state.  ``setup_s`` runs from the spawn to the last
    warm-up reply: recovery-on-open, the initial checkpoint, the first
    view builds."""
    db_path = os.path.join(work.subdir(f"db{index}"), "hospital.db.xml")
    shutil.copy(snapshot, db_path)
    started = time.perf_counter()
    server = ServerProcess(db_path)
    try:
        control = NetClient(server.host, server.port, timeout=TIMEOUT)
        control.open_session("laporte")
        security_probes(server, control, plan, tally)
        lanes = open_lanes(server.host, server.port, plan.lanes)
        if plan.warmup_ops:
            for samples in run_parallel(
                [partial(lane.run, per_stream=plan.warmup_ops)
                 for lane in lanes],
                timeout=TIMEOUT,
            ):
                tally.count(samples)
        setup_s = time.perf_counter() - started
    except BaseException:
        server.stop()
        raise
    return Live(server, control, lanes, setup_s)


# ----------------------------------------------------------------------
# the timed window and the checks after it
# ----------------------------------------------------------------------
class CpuSampler(threading.Thread):
    """Reads the server's CPU time every 50 ms during the window, so
    CPU per op can be told slice by slice."""

    def __init__(self, server: ServerProcess) -> None:
        super().__init__(daemon=True)
        self._server = server
        self._stop_event = threading.Event()
        self.readings: List[Tuple[float, float]] = []

    def read(self) -> None:
        self.readings.append(
            (time.perf_counter(), self._server.cpu_seconds()))

    def run(self) -> None:
        while not self._stop_event.wait(0.05):
            self.read()

    def finish(self) -> None:
        self._stop_event.set()
        self.join()
        self.read()

    def cpu_at(self, when: float) -> float:
        """Server CPU seconds at ``when``, from the nearest reading."""
        return min(self.readings, key=lambda r: abs(r[0] - when))[1]


def undisturbed(values: List[float], better: str) -> float:
    """The quartile of per-slice values on the undisturbed side.

    The box's two vCPUs behave as hyperthreads of one core: a fixed
    pure-Python loop takes 12 ms alone and 25 ms while the other vCPU
    spins, and on the idle box it still takes 19-21 ms for seconds at a
    time whenever anything else in the sandbox runs.  A whole-window
    statistic therefore measures the neighbours as much as the program
    (ten runs spread by 20-40 % of their median).  A slowdown of the
    program moves every slice; an episode moves some.  Hence: each
    metric is computed per slice of the window, and the reported value
    is the lower quartile of the slices for a lower-is-better metric,
    the upper quartile for a rate."""
    return percentile(values, 25 if better == "lower" else 75)


def drive_window(live: Live, plan: Plan, seconds: float, sampler: CpuSampler
                 ) -> Tuple[List[Sample], List[Tuple[float, float]]]:
    """Run the lanes for the timed window.  Returns every sample and
    the window's slices as (start, end) pairs.

    A timed workload runs for ``seconds`` and is cut afterwards into
    equal slices of about 30 gated ops (4 to 12 slices).  A fixed-
    length one (``session_churn``: every user logs in once) spreads
    its ops over ``seconds`` in :data:`BURSTS` bursts, each burst a
    slice: run back to back the whole workload would fit inside one
    noisy episode of the box."""
    start = time.perf_counter()
    if not plan.fixed_length:
        calls = [partial(lane.run, stop_at=start + seconds)
                 for lane in live.lanes]
        samples = _flatten(run_parallel(calls, seconds + 2 * TIMEOUT))
        end = time.perf_counter()
        gated = sum(1 for s in samples if s.kind == plan.gated)
        count = max(4, min(12, gated // 30))
        length = (end - start) / count
        return samples, [(start + i * length, start + (i + 1) * length)
                         for i in range(count)]
    samples = []
    slices = []
    per_burst = -(-len(plan.users) // (BURSTS * len(live.lanes)))
    calls = [partial(lane.run, per_stream=per_burst) for lane in live.lanes]
    for burst in range(BURSTS):
        time.sleep(max(
            0.0, start + burst * seconds / BURSTS - time.perf_counter()))
        sampler.read()
        low = time.perf_counter()
        samples += _flatten(run_parallel(calls, 2 * TIMEOUT))
        slices.append((low, time.perf_counter()))
        sampler.read()
    return samples, slices


def _flatten(per_lane: List[List[Sample]]) -> List[Sample]:
    return [sample for lane in per_lane for sample in lane]


def slice_metrics(gated: List[Sample], sampler: CpuSampler,
                  slices: List[Tuple[float, float]]) -> Dict[str, List[float]]:
    """Per slice: the median latency of the gated ops completing in
    it, their rate, and the server CPU spent per op.  (A slice holds
    about 30 ops -- too few for a tail percentile, which is why p90 and
    p99 are whole-window ``client.*`` diagnostics, not gated.)"""
    out: Dict[str, List[float]] = {
        "op_p50_ms": [], "ops_per_s": [], "server_cpu_ms_per_op": [],
    }
    for low, high in slices:
        times = [s.seconds * 1000.0 for s in gated if low <= s.done <= high]
        if not times:
            continue
        cpu = sampler.cpu_at(high) - sampler.cpu_at(low)
        out["op_p50_ms"].append(percentile(times, 50))
        out["ops_per_s"].append(len(times) / (high - low))
        out["server_cpu_ms_per_op"].append(cpu * 1000.0 / len(times))
    return out


def _snapshot(live: Live) -> Snapshot:
    return Snapshot(
        stats=live.control.stats(),
        server_cpu=live.server.cpu_seconds(),
        wal_bytes=live.server.wal_bytes(),
        client_cpu=time.process_time(),
    )


def verify_state(client: NetClient, plan: Plan, tally: Tally) -> int:
    """The whole document as the doctor reads it, and the commit
    count, against the shadow.  Returns the server's version."""
    version = client.stats()["version"]
    tally.check(version == plan.shadow.version)
    tally.check(client.read_xml() == plan.shadow.document_xml())
    return version


def crash_restart(live: Live, plan: Plan, tally: Tally) -> Dict[str, float]:
    """SIGKILL the server, restart ``serve`` on the same files, and
    require every acked write back.  A process kill leaves the OS page
    cache intact: this checks the recovery logic, not the device."""
    live.server.kill()
    started = time.perf_counter()
    with ServerProcess(live.server.db_path) as server:
        with NetClient(server.host, server.port, timeout=TIMEOUT) as client:
            client.open_session("laporte")
            recover_s = time.perf_counter() - started
            records = verify_state(client, plan, tally)
    return {
        "wal.recover_s": recover_s,
        "wal.recovered_records": records,
        "wal.recover_ms_per_record": ratio(recover_s * 1000.0, records),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 patients: Optional[int] = None) -> RunResult:
    """One full run; see the module docstring."""
    spec = load_spec()
    tally = Tally()
    layer: Dict[str, float] = {}
    with Workdir() as work:
        started = time.perf_counter()
        plan = build_plan(workload, seed, patients)
        database = build_database(plan)
        layer["client.gen_s"] = time.perf_counter() - started
        snapshot = os.path.join(work.path, "snapshot.db.xml")
        started = time.perf_counter()
        save_to_file(database, snapshot, backup=False)
        layer["storage.save_s"] = time.perf_counter() - started
        layer["storage.snapshot_bytes"] = os.path.getsize(snapshot)
        del database

        setups: List[float] = []
        live = None
        for index in range(1 if trace else SETUPS):
            if live is not None:
                live.close()
            plan = build_plan(workload, seed, patients)
            live = set_up(work, snapshot, plan, tally, index)
            setups.append(live.setup_s)
        try:
            sampler = CpuSampler(live.server)
            before = _snapshot(live)
            sampler.read()
            sampler.start()
            try:
                samples, slices = drive_window(live, plan, seconds, sampler)
            finally:
                sampler.finish()
            elapsed = sum(high - low for low, high in slices)
            peak_rss = live.server.peak_rss_mb()
            after = _snapshot(live)
            tally.count(samples)
            verify_state(live.control, plan, tally)
            if workload == "write_group":
                layer.update(crash_restart(live, plan, tally))
        finally:
            live.close()

        gated_ops = [s for s in samples if s.kind == plan.gated and s.ok]
        gated = [s.seconds * 1000.0 for s in gated_ops]
        sliced = slice_metrics(gated_ops, sampler, slices)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        end_to_end = {
            name: undisturbed(values, better[name])
            for name, values in sliced.items()
        }
        end_to_end["setup_s"] = statistics.median(setups)
        end_to_end["server_peak_rss_mb"] = peak_rss
        server_cpu = after.server_cpu - before.server_cpu
        client_share = ratio(after.client_cpu - before.client_cpu, elapsed)
        detail = {
            "env": environment(seed, seconds, len(setups)),
            "patients": plan.patients,
            "gated_op": plan.gated,
            "gated_samples": len(gated),
            "window_s": elapsed,
            "setups_s": setups,
            "stream_sha256": stream_digest(workload, seed, patients),
            "slices": len(sliced["op_p50_ms"]),
            # Whole-window figures, neighbours' episodes included.
            "window_op_p50_ms": percentile(gated, 50),
            "window_op_p90_ms": percentile(gated, 90),
            "window_op_p99_ms": percentile(gated, 99),
            "window_ops_per_s": ratio(len(gated), elapsed),
            "window_server_cpu_ms_per_op":
                ratio(server_cpu * 1000.0, len(gated)),
            "client_cpu_share": client_share,
            # The generator, not the server, limited the run: invalid.
            "generator_bound": client_share > 0.8,
        }
        if trace:
            layer.update(_window_layers(before, after, samples, elapsed))
            layer["client.cpu_share"] = client_share
            layer["client.op_p90_ms"] = percentile(gated, 90)
            layer["client.op_p99_ms"] = percentile(gated, 99)
            times, verdicts = tracing.replay(
                work, snapshot, workload, seed, patients, end_to_end
            )
            layer.update(times)
            for ok in verdicts:
                tally.check(ok)
            metrics = emit(spec["per_layer"], layer)
        else:
            metrics = emit(spec["end_to_end"], end_to_end)
    return RunResult(
        workload, seed, trace, tally.failed == 0, tally.attempted,
        tally.failed, metrics, detail,
    )


def _window_layers(before: Snapshot, after: Snapshot, samples: List[Sample],
                   elapsed: float) -> Dict[str, float]:
    """Per-layer counts: the ``stats`` ledger diffed across the window,
    and the client's own view of each op kind and read shape."""
    delta = {
        name: after.stats[key] - before.stats[key]
        for name, key in _COUNTERS.items()
    }
    # The closing ``stats`` request sees its own frame arrive and the
    # opening one's reply leave.
    delta["netserve.frames_in"] -= 1
    delta["netserve.frames_out"] -= 1
    reads = delta["serving.reads"]
    grouped = after.stats["grouped_records"] - before.stats["grouped_records"]
    commits = delta["serving.commits"]
    decided = delta["security.static.decisions"]
    wal_bytes = after.wal_bytes - before.wal_bytes
    delta.update({
        "serving.admission_peak_in_flight":
            after.stats["admission_peak_in_flight"],
        "serving.group.records_per_fsync":
            ratio(grouped, delta["serving.group.commits"]),
        # A served Session reuses its view without consulting the
        # cache, so ``hits`` alone undercounts: count the misses.
        "security.viewcache.hit_ratio": ratio(
            reads - delta["security.viewcache.incremental_patches"]
            - delta["security.viewcache.full_builds"], reads),
        "security.static.decided_ratio":
            ratio(decided, decided + delta["security.static.fallbacks"]),
        "wal.bytes": wal_bytes,
        "wal.bytes_per_commit": ratio(wal_bytes, commits),
        "client.ops_attempted": len(samples),
        "client.failed_ops": sum(1 for s in samples if not s.ok),
    })
    for kind in ("read", "write"):
        times = [s.seconds * 1000.0 for s in samples
                 if s.kind == kind and s.ok]
        delta[f"client.{kind}_p50_ms"] = percentile(times, 50)
        delta[f"client.{kind}_p90_ms"] = percentile(times, 90)
        delta[f"client.{kind}_p99_ms"] = percentile(times, 99)
        delta[f"client.{kind}s_per_s"] = ratio(len(times), elapsed)
    for shape in READ_SHAPES:
        delta[f"xpath.shape_p50_ms.{shape}"] = percentile(
            [s.seconds * 1000.0 for s in samples if s.shape == shape and s.ok],
            50,
        )
    return delta


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_result(result: RunResult, out=sys.stdout) -> None:
    """Every metric by name with its unit, then -- as the last line --
    the result object."""
    kind = "per-layer (traced)" if result.trace else "end-to-end"
    print(f"# {result.workload} seed={result.seed} {kind}", file=out)
    for key, value in result.detail.items():
        print(f"#   {key}: {value}", file=out)
    # End-to-end timings come from the window's gated ops; the traced
    # run's sample counts are its own client.* metrics.
    count = "" if result.trace else f" (n={result.detail['gated_samples']})"
    for name, metric in result.metrics.items():
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']:8s}"
              f"{count}", file=out)
    print(json.dumps(result.result_line()), file=out, flush=True)
