"""The traced run: spans around each layer's public entry points.

The first ops of the same seeded streams are replayed **in-process**
(no socket) against a :class:`DatabaseServer` opened on a copy of the
same snapshot, one harness thread per stream so the lock waits are
real, first untraced and then under wrappers installed *from here*
around the entry points named in :data:`_METHODS` / :data:`_FUNCTIONS`
-- nothing under ``src/`` is edited (program-internal stage timers are
the ROADMAP's next step, not this benchmark's).

A span is ``{name, start_ns, end_ns, parent, op_id}`` on a per-thread
stack; spans stay in memory and are written to
``bench/out/trace-<workload>.json`` when the replay ends.  A span's
*self* time is its duration minus its children's; a name's *total* per
op counts only its outermost spans (``SecureWriteExecutor.apply``
recurses).  A per-layer ``*_us`` metric is the p50, over the ops in
which the span occurred, of that per-op total (``*_self_us``: of the
self time).

Under group commit the leader's thread executes its followers' scripts,
so their ``serving.execute`` spans land in the leader's op; per-op self
times still sum to the op's root span on every thread.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import threading
import time
from collections import defaultdict
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.netserve import FrameDecoder, encode_frame
from repro.netserve.protocol import ok_response
from repro.security import PermissionResolver, SecureWriteExecutor, Session
from repro.security import ViewBuilder
from repro.security.viewcache import ViewCache
from repro.serving import (
    AdmissionController, DatabaseServer, GroupCommitter, RWLock,
)
from repro.storage import load_from_file
from repro.wal import WriteAheadLog
from repro.xmltree import serialize
from repro.xpath import XPathEngine
from repro.xpath.compiler import CompiledXPath
from repro.xpath.values import is_node_set
from repro.xupdate import XUpdateExecutor, dump_xupdate, parse_xupdate

from .client import request_frame
from .metrics import percentile, ratio
from .server import OUT_DIR, Workdir
from .workloads import READ_SHAPES, Op, Plan, build_plan, read_op

#: Ops traced per replay, shared among the streams; the untraced pass
#: before it runs as many.
TRACE_OPS = 300
#: Wall-clock cap on each replay pass (``mixed_rw`` writes are slow).
PASS_SECONDS = 4.0

#: (owner, attribute) -> span name.  Every owner is a public class.
_METHODS = (
    (DatabaseServer, "serve", "serving.query"),
    (DatabaseServer, "execute_once", "serving.execute"),
    (DatabaseServer, "session", "security.session.open"),
    (RWLock, "acquire_read", "serving.lock_wait_read"),
    (RWLock, "acquire_write", "serving.lock_wait_write"),
    (AdmissionController, "acquire", "serving.admission"),
    (GroupCommitter, "commit", "serving.group.commit"),
    (Session, "query", "security.session.query"),
    (Session, "select", "security.session.query"),
    (Session, "execute", "security.session.execute"),
    (PermissionResolver, "resolve", "security.perm.resolve"),
    (PermissionResolver, "note_commit", "security.perm.note_commit"),
    (ViewBuilder, "build", "security.view.build"),
    (SecureWriteExecutor, "apply", "security.write.apply"),
    (XPathEngine, "compile_evaluator", "xpath.compile"),
    (XPathEngine, "evaluate", "xpath.eval"),
    (CompiledXPath, "evaluate", "xpath.eval"),
    (XUpdateExecutor, "select_path", "xupdate.select"),
    (WriteAheadLog, "log_commit", "wal.append"),
    (WriteAheadLog, "sync", "wal.sync"),
    (WriteAheadLog, "sync_group", "wal.sync"),
    (WriteAheadLog, "checkpoint", "wal.checkpoint"),
)
#: Module-level functions, patched in every module that imported them.
_FUNCTIONS = (
    (parse_xupdate, "xupdate.parse"),
    (dump_xupdate, "xupdate.dump"),
    (serialize, "xmltree.serialize"),
    (load_from_file, "storage.load"),
)
_VIEW_FOR = "security.viewcache.view_for_"  # + hit | patch | build
ROOT = "op."  # + the op's kind: read | write | open


class Tracer:
    """Records spans on per-thread stacks while wrappers are installed.
    Only calls made inside :meth:`op` are recorded, so background work
    outside any op costs one thread-local lookup."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[List[list]] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._op_ids = itertools.count()

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.op_id = [], [], None
            with self._lock:
                self._threads.append(local.spans)
        return local

    def _open(self, local, name: str) -> list:
        parent = local.stack[-1] if local.stack else None
        span = [name, time.perf_counter_ns(), 0, parent, local.op_id]
        local.stack.append(len(local.spans))
        local.spans.append(span)
        return span

    def _close(self, local, span: list) -> None:
        span[2] = time.perf_counter_ns()
        local.stack.pop()

    def op(self, call: Callable[[], Any], kind: str = "open") -> Any:
        """Run ``call`` as one op of ``kind``: the root span
        (``op.<kind>``) of everything under it."""
        local = self._state()
        local.op_id = next(self._op_ids)
        span = self._open(local, ROOT + kind)
        try:
            return call()
        finally:
            self._close(local, span)
            local.op_id = None

    def _wrapper(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            local = self._state()
            if local.op_id is None:
                return fn(*args, **kwargs)
            span = self._open(local, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(local, span)
        return traced

    def _view_for_wrapper(self, fn: Callable) -> Callable:
        # One entry point, three very different costs: name the span by
        # which of the cache's own outcome counters the call advanced.
        outcomes = (("hits", "hit"), ("incremental_patches", "patch"))

        def traced(cache, *args, **kwargs):
            local = self._state()
            if local.op_id is None:
                return fn(cache, *args, **kwargs)
            before = dict(cache.stats)
            span = self._open(local, _VIEW_FOR + "build")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                self._close(local, span)
                for key, suffix in outcomes:
                    if cache.stats[key] > before[key]:
                        span[0] = _VIEW_FOR + suffix
        return traced

    # -- installing ----------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in _METHODS:
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name))
        self._patch(ViewCache, "view_for",
                    self._view_for_wrapper(ViewCache.view_for))
        for fn, name in _FUNCTIONS:
            traced = self._wrapper(fn, name)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not module_name.startswith(("repro", "bench")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Every closed span, with thread-local parent indices made
        global."""
        out: List[Dict[str, Any]] = []
        for spans in self._threads:
            base = len(out)
            for name, start, end, parent, op_id in spans:
                out.append({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": None if parent is None else base + parent,
                    "op_id": op_id,
                })
        return out


def per_op_times(spans: List[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    """For each op: its root duration and, per span name, the self
    time and the total (outermost spans only), all in nanoseconds."""
    child_time: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end_ns"] - span["start_ns"]
    ops: Dict[int, Dict[str, Any]] = {}
    for index, span in enumerate(spans):
        op = ops.setdefault(span["op_id"], {
            "root": 0, "kind": "", "self": defaultdict(int),
            "total": defaultdict(int),
        })
        duration = span["end_ns"] - span["start_ns"]
        name = span["name"]
        op["self"][name] += duration - child_time[index]
        if name.startswith(ROOT):
            op["root"], op["kind"] = duration, name[len(ROOT):]
        ancestor = span["parent"]
        while ancestor is not None and spans[ancestor]["name"] != name:
            ancestor = spans[ancestor]["parent"]
        if ancestor is None:
            op["total"][name] += duration
    return ops


def layer_shares(ops: Dict[int, Dict[str, Any]]
                 ) -> Dict[str, Dict[str, float]]:
    """Per op kind: each span name's share of that kind's in-process
    op time (self times over root times); the root's own share is what
    no named layer accounts for."""
    roots: Dict[str, int] = defaultdict(int)
    for op in ops.values():
        roots[op["kind"]] += op["root"]
    shares: Dict[str, Dict[str, float]] = {kind: defaultdict(float)
                                           for kind in roots}
    for op in ops.values():
        for name, self_ns in op["self"].items():
            shares[op["kind"]][name] += ratio(self_ns, roots[op["kind"]])
    return {
        kind: dict(sorted(by_name.items(), key=lambda item: -item[1]))
        for kind, by_name in shares.items()
    }


#: Per-layer metric -> (span name, "total" | "self").
_SPAN_METRICS = {
    "serving.query_us": ("serving.query", "total"),
    "serving.query_self_us": ("serving.query", "self"),
    "serving.execute_us": ("serving.execute", "total"),
    "serving.execute_self_us": ("serving.execute", "self"),
    "serving.lock_wait_read_us": ("serving.lock_wait_read", "total"),
    "serving.lock_wait_write_us": ("serving.lock_wait_write", "total"),
    "serving.admission_us": ("serving.admission", "total"),
    "serving.group.commit_us": ("serving.group.commit", "total"),
    "security.session.open_us": ("security.session.open", "total"),
    "security.session.query_us": ("security.session.query", "total"),
    "security.session.execute_us": ("security.session.execute", "total"),
    "security.perm.resolve_us": ("security.perm.resolve", "total"),
    "security.perm.note_commit_us": ("security.perm.note_commit", "total"),
    "security.viewcache.view_for_hit_us": (_VIEW_FOR + "hit", "total"),
    "security.viewcache.view_for_patch_us": (_VIEW_FOR + "patch", "total"),
    "security.viewcache.view_for_build_us": (_VIEW_FOR + "build", "total"),
    "security.view.build_us": ("security.view.build", "total"),
    "security.write.apply_us": ("security.write.apply", "total"),
    "xpath.compile_us": ("xpath.compile", "total"),
    "xpath.eval_us": ("xpath.eval", "total"),
    "xupdate.parse_us": ("xupdate.parse", "total"),
    "xupdate.select_us": ("xupdate.select", "total"),
    "xupdate.dump_us": ("xupdate.dump", "total"),
    "xmltree.serialize_us": ("xmltree.serialize", "total"),
    "wal.append_us": ("wal.append", "total"),
    "wal.sync_us": ("wal.sync", "total"),
}


# ----------------------------------------------------------------------
# the in-process server and its ops
# ----------------------------------------------------------------------
def _wire_nodes(session: Session, nodes) -> List[str]:
    doc = session.view().doc
    return [serialize(doc, nid) for nid in nodes]


def _wire_value(session: Session, value) -> Dict[str, Any]:
    # The harness's ops only produce node-sets and numbers.
    if is_node_set(value):
        return {"type": "node-set", "nodes": _wire_nodes(session, value)}
    return {"type": "number", "value": float(value)}


def call_in_process(server: DatabaseServer, group: GroupCommitter,
                    user: Optional[str], op: Op) -> Any:
    """What the network front-end does for ``op``, minus the socket:
    the same serving-layer calls, the same wire-shaped result."""
    if op.wire_op == "query":
        return server.serve(
            user, lambda s: _wire_value(s, s.query(op.arg)), None, "query")
    if op.wire_op == "select":
        return server.serve(
            user, lambda s: {"nodes": _wire_nodes(s, s.select(op.arg))},
            None, "select")
    if op.wire_op == "execute":
        result = group.commit(user, op.arg)
        return {
            "fully_applied": result.fully_applied,
            "selected": len(result.selected),
            "affected": len(result.affected),
            "denied": len(result.denials),
        }
    server.session(op.arg)  # "open": a cold login, then the first read
    return server.serve(
        op.arg, lambda s: _wire_nodes(s, s.select("/patients/*")),
        None, "select")


def _run_pass(server, group, plan: Plan, per_stream: int,
              tracer: Optional[Tracer]) -> Tuple[List[float], List[bool]]:
    """Every stream on its own thread for ``per_stream`` ops (streams
    of the gated kind; the others run until those finish).  Returns the
    gated ops' latencies in ms and every reply's verdict."""
    latencies: List[float] = []
    verdicts: List[bool] = []
    gated_left = [0]
    lock = threading.Lock()
    gated_done = threading.Event()
    deadline = time.perf_counter() + PASS_SECONDS

    def work(user: Optional[str], stream: Iterator[Op], gated: bool) -> None:
        count = 0
        try:
            for op in stream:
                call = partial(call_in_process, server, group, user, op)
                started = time.perf_counter()
                result = tracer.op(call, op.kind) if tracer else call()
                elapsed = time.perf_counter() - started
                count += 1
                with lock:
                    verdicts.append(op.check(result))
                    if op.kind == plan.gated:
                        latencies.append(elapsed * 1000.0)
                if gated:
                    if count >= per_stream or time.perf_counter() >= deadline:
                        return
                elif gated_done.is_set():
                    return
        finally:
            if gated:
                with lock:
                    gated_left[0] -= 1
                    if gated_left[0] == 0:
                        gated_done.set()

    jobs = []
    for lane in plan.lanes:
        for stream in lane.streams:
            gated = lane.kind == plan.gated
            gated_left[0] += 1 if gated else 0
            jobs.append((lane.user, stream, gated))
    threads = [threading.Thread(target=work, args=job, daemon=True)
               for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(PASS_SECONDS + 120.0)
        if thread.is_alive():
            raise TimeoutError("an in-process replay thread did not finish")
    return latencies, verdicts


def replay(work: Workdir, snapshot: str, workload: str, seed: int,
           patients: Optional[int], end_to_end: Dict[str, float]
           ) -> Tuple[Dict[str, float], List[bool]]:
    """The per-layer times of one traced run (see module docstring),
    and whether each replayed op's reply was correct."""
    plan = build_plan(workload, seed, patients)
    db_path = os.path.join(work.subdir("inprocess"), "hospital.db.xml")
    shutil.copy(snapshot, db_path)
    tracer = Tracer()
    tracer.install()
    try:
        server = tracer.op(lambda: DatabaseServer.open(db_path))
    finally:
        tracer.uninstall()
    open_spans = tracer.spans()
    try:
        return _replay_on(server, plan, open_spans, end_to_end)
    finally:
        server.database.wal.close()


def _replay_on(server: DatabaseServer, plan: Plan,
               open_spans: List[Dict[str, Any]],
               end_to_end: Dict[str, float]
               ) -> Tuple[Dict[str, float], List[bool]]:
    workload, seed = plan.workload, plan.seed
    group = GroupCommitter(server)
    streams = sum(len(lane.streams) for lane in plan.lanes)
    per_stream = -(-TRACE_OPS // streams)
    if plan.fixed_length:  # finite streams: leave half for each pass
        per_stream = min(per_stream, plan.patients // (2 * streams))
    verdicts: List[bool] = []
    if plan.warmup_ops:
        verdicts += _run_pass(server, group, plan, plan.warmup_ops, None)[1]
    untraced, checked = _run_pass(server, group, plan, per_stream, None)
    verdicts += checked
    tracer = Tracer()
    tracer.install()
    try:
        traced, checked = _run_pass(server, group, plan, per_stream, tracer)
    finally:
        tracer.uninstall()
    verdicts += checked
    spans = tracer.spans()
    ops = per_op_times(spans)
    shares = layer_shares(ops)
    out: Dict[str, float] = {}
    for metric, (name, which) in _SPAN_METRICS.items():
        out[metric] = percentile(
            [op[which][name] / 1000.0 for op in ops.values()
             if name in op[which]], 50)
    for span in open_spans:
        seconds = (span["end_ns"] - span["start_ns"]) / 1e9
        if span["name"] == "wal.checkpoint":
            out["wal.checkpoint_s"] = seconds
        elif span["name"] == "storage.load":
            out["storage.load_s"] = seconds
    in_process_p50 = percentile(untraced, 50)
    out["netserve.roundtrip_overhead_ms"] = (
        end_to_end["op_p50_ms"] - in_process_p50
    )
    out["client.in_process_p50_ms"] = in_process_p50
    out["client.trace_overhead_ratio"] = ratio(
        percentile(traced, 50), in_process_p50)
    out["client.trace_ops"] = len(ops)
    out["client.trace_attributed_ratio"] = 1.0 - shares[plan.gated].get(
        ROOT + plan.gated, 0.0)
    out.update(_xpath_shapes(server, plan))
    out.update(_frame_costs(plan))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({
            "workload": workload, "seed": seed, "patients": plan.patients,
            "ops": len(ops), "layer_share_of_op_time": shares,
            "in_process_p50_ms": in_process_p50,
            "traced_p50_ms": percentile(traced, 50),
            "spans": spans,
        }, handle)
    return out, verdicts


# ----------------------------------------------------------------------
# micro-measurements on this workload's own inputs
# ----------------------------------------------------------------------
def _median_us(call: Callable[[], Any], repeats: int = 15) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter_ns()
        call()
        times.append((time.perf_counter_ns() - started) / 1000.0)
    return percentile(times, 50)


def _xpath_shapes(server: DatabaseServer, plan: Plan) -> Dict[str, float]:
    """Each ``read_hot`` shape on the doctor's view of *this* document:
    the compiled closure pipeline against the AST interpreter (the
    ROADMAP's unexplained E23 rows, per shape)."""
    database = server.database
    engine = database.engine
    doc = database.build_view("laporte").doc
    variables = {"USER": "laporte"}
    name = plan.shadow.names[len(plan.shadow.names) // 2]
    out: Dict[str, float] = {}
    for shape in READ_SHAPES:
        path = read_op(plan.shadow, shape, name, False).arg
        compiled = engine.compile_evaluator(path)
        out[f"xpath.compiled_us.{shape}"] = _median_us(
            lambda: compiled.evaluate(doc, None, variables))
        out[f"xpath.interpreted_us.{shape}"] = _median_us(
            lambda: engine.evaluate(doc, path, None, variables))
    return out


def _frame_costs(plan: Plan, frames: int = 64) -> Dict[str, float]:
    """What the server's framing layer does per op on this workload's
    own frames: decode the request, encode the (expected) response."""
    fresh = build_plan(plan.workload, plan.seed, plan.patients)
    encode: List[float] = []
    decode: List[float] = []
    streams = [s for lane in fresh.lanes for s in lane.streams]
    for rid, op in zip(range(frames), itertools.chain.from_iterable(
            zip(*streams))):
        if op.wire_op == "open":
            request = {"id": rid, "op": "select", "path": "/patients/*"}
            response = ok_response(rid, {"nodes": op.expect})
        else:
            request = request_frame(rid, op)
            response = ok_response(rid, op.expect)
        wire = encode_frame(request)
        decode.append(_median_us(lambda: FrameDecoder().feed(wire), 5))
        encode.append(_median_us(lambda: encode_frame(response), 5))
    return {
        "netserve.frame_encode_us": percentile(encode, 50),
        "netserve.frame_decode_us": percentile(decode, 50),
    }
