"""Smoke-sized runs over a real server: what is emitted, that counts
are exact, that the trace adds up, that nothing is left behind."""

from __future__ import annotations

import json
import os

import pytest

from bench import harness
from bench.metrics import load_spec
from bench.server import OUT_DIR, ServerProcess
from bench.trace import per_op_times
from bench.workloads import (
    SMOKE_PATIENTS, WORKLOADS, Op, stream_digest,
)

from .conftest import SECONDS, SEED


def _value(result, name):
    return result.metrics[name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_exactly_the_declared_ones(smoke_run, workload):
    result = smoke_run(workload, False)
    declared = load_spec()["end_to_end"]
    assert list(result.metrics) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result.metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0  # end-to-end metrics are never 0
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert set(result.result_line()) == {
        "correct", "attempted", "failed", "metrics",
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_exactly_the_declared_ones(smoke_run, workload):
    result = smoke_run(workload, True)
    declared = load_spec()["per_layer"]
    assert list(result.metrics) == [m["name"] for m in declared]
    assert result.correct and result.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_records_the_stream_it_sent(smoke_run, workload):
    result = smoke_run(workload, False)
    assert result.detail["stream_sha256"] == stream_digest(
        workload, SEED, SMOKE_PATIENTS[workload]
    )
    assert result.detail["patients"] == SMOKE_PATIENTS[workload]
    assert not result.detail["generator_bound"]


def test_read_hot_counts_are_exact_and_views_stay_warm(smoke_run):
    result = smoke_run("read_hot", True)
    sent = _value(result, "client.ops_attempted")
    assert sent > 0
    assert _value(result, "serving.reads") == sent
    assert _value(result, "netserve.frames_in") == sent
    assert _value(result, "netserve.frames_out") == sent
    assert _value(result, "security.viewcache.incremental_patches") == 0
    assert _value(result, "security.viewcache.full_builds") == 0
    assert _value(result, "security.viewcache.hit_ratio") == 1.0
    assert _value(result, "wal.appends") == 0
    assert _value(result, "serving.writes") == 0


def test_session_churn_builds_one_view_per_user(smoke_run):
    result = smoke_run("session_churn", True)
    users = SMOKE_PATIENTS["session_churn"]
    assert _value(result, "client.ops_attempted") == users
    assert _value(result, "security.viewcache.full_builds") == users
    assert _value(result, "serving.reads") == users
    assert _value(result, "netserve.connections_opened") == users
    assert _value(result, "wal.appends") == 0


def test_write_group_groups_commits_and_survives_a_kill(smoke_run):
    result = smoke_run("write_group", True)
    writes = _value(result, "client.ops_attempted")
    assert _value(result, "serving.commits") == writes
    assert _value(result, "wal.appends") == writes
    assert _value(result, "serving.group.records_per_fsync") > 1.0
    assert _value(result, "wal.bytes_per_commit") > 0
    # The crash-restart check ran: every acked commit was replayed.
    assert _value(result, "wal.recover_s") > 0
    assert _value(result, "wal.recovered_records") >= writes
    assert result.correct


def test_mixed_rw_patches_the_readers_view(smoke_run):
    result = smoke_run("mixed_rw", True)
    assert _value(result, "security.viewcache.incremental_patches") > 0
    assert _value(result, "security.viewcache.full_builds") == 0
    assert _value(result, "client.read_p50_ms") > 0
    assert _value(result, "client.write_p50_ms") > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_sum_to_the_root(smoke_run, workload):
    result = smoke_run(workload, True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}.json")) as handle:
        trace = json.load(handle)
    ops = per_op_times(trace["spans"])
    assert len(ops) == _value(result, "client.trace_ops") > 0
    for op in ops.values():
        assert op["root"] > 0
        assert abs(sum(op["self"].values()) - op["root"]) <= 0.01 * op["root"]
    assert _value(result, "client.trace_attributed_ratio") >= 0.9
    assert _value(result, "client.trace_overhead_ratio") > 0
    span = trace["spans"][0]
    assert set(span) == {"name", "start_ns", "end_ns", "parent", "op_id"}


def _run_dirs():
    return {name for name in os.listdir(OUT_DIR) if name.startswith("run-")}


@pytest.fixture
def spawned(monkeypatch):
    """The pids of every server the harness spawns in this test."""
    pids = []

    class Recording(ServerProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pids.append(self.pid)

    monkeypatch.setattr(harness, "ServerProcess", Recording)
    return pids


def test_server_and_directories_are_reaped(spawned):
    before = _run_dirs()
    harness.run_workload("write_group", SEED, 0.5, False,
                         SMOKE_PATIENTS["write_group"])
    assert len(spawned) == harness.SETUPS + 1  # + the crash restart
    assert not any(os.path.exists(f"/proc/{pid}") for pid in spawned)
    assert _run_dirs() == before


def test_server_is_reaped_when_the_window_raises(spawned, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("lane failure")

    monkeypatch.setattr(harness, "run_parallel", explode)
    before = _run_dirs()
    with pytest.raises(RuntimeError, match="lane failure"):
        harness.run_workload("session_churn", SEED, 0.5, True,
                             SMOKE_PATIENTS["session_churn"])
    assert spawned
    assert not any(os.path.exists(f"/proc/{pid}") for pid in spawned)
    assert _run_dirs() == before


def test_an_oracle_mismatch_fails_the_run_and_the_comparison(
        smoke_run, monkeypatch, tmp_path):
    from bench import compare

    good = smoke_run("read_hot", False)
    honest = Op.check
    calls = [0]

    def sometimes_wrong(self, result):
        calls[0] += 1
        return honest(self, result) and calls[0] % 10 != 0

    monkeypatch.setattr(Op, "check", sometimes_wrong)
    bad = harness.run_workload("read_hot", SEED, SECONDS, False,
                               SMOKE_PATIENTS["read_hot"])
    assert bad.failed > 0 and not bad.correct
    paths = []
    for name, result in (("a", good), ("b", bad)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"runs": {"read_hot": [result.result_line()]}}))
        paths.append(str(path))
    assert compare.main(*paths) != 0
    assert compare.main(paths[0], paths[0]) == 0
