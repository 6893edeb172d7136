"""E25 (added): what the network front-end's group commit amortizes.

Group commit batches writers that arrive within a short window and
makes the whole batch durable with **one** fsync, so its payoff is the
ratio fsync/execute -- a hardware property.  Two series keep the
numbers honest:

**Write throughput vs concurrent connections (this machine's disk).**
100 / 1,000 / 10,000 real localhost connections, one durable write
each (fsync policy ``always``), against a spawned ``repro serve``
subprocess -- the default group window vs ``--max-batch 1`` (one
commit per group, roughly one fsync per commit, through the same
committer).  On a fast NVMe/page-cache fsync
(~0.2 ms) the Python execute path (~1 ms) dominates, so the measured
speedup here is modest; the row reports whatever this disk yields,
plus the fsyncs actually saved (the amortization itself is exact:
N commits, ~N/batch fsyncs).  The 10,000-connection row is served out
of process because two in-process ends would exhaust the 20k fd limit.

**Write throughput vs fsync cost (simulated disk).**  The same 1,000
concurrent writers against an in-process server whose WAL fsync is
wrapped with a 5 ms sleep -- the cost of a commodity rotational disk
or a networked block device, the regime group commit exists for.
Here the one-fsync-per-group amortization is the whole bill, and the
grouped mode must clear **>= 5x** the ``max_batch=1`` throughput.

Both series also report p50/p99 per-request write latency: grouping
trades the leader's commit window (demand, capped at 2 ms) for
throughput, and the tails show the trade staying bounded.

The smoke variant (``-k smoke``) runs tiny versions of both modes and
asserts the invariants (every write acknowledged, groups actually
formed, fsyncs spent + fsyncs saved == commits, fsyncs saved when
grouped) with no timing bars.
"""

import asyncio
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

from conftest import print_series

CONNECTIONS = (100, 1_000, 10_000)
SLOW_FSYNC_S = 0.005
SLOW_DISK_WRITERS = 1_000
CONNECT_WAVE = 500

UPDATE = (
    '<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">'
    '<xupdate:update select="/log/entry">tick</xupdate:update>'
    "</xupdate:modifications>"
)


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


# ---------------------------------------------------------------------
# async client-side load
# ---------------------------------------------------------------------
async def open_clients(host, port, count, user):
    """Open ``count`` sessions in waves (a single accept loop cannot
    absorb 10k simultaneous SYNs)."""
    from repro.netserve import AsyncNetClient

    clients = []
    for wave_start in range(0, count, CONNECT_WAVE):
        wave = range(wave_start, min(wave_start + CONNECT_WAVE, count))

        async def one(_i):
            client = await AsyncNetClient.connect(host, port)
            await client.open_session(user)
            return client

        clients.extend(await asyncio.gather(*(one(i) for i in wave)))
    return clients


async def write_storm(clients, script):
    """Every client issues one durable write concurrently; returns
    (elapsed_seconds, sorted per-request latencies)."""
    latencies = []

    async def one(client):
        t0 = time.perf_counter()
        summary = await client.execute(script)
        latencies.append(time.perf_counter() - t0)
        assert summary["fully_applied"] is True

    t0 = time.perf_counter()
    await asyncio.gather(*(one(c) for c in clients))
    elapsed = time.perf_counter() - t0
    latencies.sort()
    return elapsed, latencies


async def read_storm(clients):
    """Every client issues one query concurrently; returns sorted
    per-request latencies."""
    latencies = []

    async def one(client):
        t0 = time.perf_counter()
        result = await client.query("count(/log/*)")
        latencies.append(time.perf_counter() - t0)
        assert result["type"] == "number"

    await asyncio.gather(*(one(c) for c in clients))
    latencies.sort()
    return latencies


async def drain(clients):
    for client in clients:
        await client.close()


def storm_against(host, port, count, user="w1", script=UPDATE, reads=False):
    async def run():
        clients = await open_clients(host, port, count, user)
        try:
            elapsed, writes = await write_storm(clients, script)
            read_latencies = await read_storm(clients) if reads else []
            return elapsed, writes, read_latencies
        finally:
            await drain(clients)

    return asyncio.run(run())


# ---------------------------------------------------------------------
# server-side stacks
# ---------------------------------------------------------------------
def editors_db():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from wal.conftest import editors_database

    return editors_database()


def spawned_server(base, grouped):
    """A ``repro serve`` subprocess over a freshly saved editors
    database (``--max-batch 1`` unless ``grouped``); returns (process,
    host, port)."""
    from repro.storage import save_to_file

    db_path = os.path.join(base, "bench.xmldb")
    save_to_file(editors_db(), db_path)
    command = [
        sys.executable, "-m", "repro.cli", "serve", db_path,
        "--port", "0", "--durability", "always",
        "--max-pipeline", "64", "--workers", "8",
    ]
    if not grouped:
        command += ["--max-batch", "1"]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+):(\d+)", line)
    assert match, f"serve did not come up: {line!r}"
    return process, match.group(1), int(match.group(2))


def in_process_server(base, grouped, fsync_penalty=0.0):
    """An in-process stack (needed to wrap the WAL's fsync with a
    simulated disk penalty), ``max_batch=1`` unless ``grouped``;
    returns (handle, server, wal)."""
    from repro.netserve import serve_in_thread
    from repro.serving import DatabaseServer
    from repro.wal import WriteAheadLog

    db = editors_db()
    wal = WriteAheadLog(os.path.join(base, "db.wal"), fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    if fsync_penalty:
        real_fsync = wal._fsync_now

        def slow_disk_fsync():
            time.sleep(fsync_penalty)
            real_fsync()

        wal._fsync_now = slow_disk_fsync
    server = DatabaseServer(db)
    handle = serve_in_thread(
        server, max_batch=128 if grouped else 1, max_pipeline=64,
        executor_workers=8,
    )
    return handle, server, wal


def final_stats(host, port):
    from repro.netserve import NetClient

    with NetClient(host, port, timeout=30) as client:
        client.open_session("w1")
        return client.stats()


# ---------------------------------------------------------------------
# the timed experiments
# ---------------------------------------------------------------------
def test_e25_write_throughput_vs_connections(tmp_path):
    rows = [(
        "connections", "mode", "commits/s", "p50 ms", "p99 ms",
        "group fsyncs saved", "speedup",
    )]
    read_rows = [(
        "connections", "mode", "read p50 ms", "read p99 ms",
    )]
    for count in CONNECTIONS:
        per_mode = {}
        for grouped in (False, True):
            base = tmp_path / f"c{count}g{int(grouped)}"
            base.mkdir()
            process, host, port = spawned_server(str(base), grouped)
            try:
                elapsed, latencies, reads = storm_against(
                    host, port, count, reads=True
                )
                stats = final_stats(host, port)
            finally:
                process.terminate()
                process.wait(timeout=30)
            assert stats["commits"] >= count
            assert len(reads) == count
            saved = stats.get("group_fsyncs_saved", 0)
            if grouped:
                assert stats["grouped_records"] >= count
                assert saved > 0
            per_mode[grouped] = (count / elapsed, latencies, saved, reads)
        for grouped in (False, True):
            throughput, latencies, saved, reads = per_mode[grouped]
            mode = "grouped" if grouped else "max_batch=1"
            rows.append((
                count,
                mode,
                round(throughput, 1),
                round(percentile(latencies, 0.50) * 1000, 2),
                round(percentile(latencies, 0.99) * 1000, 2),
                saved,
                round(per_mode[True][0] / per_mode[False][0], 2),
            ))
            read_rows.append((
                count,
                mode,
                round(percentile(reads, 0.50) * 1000, 2),
                round(percentile(reads, 0.99) * 1000, 2),
            ))
    print_series(
        "E25 write throughput vs connections (real disk, subprocess)", rows
    )
    print_series("E25 read latency vs connections", read_rows)


def test_e25_amortization_vs_fsync_cost(tmp_path):
    """The fsync-bound regime: with a 5 ms simulated disk, grouped
    commit must clear >= 5x the max_batch=1 (one commit per group,
    roughly one fsync per commit) throughput."""
    rows = [(
        "fsync", "mode", "commits/s", "p50 ms", "p99 ms",
        "fsyncs spent", "speedup",
    )]
    per_mode = {}
    for grouped in (False, True):
        base = tmp_path / f"slow{int(grouped)}"
        base.mkdir()
        handle, server, wal = in_process_server(
            str(base), grouped, fsync_penalty=SLOW_FSYNC_S
        )
        fsyncs_before = wal.stats["fsyncs"]
        try:
            elapsed, latencies, _ = storm_against(
                handle.host, handle.port, SLOW_DISK_WRITERS
            )
            stats = server.stats()
        finally:
            handle.stop()
        assert stats["commits"] == SLOW_DISK_WRITERS
        fsyncs = stats["wal_fsyncs"] - fsyncs_before
        per_mode[grouped] = (SLOW_DISK_WRITERS / elapsed, latencies, fsyncs)
    speedup = per_mode[True][0] / per_mode[False][0]
    for grouped in (False, True):
        throughput, latencies, fsyncs = per_mode[grouped]
        rows.append((
            f"{SLOW_FSYNC_S * 1000:.0f} ms (simulated)",
            "grouped" if grouped else "max_batch=1",
            round(throughput, 1),
            round(percentile(latencies, 0.50) * 1000, 2),
            round(percentile(latencies, 0.99) * 1000, 2),
            fsyncs,
            round(speedup, 2),
        ))
    print_series("E25 write throughput vs fsync cost (simulated disk)", rows)
    # The headline claim: one fsync amortized over N writers.
    assert per_mode[True][2] < per_mode[False][2] / 5
    assert speedup >= 5.0, rows


# ---------------------------------------------------------------------
# smoke: invariants only, toy sizes, no timing bars
# ---------------------------------------------------------------------
def test_e25_smoke_grouped_and_batch_of_one_serve_correctly(tmp_path):
    for grouped in (False, True):
        base = tmp_path / f"smoke{int(grouped)}"
        base.mkdir()
        handle, server, wal = in_process_server(str(base), grouped)
        fsyncs_before = wal.stats["fsyncs"]
        try:
            elapsed, latencies, reads = storm_against(
                handle.host, handle.port, 24, reads=True
            )
            stats = server.stats()
        finally:
            handle.stop()
        assert stats["commits"] == 24
        assert len(latencies) == 24
        assert len(reads) == 24
        assert stats["grouped_records"] == 24
        # Every commit either paid a group fsync or is counted saved.
        # At max_batch=1 a save is a pipelined leader's fsync covering
        # the next group's append, made before that fsync took the log.
        saved = stats["group_fsyncs_saved"]
        assert stats["wal_fsyncs"] - fsyncs_before + saved == 24
        if grouped:
            assert saved > 0
        else:
            assert stats["group_commits"] == 24


def test_e25_smoke_slow_disk_grouping_saves_fsyncs(tmp_path):
    handle, server, wal = in_process_server(
        str(tmp_path), grouped=True, fsync_penalty=0.001
    )
    before = wal.stats["fsyncs"]
    try:
        storm_against(handle.host, handle.port, 16)
        stats = server.stats()
    finally:
        handle.stop()
    assert stats["commits"] == 16
    assert stats["wal_fsyncs"] - before < 16
