"""Shared fixtures for the network front-end suites."""

import contextlib
import time

import pytest

from repro.faults import faults
from repro.netserve import NetClient, serve_in_thread
from repro.serving import DatabaseServer
from repro.wal import WriteAheadLog

from tests.wal.conftest import append_script, editors_database  # noqa: F401


@pytest.fixture(autouse=True)
def clean_injector():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def wal_dir(tmp_path):
    return str(tmp_path / "db.wal")


@contextlib.contextmanager
def served(wal_dir, *, database=None, server_options=None, **net_options):
    """A live network stack over ``database`` (default: a fresh editors
    database): yields ``(handle, server)`` with the listener accepting
    and the WAL checkpointed; everything is torn down on exit."""
    db = editors_database() if database is None else database
    wal = WriteAheadLog(wal_dir, fsync="always")
    db.attach_wal(wal)
    wal.checkpoint(db)
    server = DatabaseServer(db, **(server_options or {}))
    handle = serve_in_thread(server, **net_options)
    try:
        yield handle, server
    finally:
        handle.stop()
        wal.close()


def connect(handle, user=None, timeout=10.0):
    """A blocking client on the handle's port, optionally logged in."""
    client = NetClient(handle.host, handle.port, timeout=timeout)
    if user is not None:
        client.open_session(user)
    return client


def until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds; True once it does, False when
    ``timeout`` seconds pass first (for server-side effects that trail
    the reply a client already read)."""
    give_up = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= give_up:
            return False
        time.sleep(0.001)
    return True


def all_hung_up(handle):
    """Wait until the server has closed every connection it accepted
    (a client's ``close`` reaches the server asynchronously)."""
    def settled():
        stats = handle.net.stats()
        return stats["connections_closed"] == stats["connections_opened"]
    return until(settled)
