"""Shared fixtures for the network front-end suites."""

import contextlib

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


def connect(handle, user=None, timeout=10.0):
    """A blocking client on the handle's port, optionally logged in."""
    client = NetClient(handle.host, handle.port, timeout=timeout)
    if user is not None:
        client.open_session(user)
    return client
