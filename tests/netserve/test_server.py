"""End-to-end protocol behavior of the asyncio front-end: sessions,
typed results, error relay, deadlines, pipelining and the protocol's
close-on-violation rule."""

import contextlib
import socket
import threading

import pytest

from repro.errors import NetworkError, RemoteError
from repro.netserve import NetClient, encode_frame
from repro.netserve.framing import HEADER
from repro.netserve.protocol import request, unwrap_response

from tests.groups import execute_burst

from .conftest import append_script, connect, served

pytestmark = pytest.mark.netserve


class TestSessions:
    def test_open_session_then_read_and_write(self, wal_dir):
        with served(wal_dir) as (handle, server):
            with connect(handle) as client:
                opened = client.open_session("w1")
                assert opened["user"] == "w1"
                assert opened["protocol"] == 1
                assert client.read_xml() == "<log><entry>seed</entry></log>"
                summary = client.execute(append_script("net0"))
                assert summary["fully_applied"] is True
                assert summary["version"] == 1
                assert "<net0>" in client.read_xml()

    def test_request_before_open_session_is_a_protocol_error(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle) as client:
                with pytest.raises(RemoteError) as info:
                    client.read_xml()
                assert info.value.kind == "ProtocolError"

    def test_unknown_user_relays_the_server_error(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle) as client:
                with pytest.raises(RemoteError) as info:
                    client.open_session("nobody")
                assert "nobody" in info.value.remote_message

    def test_two_connections_are_independent_sessions(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as one, connect(handle, "w2") as two:
                one.execute(append_script("fromw1"))
                assert "<fromw1>" in two.read_xml()


class TestTypedResults:
    def test_query_number_string_boolean_nodeset(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                assert client.query("count(/log/*)") == {
                    "type": "number", "value": 1.0,
                }
                assert client.query("string(/log/entry)") == {
                    "type": "string", "value": "seed",
                }
                assert client.query("count(/log) > 0") == {
                    "type": "boolean", "value": True,
                }
                nodes = client.query("/log/entry")
                assert nodes == {
                    "type": "node-set", "nodes": ["<entry>seed</entry>"],
                }

    def test_select_returns_serialized_nodes(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                assert client.select("/log/entry") == ["<entry>seed</entry>"]

    def test_stats_carries_serving_and_net_counters(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                client.read_xml()
                stats = client.stats()
                assert stats["reads"] >= 1
                assert stats["net_connections_opened"] >= 1
                assert stats["net_frames_in"] >= 2

    def test_execute_error_kinds_relay_by_class_name(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                with pytest.raises(RemoteError) as info:
                    client.execute("<not-xupdate/>")
                assert info.value.kind == "XUpdateParseError"


class TestProtocolViolations:
    def test_oversized_frame_gets_error_frame_then_close_not_a_hang(
        self, wal_dir
    ):
        """A peer that announces a frame beyond the maximum receives a
        final FrameTooLarge error frame and a closed connection --
        never a silent hang."""
        with served(wal_dir, max_frame=1024) as (handle, _):
            raw = socket.create_connection(
                (handle.host, handle.port), timeout=5
            )
            try:
                raw.sendall(HEADER.pack(1 << 20))  # announce 1MB
                from repro.netserve import FrameDecoder

                decoder = FrameDecoder()
                frames = []
                while not frames:
                    data = raw.recv(4096)
                    assert data, "server closed without an error frame"
                    frames = decoder.feed(data)
                assert frames[0]["ok"] is False
                assert frames[0]["error"]["kind"] == "FrameTooLarge"
                # ...and the connection is closed, not hung:
                assert raw.recv(4096) == b""
            finally:
                raw.close()

    def test_client_refuses_to_send_an_oversized_frame(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with NetClient(
                handle.host, handle.port, timeout=5, max_frame=256
            ) as client:
                client.open_session("w1")
                from repro.errors import FrameTooLarge

                with pytest.raises(FrameTooLarge):
                    client.execute(append_script("x" * 400))

    def test_garbage_json_closes_the_connection_with_an_error(self, wal_dir):
        with served(wal_dir) as (handle, _):
            raw = socket.create_connection(
                (handle.host, handle.port), timeout=5
            )
            try:
                raw.sendall(HEADER.pack(5) + b"{{{{{")
                from repro.netserve import FrameDecoder

                decoder = FrameDecoder()
                frames = []
                while not frames:
                    data = raw.recv(4096)
                    assert data, "server closed without an error frame"
                    frames = decoder.feed(data)
                assert frames[0]["error"]["kind"] == "ProtocolError"
                assert raw.recv(4096) == b""
            finally:
                raw.close()

    def test_unknown_op_and_bad_fields_relay_protocol_errors(self, wal_dir):
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                for frame in (
                    {"op": "drop_tables"},
                    {"op": "query"},  # missing path
                    {"op": "query", "path": ""},
                    {"op": "read_xml", "indent": 4},
                    {"op": "query", "path": "/log", "deadline_ms": -5},
                ):
                    with pytest.raises((RemoteError, NetworkError)) as info:
                        client._call(frame.pop("op"), **frame)
                    if isinstance(info.value, RemoteError):
                        assert info.value.kind == "ProtocolError"
                # ProtocolError closes the connection; later use fails
                # as a network error, never a hang.


class TestDeadlinesAndClose:
    def test_deadline_ms_propagates_into_the_serving_layer(self, wal_dir):
        with served(wal_dir) as (handle, server):
            with connect(handle, "w1") as client:
                # An impossible budget: the deadline machinery (not the
                # socket) must refuse the request.
                with pytest.raises(RemoteError) as info:
                    client.query("count(//*)", deadline_ms=0.0001)
                assert info.value.kind == "DeadlineExceeded"
                assert server.stats()["deadline_exceeded"] >= 1

    def test_close_op_is_acknowledged_then_connection_ends(self, wal_dir):
        with served(wal_dir) as (handle, _):
            client = connect(handle, "w1")
            result = client._call("close")
            assert result == {"closed": True}
            client.close()

    def test_server_shutdown_hangs_up_live_connections(self, wal_dir):
        with served(wal_dir) as (handle, _):
            client = connect(handle, "w1")
        # handle.stop() ran: the socket is dead, and the client reports
        # it as a network error rather than blocking forever.
        with pytest.raises(NetworkError):
            client.read_xml()


@contextlib.contextmanager
def loop_held(handle):
    """Hold the server's event loop while the body runs: frames sent
    meanwhile wait in the kernel, and the loop decodes them all from
    one poll once released."""
    held, release = threading.Event(), threading.Event()

    def hold():
        held.set()
        release.wait(30)

    handle._loop.call_soon_threadsafe(hold)
    assert held.wait(30)
    try:
        yield
    finally:
        release.set()


class TestConcurrentClients:
    def test_many_threaded_writers_one_connection_each(self, wal_dir):
        """Twelve connections, one writer thread each, all sending
        while the event loop is held: the loop decodes the twelve frames
        from one poll, counts them as coming, and they ride one
        group."""
        with served(wal_dir) as (handle, server):
            clients = [connect(handle, "w1", timeout=30) for _ in range(12)]
            sent = [threading.Event() for _ in clients]
            replies = [None] * len(clients)

            def writer(i):
                client = clients[i]
                client._next_id += 1
                client._sock.sendall(encode_frame(request(
                    client._next_id, "execute", script=append_script(f"c{i}")
                )))
                sent[i].set()
                replies[i] = unwrap_response(client._receive(client._next_id))

            threads = [
                threading.Thread(target=writer, args=(i,))
                for i in range(len(clients))
            ]
            with loop_held(handle):
                for t in threads:
                    t.start()
                for event in sent:
                    assert event.wait(30)
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            for client in clients:
                client.close()
            assert all(reply["fully_applied"] for reply in replies)
            stats = server.stats()
            assert stats["commits"] == 12
            assert stats["grouped_records"] == 12
            # The whole point: one group fsync for twelve commits.
            assert stats["group_commits"] == 1
            assert stats["group_fsyncs_saved"] == 11

    @pytest.mark.parametrize("k", [2, 5, 16])
    def test_a_burst_in_one_sendall_is_one_group(self, wal_dir, k):
        """k ``execute`` frames in one ``sendall``: the frame loop
        counts all k as coming before the first joins, so the leader
        waits for the rest and the burst is one group."""
        with served(wal_dir) as (handle, server):
            before = server.stats()
            replies = execute_burst(
                handle.host, handle.port, "w1",
                [append_script(f"b{i}") for i in range(k)],
            )
            after = server.stats()
        assert [reply["version"] for reply in replies] == list(
            range(1, k + 1)
        )
        assert after["group_commits"] - before["group_commits"] == 1
        assert after["grouped_records"] - before["grouped_records"] == k

    def test_pipelined_requests_on_one_connection(self, wal_dir):
        """Several requests written before any response is read; every
        response arrives, matched by id."""
        with served(wal_dir) as (handle, _):
            with connect(handle, "w1") as client:
                sock = client._sock
                first = client._next_id + 1
                for offset in range(4):
                    sock.sendall(
                        encode_frame(
                            {"id": first + offset, "op": "query",
                             "path": "count(/log/*)"}
                        )
                    )
                client._next_id += 4
                seen = {}
                for offset in range(4):
                    frame = client._receive(first + offset)
                    seen[frame["id"]] = frame["result"]
                assert set(seen) == {first + i for i in range(4)}
                assert all(
                    r == {"type": "number", "value": 1.0}
                    for r in seen.values()
                )
