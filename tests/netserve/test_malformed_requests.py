"""Malformed and non-Unicode requests fail alone: the write circuit
breaker counts server faults, never a client's bad input.

Any logged-in subject -- here ``patient00003``, who may write nothing
-- can send scripts.  One that does not parse, or a frame whose JSON
spells a lone surrogate (which ``json.loads`` accepts but no UTF-8
encoder, the write-ahead log's included, can carry), must not bring
the breaker any closer to opening for laporte's next valid write.
"""

import json
import socket

import pytest

from repro.errors import RemoteError
from repro.netserve import encode_frame
from repro.netserve.framing import HEADER, FrameDecoder
from repro.serving import CircuitBreaker

from tests.hospital import bench_hospital, update_script, xupdate_script

from .conftest import connect, served

pytestmark = pytest.mark.netserve

#: More bad requests than it takes to open the breaker.
ATTEMPTS = CircuitBreaker().failure_threshold + 1

#: A script that does not parse -> the error kind relayed for it.
MALFORMED = {
    xupdate_script('<xupdate:update select="/patients">unclosed'):
        "XMLSyntaxError",
    xupdate_script('<xupdate:frobnicate select="/patients"/>'):
        "XUpdateParseError",
}


def hospital_stack(wal_dir):
    # A long reset timeout: an opened circuit stays open for the test.
    return served(
        wal_dir,
        database=bench_hospital(8),
        server_options={"breaker": CircuitBreaker(reset_timeout=60.0)},
    )


def assert_laporte_still_writes(handle, server):
    assert server.breaker.state == "closed"
    with connect(handle, "laporte") as client:
        summary = client.execute(update_script("patient00001", "dxafter"))
    assert summary["affected"] == 1


@pytest.mark.parametrize(
    "script, kind", MALFORMED.items(), ids=["xml-syntax", "unknown-instruction"]
)
def test_malformed_scripts_fail_alone(wal_dir, script, kind):
    with hospital_stack(wal_dir) as (handle, server):
        with connect(handle, "patient00003") as client:
            for _ in range(ATTEMPTS):
                with pytest.raises(RemoteError) as info:
                    client.execute(script)
                assert info.value.kind == kind
        assert server.stats()["commits"] == 0
        assert_laporte_still_writes(handle, server)


def raw_frame(payload) -> bytes:
    """``payload`` as a frame whose JSON escapes every non-ASCII code
    point -- so a lone surrogate reaches the wire as ``\\ud800``, which
    :func:`encode_frame` would refuse to produce."""
    body = json.dumps(payload).encode("ascii")
    return HEADER.pack(len(body)) + body


def read_frame(sock, decoder):
    while True:
        data = sock.recv(4096)
        assert data, "the server hung up without a reply"
        frames = decoder.feed(data)
        if frames:
            return frames[0]


@pytest.mark.parametrize("field", ["script", "idempotency_key"])
def test_a_lone_surrogate_is_a_protocol_error(wal_dir, field):
    request = {
        "id": 2,
        "op": "execute",
        "script": update_script("patient00003", "dx"),
        "idempotency_key": "key",
    }
    # A well-formed script / a usable key but for the surrogate.
    request[field] = {
        "script": update_script("patient00003", "dx\ud800"),
        "idempotency_key": "key\ud800",
    }[field]
    with hospital_stack(wal_dir) as (handle, server):
        for _ in range(ATTEMPTS):
            raw = socket.create_connection((handle.host, handle.port), 10.0)
            try:
                decoder = FrameDecoder()
                raw.sendall(
                    encode_frame(
                        {"id": 1, "op": "open_session", "user": "patient00003"}
                    )
                )
                assert read_frame(raw, decoder)["ok"] is True
                raw.sendall(raw_frame(request))
                reply = read_frame(raw, decoder)
                assert reply["ok"] is False
                assert reply["error"]["kind"] == "ProtocolError"
                assert raw.recv(4096) == b""  # and the server hung up
            finally:
                raw.close()
        stats = server.stats()
        assert stats["commits"] == 0 and stats["wal_errors"] == 0
        assert_laporte_still_writes(handle, server)
