"""The artifact and fleet routes of ``repro serve`` against a live server.

Every test runs a real ThreadingHTTPServer on an ephemeral port and
talks to it over actual sockets — both through the RemoteHTTPBackend
client and through raw urllib requests that exercise the protocol's
error paths (bad paths, traversal attempts, invalid JSON bodies).
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.orchestration import (
    DirBackend,
    JobService,
    RemoteHTTPBackend,
    SqliteBackend,
)


@pytest.fixture(params=["dir", "sqlite"])
def server(request, tmp_path):
    if request.param == "dir":
        backend = DirBackend(str(tmp_path / "served"))
    else:
        backend = SqliteBackend(str(tmp_path / "served.db"))
    with JobService(backend, workers=0) as running:
        yield running
    backend.close()


@pytest.fixture
def client(server):
    return RemoteHTTPBackend(server.url, timeout_s=10.0)


def _raw(url, method="GET", body=None, headers=None):
    request = urllib.request.Request(
        url, data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_ping_reports_store(server, client):
    ping = client.ping()
    assert ping["ok"] is True
    assert ping["store"] == server.backend.describe()


def test_artifact_roundtrip_over_http(server, client):
    text = json.dumps({"x": 0.1 + 0.2, "nested": [1, 2]})
    client.put_text("gp", "abc123", text)
    assert client.get_text("gp", "abc123") == text  # byte-preserved
    assert client.has("gp", "abc123")
    assert server.backend.get_text("gp", "abc123") == text


def test_missing_artifact_is_404_not_error(client):
    assert client.get_text("gp", "missing") is None
    assert not client.has("gp", "missing")
    assert not client.delete("gp", "missing")


def test_list_and_stats_endpoints(server, client):
    client.put_text("gp", "a", '{"x": 1}')
    client.put_text("lg", "b", '{"y": 23}')
    entries = {(e.kind, e.key): e.size for e in client.entries()}
    assert entries == {("gp", "a"): 8, ("lg", "b"): 9}
    status, body = _raw(f"{server.url}/v1/stats")
    assert status == 200
    stats = json.loads(body)
    assert stats == {"entries": 2, "bytes": 17}


def test_delete_over_http(server, client):
    client.put_text("gp", "doomed", '{"x": 1}')
    assert client.delete("gp", "doomed")
    assert not server.backend.has("gp", "doomed")


def test_unknown_paths_rejected(server):
    for path in ("/v1/artifact/onlykind", "/v2/artifact/a/b", "/etc/passwd"):
        status, _ = _raw(f"{server.url}{path}")
        assert status == 400, path


def test_traversal_segments_rejected(server):
    # kind/key are path tokens on a DirBackend server: separators and
    # dotfile prefixes must never reach the filesystem join.
    for kind, key in ((".." , "x"), ("a%2F..%2Fb", "x"), ("gp", ".hidden")):
        status, _ = _raw(f"{server.url}/v1/artifact/{kind}/{key}")
        assert status == 400, (kind, key)


def test_put_rejects_negative_content_length(server):
    # read(-1) would block the handler thread until the client hangs
    # up; the server must refuse the header instead.
    status, body = _raw(
        f"{server.url}/v1/artifact/gp/key",
        method="PUT",
        body=b"",
        headers={"Content-Length": "-1"},
    )
    assert status == 400
    assert b"negative Content-Length" in body


def test_put_rejects_non_json_bodies(server, client):
    status, body = _raw(
        f"{server.url}/v1/artifact/gp/key",
        method="PUT",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    assert status == 400
    assert b"not valid JSON" in body
    assert not client.has("gp", "key")


def test_concurrent_clients_share_one_store(server):
    # The threading server handles interleaved clients; last-write-wins
    # on the same key and both clients observe each other's artifacts.
    one = RemoteHTTPBackend(server.url)
    two = RemoteHTTPBackend(server.url)
    one.put_text("gp", "shared", '{"from": 1}')
    assert two.get_text("gp", "shared") == '{"from": 1}'
    two.put_text("gp", "shared", '{"from": 2}')
    assert one.get_text("gp", "shared") == '{"from": 2}'


def test_ephemeral_port_allocation(tmp_path):
    first = JobService(DirBackend(str(tmp_path / "a")), workers=0)
    second = JobService(DirBackend(str(tmp_path / "b")), workers=0)
    try:
        assert first.port != 0 and second.port != 0
        assert first.port != second.port
        assert first.url.endswith(str(first.port))
    finally:
        first.stop()
        second.stop()


def test_put_rejects_oversized_body(tmp_path):
    # A configurable ceiling so one absurd upload can't make a handler
    # thread buffer gigabytes; the refusal is a clean 413, not a hang.
    backend = DirBackend(str(tmp_path / "small"))
    with JobService(backend, workers=0, max_body_bytes=64) as server:
        huge = b'{"pad": "' + b"x" * 200 + b'"}'
        status, body = _raw(
            f"{server.url}/v1/artifact/gp/key", method="PUT", body=huge
        )
        assert status == 413
        assert b"exceeds the server limit" in body
        assert not backend.has("gp", "key")
        # A body under the ceiling still lands.
        status, _ = _raw(
            f"{server.url}/v1/artifact/gp/key", method="PUT", body=b'{"x": 1}'
        )
        assert status == 204
        assert backend.get_text("gp", "key") == '{"x": 1}'
    backend.close()


def test_stalled_connection_is_dropped_not_wedged(tmp_path):
    # A client that connects and never sends a request must not pin a
    # handler thread forever: the per-connection timeout closes it.
    import socket
    import time

    backend = DirBackend(str(tmp_path / "served"))
    with JobService(backend, workers=0, socket_timeout_s=0.3) as server:
        stalled = socket.create_connection((server.host, server.port))
        stalled.settimeout(5.0)
        deadline = time.monotonic() + 5.0
        try:
            assert stalled.recv(1) == b""  # server hung up on us
            assert time.monotonic() < deadline
        finally:
            stalled.close()
        # The server is still healthy for well-behaved clients.
        healthy = RemoteHTTPBackend(server.url)
        healthy.put_text("gp", "k", '{"x": 1}')
        assert healthy.get_text("gp", "k") == '{"x": 1}'
        healthy.close()
    backend.close()


def _post(url, document):
    body = json.dumps(document).encode("utf-8")
    return _raw(url, method="POST", body=body,
                headers={"Content-Type": "application/json"})


def test_ping_reports_fleet_flag(server, client):
    # Every server carries the fleet routes.
    assert client.ping()["fleet"] is True
    status, body = _raw(f"{server.url}/v1/fleet/status")
    assert status == 200
    assert json.loads(body)["counts"]["total"] == 0


def test_fleet_protocol_over_http(tmp_path):
    backend = DirBackend(str(tmp_path / "served"))
    with JobService(
        backend, workers=0, lease_ttl_s=60.0, max_attempts=3
    ) as server:
        client = RemoteHTTPBackend(server.url)
        assert client.ping()["fleet"] is True

        job = {"kind": "gp", "key": "k0", "params": {}, "deps": [],
               "dep_kinds": []}
        status, body = _post(f"{server.url}/v1/fleet/enqueue", {"jobs": [job]})
        assert status == 200
        assert json.loads(body)["accepted"] == 1

        status, body = _post(
            f"{server.url}/v1/fleet/lease", {"worker": "w", "max_jobs": 2}
        )
        assert status == 200
        leased = json.loads(body)["jobs"]
        assert [j["key"] for j in leased] == ["k0"]

        status, body = _post(f"{server.url}/v1/fleet/heartbeat", {"worker": "w"})
        assert status == 200
        assert json.loads(body)["keys"] == ["k0"]

        status, body = _post(
            f"{server.url}/v1/fleet/complete",
            {"worker": "w", "key": "k0", "status": "computed"},
        )
        assert status == 200

        status, body = _raw(f"{server.url}/v1/fleet/status")
        assert status == 200
        counts = json.loads(body)["counts"]
        assert counts["done"] == 1
        assert json.loads(body)["outstanding"] == 0
        client.close()
    backend.close()


def test_invalid_fleet_requests_are_400(tmp_path):
    backend = DirBackend(str(tmp_path / "served"))
    with JobService(backend, workers=0) as server:
        # Missing required field.
        status, body = _post(f"{server.url}/v1/fleet/lease", {})
        assert status == 400
        assert b"invalid fleet request" in body
        # Body that is not a JSON object at all.
        status, body = _raw(
            f"{server.url}/v1/fleet/lease", method="POST", body=b"[1, 2]"
        )
        assert status == 400
        assert b"not a JSON object" in body
        # Semantically invalid verb arguments surface as 400, not 500.
        status, body = _post(
            f"{server.url}/v1/fleet/complete",
            {"worker": "w", "key": "ghost", "status": "computed"},
        )
        assert status == 400
        assert b"invalid fleet request" in body
        # A batch with one bad row is refused whole: its valid row is
        # not left registered behind the 400.
        job = {"kind": "gp", "key": "k0", "params": {}, "deps": [],
               "dep_kinds": []}
        status, body = _post(
            f"{server.url}/v1/fleet/enqueue", {"jobs": [job, 1]}
        )
        assert status == 400
        assert b"invalid fleet request" in body
        status, body = _raw(f"{server.url}/v1/fleet/status")
        assert json.loads(body)["counts"]["total"] == 0
    backend.close()
