"""The batched multi-key artifact protocol.

``POST /v1/artifacts/get`` / ``.../head`` answer N keys in one round
trip; :class:`RemoteHTTPBackend` chunks multi-key reads through them
(``requests == ceil(N / batch_size)``).
"""

import json
import math

import pytest

from repro.orchestration import (
    ArtifactStore,
    DirBackend,
    JobService,
    RemoteHTTPBackend,
    StoreError,
    TieredBackend,
)

KIND = "gp"
N = 10


def _warm(backend, n=N):
    """Seed ``n`` artifacts; returns their (kind, key) pairs."""
    pairs = []
    for i in range(n):
        key = f"abc{i:03d}"
        backend.put_text(KIND, key, json.dumps({"i": i}, sort_keys=True))
        pairs.append((KIND, key))
    return pairs


@pytest.fixture()
def batch_server(tmp_path):
    backend = DirBackend(str(tmp_path / "served"))
    server = JobService(backend, workers=0).start()
    yield server
    server.stop()


def test_batched_reads_cost_ceil_n_over_batch(batch_server):
    pairs = _warm(batch_server.backend)
    client = RemoteHTTPBackend(batch_server.url, batch_size=4)

    values = client.get_many(pairs)
    assert client.requests == math.ceil(N / 4)  # 3, not 10
    assert values == {
        pair: json.dumps({"i": i}, sort_keys=True)
        for i, pair in enumerate(pairs)
    }

    present = client.has_many(pairs + [(KIND, "missing0")])
    assert client.requests == math.ceil(N / 4) + math.ceil((N + 1) / 4)
    assert present[(KIND, "missing0")] is False
    assert all(present[pair] for pair in pairs)


def test_misses_are_none_not_errors(batch_server):
    client = RemoteHTTPBackend(batch_server.url, batch_size=8)
    values = client.get_many([(KIND, "nope1"), (KIND, "nope2")])
    assert values == {(KIND, "nope1"): None, (KIND, "nope2"): None}
    assert client.requests == 1


def test_batch_item_validation(batch_server):
    # Malformed batch bodies are 400s, which the shipped client never
    # sends — but raw callers get a real error, not a silent [].
    import urllib.error
    import urllib.request

    for body in (b"[]", b'{"items": [{"kind": "gp"}]}',
                 b'{"items": [{"kind": "../x", "key": "y"}]}'):
        request = urllib.request.Request(
            f"{batch_server.url}/v1/artifacts/head",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


def test_oversized_batch_rejected_client_side(batch_server):
    client = RemoteHTTPBackend(batch_server.url, batch_size=4)
    with pytest.raises(ValueError):
        RemoteHTTPBackend(batch_server.url, batch_size=0)
    assert client.get_many([]) == {}
    assert client.requests == 0  # empty reads never hit the network


def test_tiered_backend_batches_remote_misses(batch_server, tmp_path):
    pairs = _warm(batch_server.backend)
    local = DirBackend(str(tmp_path / "local"))
    remote = RemoteHTTPBackend(batch_server.url, batch_size=4)
    tiered = TieredBackend(local, remote)

    values = tiered.get_many(pairs)
    assert all(values[pair] is not None for pair in pairs)
    assert remote.requests == math.ceil(N / 4)
    # Remote hits were written back: a second pass is local-only.
    before = remote.requests
    again = tiered.get_many(pairs)
    assert again == values
    assert remote.requests == before


def test_store_prefetch_uses_batches(batch_server):
    pairs = _warm(batch_server.backend)
    remote = RemoteHTTPBackend(batch_server.url, batch_size=4)
    store = ArtifactStore(backend=remote)
    warmed = store.prefetch(pairs + [(KIND, "missing9")])
    assert warmed[(KIND, "missing9")] is None
    assert all(warmed[pair] == {"i": i} for i, pair in enumerate(pairs))
    assert remote.requests == math.ceil((N + 1) / 4)
    # Prefetched payloads are memory hits afterwards.
    before = remote.requests
    for i, (kind, key) in enumerate(pairs):
        assert store.get(kind, key) == {"i": i}
    assert remote.requests == before


def test_batch_size_mismatch_is_a_protocol_error(batch_server):
    client = RemoteHTTPBackend(batch_server.url, batch_size=4)

    real_request = client._request

    def lying_request(url, method="GET", body=None):
        status, payload = real_request(url, method=method, body=body)
        if "/v1/artifacts/" in url and status == 200:
            document = json.loads(payload.decode("utf-8"))
            document["items"] = document["items"][:-1]  # drop one
            # repro: lint-ignore[RPR002] transport tampering for the test
            payload = json.dumps(document).encode("utf-8")
        return status, payload

    client._request = lying_request
    with pytest.raises(StoreError):
        client.get_many([(KIND, "k1"), (KIND, "k2")])
