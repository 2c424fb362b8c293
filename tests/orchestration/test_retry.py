"""Transient-fault handling: retry/backoff policy and tiered degradation.

The policy layer is tested with injected sleep/rng (no real waiting);
the HTTP layer against a stub server scripted to fail N times; the
tiered layer against a remote that is simply down.  The seeded
:class:`fault_injection.FlakyBackend` closes the loop: a 30%-flaky
store behind a retry budget must look indistinguishable from a
healthy one.
"""

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.orchestration import (
    DirBackend,
    RemoteHTTPBackend,
    RetryPolicy,
    StoreUnavailable,
    TieredBackend,
    retry_call,
    sync_stores,
)
from fault_injection import FlakyBackend


# -- policy -------------------------------------------------------------------


def test_retry_policy_delays_grow_and_cap():
    policy = RetryPolicy(
        attempts=6, base_delay_s=0.1, max_delay_s=1.0, jitter=0.0
    )
    rng = random.Random(0)
    delays = [policy.delay_s(n, rng) for n in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.8, 1.0]  # doubled, then capped


def test_retry_policy_jitter_shrinks_within_bounds():
    policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0, jitter=0.5)
    rng = random.Random(7)
    for _ in range(100):
        delay = policy.delay_s(1, rng)
        assert 0.5 <= delay <= 1.0  # shrunk by at most `jitter` of itself
    # Seeded rng means a replayed chaos schedule backs off identically.
    assert RetryPolicy().delay_s(2, random.Random(3)) == RetryPolicy().delay_s(
        2, random.Random(3)
    )


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


def test_retry_call_recovers_and_reports():
    state = {"calls": 0}
    slept, retried = [], []

    def flaky_twice():
        state["calls"] += 1
        if state["calls"] <= 2:
            raise StoreUnavailable("transient")
        return "payload"

    result = retry_call(
        flaky_twice,
        RetryPolicy(attempts=5, base_delay_s=0.1, jitter=0.0),
        sleep=slept.append,
        on_retry=lambda failures, exc: retried.append(failures),
    )
    assert result == "payload"
    assert state["calls"] == 3
    assert slept == [0.1, 0.2]
    assert retried == [1, 2]


def test_retry_call_exhausts_budget():
    state = {"calls": 0}

    def always_down():
        state["calls"] += 1
        raise StoreUnavailable("still down")

    with pytest.raises(StoreUnavailable):
        retry_call(
            always_down,
            RetryPolicy(attempts=3, base_delay_s=0.0),
            sleep=lambda _s: None,
        )
    assert state["calls"] == 3  # attempts is the total-call budget


def test_retry_call_non_transient_raises_immediately():
    state = {"calls": 0}

    def broken():
        state["calls"] += 1
        raise ValueError("a bug, not an outage")

    with pytest.raises(ValueError):
        retry_call(broken, RetryPolicy(attempts=5), sleep=lambda _s: None)
    assert state["calls"] == 1


# -- HTTP layer ---------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Returns 503 for the first ``server.fail_first`` requests, then 200."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *_args):  # noqa: A002
        pass

    def _respond(self):
        self.server.requests += 1
        if self.server.requests <= self.server.fail_first:
            body = b'{"error": "overloaded"}'
            self.send_response(503)
        else:
            body = json.dumps({"ok": True}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_HEAD = do_PUT = do_DELETE = _respond


@pytest.fixture()
def scripted_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    httpd.requests = 0
    httpd.fail_first = 0
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


def _client(httpd, attempts):
    return RemoteHTTPBackend(
        f"http://127.0.0.1:{httpd.server_address[1]}",
        retry=RetryPolicy(attempts=attempts, base_delay_s=0.0, jitter=0.0),
        sleep=lambda _s: None,
    )


def test_remote_backend_retries_5xx_then_succeeds(scripted_server):
    scripted_server.fail_first = 2
    backend = _client(scripted_server, attempts=5)
    assert backend.ping() == {"ok": True}
    assert scripted_server.requests == 3  # two 503s absorbed, then 200
    assert backend.transient_failures == 2


def test_remote_backend_gives_up_after_budget(scripted_server):
    scripted_server.fail_first = 10 ** 6
    backend = _client(scripted_server, attempts=3)
    with pytest.raises(StoreUnavailable) as info:
        backend.get_text("gp", "k")
    assert scripted_server.requests == 3
    assert "HTTP 503" in str(info.value)


def test_remote_backend_unreachable_connection_retries_then_raises():
    backend = RemoteHTTPBackend(
        "http://127.0.0.1:9",  # discard port: nothing listens
        timeout_s=0.2,
        retry=RetryPolicy(attempts=3, base_delay_s=0.0, jitter=0.0),
        sleep=lambda _s: None,
    )
    with pytest.raises(StoreUnavailable):
        backend.get_text("gp", "k")
    assert backend.transient_failures == 3


# -- tiered degradation -------------------------------------------------------


class _DownBackend(FlakyBackend):
    """A remote that is simply gone (100% failure, no inner calls)."""

    def __init__(self):
        super().__init__(inner=None, failure_rate=1.0, seed=0)

    def describe(self):
        return "http://down.example:1"

    def close(self):
        pass


def test_tiered_degrades_to_local_only(tmp_path):
    local = DirBackend(str(tmp_path / "local"))
    remote = _DownBackend()
    tiered = TieredBackend(local, remote)

    with pytest.warns(RuntimeWarning, match="degrading to local-only"):
        tiered.put_text("gp", "k1", '{"v": 1}')
    # The write landed locally despite the outage...
    assert local.get_text("gp", "k1") == '{"v": 1}'
    assert tiered.get_text("gp", "k1") == '{"v": 1}'
    # ...reads/misses fall back instead of raising...
    assert tiered.get_text("gp", "absent") is None
    assert tiered.has("gp", "k1") is True
    assert tiered.has("gp", "absent") is False
    assert [e.key for e in tiered.entries()] == ["k1"]
    # ...and every skipped remote op is counted, warned only once.
    assert tiered.degraded_writes == 1
    assert tiered.degraded_reads >= 2
    assert tiered.degraded_ops == tiered.degraded_reads + tiered.degraded_writes


def test_tiered_strict_mode_still_fails_fast(tmp_path):
    tiered = TieredBackend(
        DirBackend(str(tmp_path / "local")), _DownBackend(), degrade=False
    )
    with pytest.raises(StoreUnavailable):
        tiered.put_text("gp", "k1", '{"v": 1}')


def test_degraded_writes_resync_with_sync_stores(tmp_path):
    local = DirBackend(str(tmp_path / "local"))
    tiered = TieredBackend(local, _DownBackend())
    with pytest.warns(RuntimeWarning):
        for i in range(3):
            tiered.put_text("gp", f"k{i}", f'{{"v": {i}}}')
    assert tiered.degraded_writes == 3

    # The remote comes back (as a fresh healthy store): one sync pass
    # re-converges the fleet cache from the local survivor.
    recovered = DirBackend(str(tmp_path / "recovered"))
    stats = sync_stores(local, recovered)
    assert stats.copied == 3
    assert recovered.get_text("gp", "k2") == '{"v": 2}'


def test_flaky_backend_is_deterministic_and_absorbable(tmp_path):
    # Same seed -> same injected-fault schedule.
    schedule = []
    for _run in range(2):
        flaky = FlakyBackend(
            DirBackend(str(tmp_path / f"s{_run}")), failure_rate=0.3, seed=42
        )
        outcomes = []
        for i in range(30):
            try:
                flaky.put_text("gp", f"k{i}", "{}")
                outcomes.append("ok")
            except StoreUnavailable:
                outcomes.append("fail")
        schedule.append(outcomes)
    assert schedule[0] == schedule[1]
    assert "fail" in schedule[0]  # the chaos actually happened

    # Behind a retry budget the flakiness is invisible to the caller.
    flaky = FlakyBackend(
        DirBackend(str(tmp_path / "absorbed")), failure_rate=0.3, seed=7
    )
    for i in range(20):
        retry_call(
            lambda i=i: flaky.put_text("gp", f"k{i}", f'{{"v": {i}}}'),
            RetryPolicy(attempts=20, base_delay_s=0.0),
            sleep=lambda _s: None,
        )
    assert len(flaky.inner.entries()) == 20
    assert flaky.injected > 0


def test_tiered_degradation_counters_are_thread_safe(tmp_path):
    """Concurrent misses against a down remote never drop a count.

    Regression for the RPR003 lock-discipline finding: the degradation
    counters were bare ``+=`` even though the store contract promises
    thread-safety (repro serve fronts one backend with a threading HTTP
    server), so parallel readers could lose increments.  Hammering the
    counters from many threads must account for every skipped remote op
    exactly once.
    """
    tiered = TieredBackend(DirBackend(str(tmp_path / "local")), _DownBackend())
    with pytest.warns(RuntimeWarning):  # absorb the one-time warning first
        tiered.get_text("gp", "prime")
    threads_n, reads_per_thread = 8, 50
    start = threading.Barrier(threads_n)

    def hammer():
        start.wait()
        for i in range(reads_per_thread):
            tiered.get_text("gp", f"missing-{i}")

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert tiered.degraded_reads == threads_n * reads_per_thread + 1
    assert tiered.degraded_ops == tiered.degraded_reads
