"""Acceptance: every storage backend yields the same sweep, bit for bit.

The PR 2 parity discipline extended to storage: one ``SweepSpec`` run
against the directory backend, the SQLite backend and a live HTTP cache
server (tiered over an *empty* local layer, so every warm read provably
crossed the network) must produce

* **bit-identical** ``results.jsonl`` bytes, and
* a ``--resume`` rerun with **zero recomputed jobs** against each
  backend — including a resume from a store populated only by
  ``repro cache push``.
"""

import pytest

from repro.core.config import QGDPConfig
from repro.evaluation import EvaluationConfig, sweep_spec
from repro.orchestration import (
    ArtifactStore,
    DirBackend,
    JobService,
    RemoteHTTPBackend,
    RunSink,
    TieredStore,
    run_sweep,
    sync_stores,
)

TOPOLOGIES = ["grid"]
BENCHMARKS = ["bv-4"]
ENGINES = ["qgdp"]


@pytest.fixture(scope="module")
def spec():
    eval_config = EvaluationConfig(
        num_seeds=2, config=QGDPConfig(gp_iterations=60)
    )
    return sweep_spec(TOPOLOGIES, BENCHMARKS, ENGINES, eval_config)


@pytest.fixture(scope="module")
def storage_root(tmp_path_factory):
    return tmp_path_factory.mktemp("backend_parity")


def _results_bytes(result, directory) -> bytes:
    sink = RunSink(str(directory))
    path = sink.write_results(result.rows)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def dir_result(spec, storage_root):
    """The reference run: the historical directory backend."""
    result = run_sweep(spec, cache_dir=str(storage_root / "dir_cache"))
    return result, _results_bytes(result, storage_root / "dir_out")


def test_dir_backend_resume_recomputes_nothing(spec, storage_root, dir_result):
    resumed = run_sweep(
        spec, cache_dir=str(storage_root / "dir_cache"), resume=True
    )
    assert resumed.stats.computed == 0
    assert resumed.stats.cached == resumed.stats.total > 0


def test_sqlite_backend_bit_identical_and_resumable(
    spec, storage_root, dir_result
):
    _reference, reference_bytes = dir_result
    url = f"sqlite:{storage_root / 'cache.db'}"

    store = ArtifactStore.from_url(url)
    cold = run_sweep(spec, store=store)
    store.close()
    assert _results_bytes(cold, storage_root / "sqlite_out") == reference_bytes
    assert cold.stats.computed == cold.stats.total > 0

    fresh = ArtifactStore.from_url(url)
    warm = run_sweep(spec, store=fresh, resume=True)
    fresh.close()
    assert warm.stats.computed == 0
    assert warm.stats.cached == warm.stats.total
    assert _results_bytes(warm, storage_root / "sqlite_warm") == reference_bytes


def test_http_backend_tiered_bit_identical_and_resumable(
    spec, storage_root, dir_result
):
    _reference, reference_bytes = dir_result
    with JobService(DirBackend(str(storage_root / "served")), workers=0) as server:
        cold_store = TieredStore(
            f"dir:{storage_root / 'tier_local_cold'}", server.url
        )
        cold = run_sweep(spec, store=cold_store)
        assert (
            _results_bytes(cold, storage_root / "http_out") == reference_bytes
        )
        assert cold.stats.computed == cold.stats.total > 0

        # Resume through a *fresh, empty* local layer: every cache hit
        # was necessarily served over HTTP by the remote.
        warm_store = TieredStore(
            f"dir:{storage_root / 'tier_local_warm'}", server.url
        )
        warm = run_sweep(spec, store=warm_store, resume=True)
        assert warm.stats.computed == 0
        assert warm.stats.cached == warm.stats.total
        assert (
            _results_bytes(warm, storage_root / "http_warm") == reference_bytes
        )
        # ... and the read-through warmed the new local layer.
        local = DirBackend(str(storage_root / "tier_local_warm"))
        assert len(local.entries()) == warm.stats.total


def test_remote_only_resume_without_local_layer(spec, storage_root, dir_result):
    _reference, reference_bytes = dir_result
    with JobService(DirBackend(str(storage_root / "dir_cache")), workers=0) as server:
        store = ArtifactStore(backend=RemoteHTTPBackend(server.url))
        warm = run_sweep(spec, store=store, resume=True)
    assert warm.stats.computed == 0
    assert (
        _results_bytes(warm, storage_root / "remote_only") == reference_bytes
    )


def test_pushed_store_resumes_with_zero_recomputes(
    spec, storage_root, dir_result
):
    """`repro cache push dir:... sqlite:...` makes the sqlite store warm."""
    _reference, reference_bytes = dir_result
    url = f"sqlite:{storage_root / 'pushed.db'}"
    stats = sync_stores(f"dir:{storage_root / 'dir_cache'}", url)
    assert stats.copied > 0

    store = ArtifactStore.from_url(url)
    warm = run_sweep(spec, store=store, resume=True)
    store.close()
    assert warm.stats.computed == 0
    assert warm.stats.cached == warm.stats.total > 0
    assert _results_bytes(warm, storage_root / "pushed_out") == reference_bytes
