"""Two "machines", one warm artifact cache: the storage backends demo.

Simulates the docs/storage.md two-machine walkthrough inside a single
process: a ``repro serve`` server fronts a SQLite store, a first sweeper runs
shard 1/2 against it, a second sweeper runs shard 2/2 — reusing every
cross-shard artifact (the topology GP, the shared transpilations) the
first one computed — and a final resume over the full sweep recomputes
nothing.  Finishes by syncing the server's store into a plain
directory cache with ``sync_stores`` (what ``repro cache pull`` runs).

Run from the repo root::

    PYTHONPATH=src python examples/shared_cache_sweep.py

Equivalent CLI session (with real machines, point --cache-url at the
cache host instead of localhost)::

    repro serve --store sqlite:shared.db --workers 0 &
    repro sweep --shard 1/2 --cache-url http://localhost:8766 ...
    repro sweep --shard 2/2 --cache-url http://localhost:8766 ...
    repro cache pull dir:.repro_cache http://localhost:8766
"""

from __future__ import annotations

import tempfile

from repro.core.config import QGDPConfig
from repro.orchestration import (
    JobService,
    SqliteBackend,
    SweepSpec,
    TieredStore,
    config_to_dict,
    run_sweep,
    sync_stores,
)


def main() -> None:
    spec = SweepSpec(
        topologies=("grid",),
        benchmarks=("bv-4", "qaoa-4"),
        engines=("qgdp",),
        num_seeds=3,
        config=config_to_dict(QGDPConfig(gp_iterations=60)),
    )

    with tempfile.TemporaryDirectory() as scratch:
        backend = SqliteBackend(f"{scratch}/shared.db")
        with JobService(backend, workers=0) as server:
            print(f"server: {server.url} serving {backend.describe()}")

            # "Machine A": shard 1/2, local fast layer over the server.
            store_a = TieredStore(f"dir:{scratch}/machine_a", server.url)
            a = run_sweep(spec, store=store_a, shard=(1, 2), resume=True)
            print(
                f"A (shard 1/2): {a.stats.computed} computed, "
                f"{a.stats.cached} cached"
            )

            # "Machine B": shard 2/2.  Cross-shard artifacts (the grid
            # GP, shared transpilations) come back from the server.
            store_b = TieredStore(f"dir:{scratch}/machine_b", server.url)
            b = run_sweep(spec, store=store_b, shard=(2, 2), resume=True)
            print(
                f"B (shard 2/2): {b.stats.computed} computed, "
                f"{b.stats.cached} cached (cross-shard reuse)"
            )

            # Any machine resumes the *full* sweep for free afterwards.
            store_c = TieredStore(f"dir:{scratch}/machine_c", server.url)
            full = run_sweep(spec, store=store_c, resume=True)
            print(
                f"full resume: {full.stats.computed} computed, "
                f"{full.stats.cached} cached -> {len(full.cells)} cells"
            )
            assert full.stats.computed == 0, "warm cache must serve everything"

            # `repro cache pull dir:... http://...` in library form.
            pulled = sync_stores(server.url, f"dir:{scratch}/offline_cache")
            print(
                f"pulled {pulled.copied} artifacts "
                f"({pulled.bytes_copied} bytes) into a directory cache"
            )
        backend.close()


if __name__ == "__main__":
    main()
