"""Analysis-kernel timings: qubit LP, MST trace build, crossing count.

These are the three kernels PERFORMANCE.md tracks individually — the LP
macro legalization (dominant ``tq`` term at ≥100 qubits), the MST trace
build (dominant cold-evaluation cost) and the sweep-line crossing count
(every Fig. 9 / Table III ``X`` entry).  The LP is timed both with its
default levers (transitive arc reduction + solution-level warm start)
and in the historical cold full-graph mode, so the perf trajectory
records what each lever buys.  Legalized square grids have no crossing
candidate pairs, so the trace-pair orientation tests are not timed here;
``perfbench/run.py`` measures crossings end to end (its
``routing.crossings`` layer).  Each run dumps the median of N
wall-clock runs per kernel to ``BENCH_kernels.json`` at the repo root so
successive PRs extend the per-kernel perf trajectory alongside
``BENCH_scaling.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.core.config import QGDPConfig
from repro.legalization import get_engine, run_legalization
from repro.legalization.macro_lp import legalize_macros
from repro.legalization.qubit_legalizer import legalize_qubits
from repro.placement import GlobalPlacer, build_layout
from repro.routing.crossings import build_traces, count_crossings
from repro.topologies import grid_topology

SIDES = (8, 12)
REPEATS = 5

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _median_ms(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_kernels(sides=SIDES) -> dict:
    """Median-of-N per-kernel wall times on square grids."""
    rows = {}
    for side in sides:
        cfg = QGDPConfig()
        netlist, grid = build_layout(grid_topology(side), cfg)
        GlobalPlacer(cfg).run(netlist, grid, seed=cfg.seed)
        snapshot = netlist.snapshot()

        def lp():
            netlist.restore(snapshot)
            legalize_qubits(netlist, grid, cfg)

        lp_ms = _median_ms(lp)

        # Warm vs cold on the same macro LP instance: default levers
        # (arc reduction + warm presolve) against the historical cold
        # full-graph solve.
        indices = [q.index for q in netlist.qubits]
        q_positions = {q.index: (q.x, q.y) for q in netlist.qubits}
        q_sizes = {q.index: (q.w, q.h) for q in netlist.qubits}
        spacing = cfg.min_qubit_spacing
        lp_warm_ms = _median_ms(
            lambda: legalize_macros(
                indices, q_positions, q_sizes, grid, spacing
            )
        )
        lp_cold_ms = _median_ms(
            lambda: legalize_macros(
                indices, q_positions, q_sizes, grid, spacing,
                reduce_arcs=False, warm_start=False,
            )
        )

        netlist.restore(snapshot)
        outcome = run_legalization(netlist, grid, get_engine("qgdp"), cfg)
        traces_ms = _median_ms(lambda: build_traces(netlist, cfg.lb))
        traces = build_traces(netlist, cfg.lb)
        crossings_cached_ms = _median_ms(
            lambda: count_crossings(netlist, outcome.bins, traces=traces)
        )
        crossings_cold_ms = _median_ms(
            lambda: count_crossings(netlist, outcome.bins)
        )
        rows[side * side] = {
            "lp_ms": lp_ms,
            "lp_warm_ms": lp_warm_ms,
            "lp_cold_ms": lp_cold_ms,
            "traces_ms": traces_ms,
            "crossings_cached_ms": crossings_cached_ms,
            "crossings_cold_ms": crossings_cold_ms,
        }
    return rows


def test_kernel_timings(benchmark):
    rows = benchmark.pedantic(run_kernels, rounds=1, iterations=1)

    print()
    print("== analysis kernels on square grids (median of "
          f"{REPEATS}, ms) ==")
    for qubits, row in rows.items():
        print(
            f"  {qubits:3d} qubits  lp {row['lp_ms']:7.1f}  "
            f"(warm {row['lp_warm_ms']:5.1f} / cold {row['lp_cold_ms']:5.1f})  "
            f"traces {row['traces_ms']:6.1f}  "
            f"crossings {row['crossings_cached_ms']:5.1f} cached / "
            f"{row['crossings_cold_ms']:5.1f} cold"
        )

    RESULT_PATH.write_text(json.dumps(rows, indent=2) + "\n")
    print(f"  kernel trajectory written to {RESULT_PATH.name}")

    # Generous absolute guards: an order of magnitude above the
    # vectorized kernels, far below a pure-Python regression.
    worst = rows[144]
    assert worst["lp_ms"] < 1000.0
    assert worst["traces_ms"] < 500.0
    assert worst["crossings_cold_ms"] < 800.0
