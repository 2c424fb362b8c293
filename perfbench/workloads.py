"""The three benchmark workloads, driven through the public API.

Each workload turns the benchmark seed into its inputs (``QGDPConfig.seed``
and, for the sweep, ``SweepSpec.base_seed``), runs one timed unit of work
per :meth:`run`, and exposes the final layouts that unit produced so the
runner can check them outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from repro.circuits.registry import PAPER_BENCHMARKS
from repro.compiler import mapping as compiler_mapping
from repro.core.config import QGDPConfig
from repro.core.pipeline import run_flow
from repro.core.result import decode_snapshot
from repro.legalization.engines import ENGINES, PAPER_ENGINE_ORDER
from repro.metrics.report import layout_metrics
from repro.orchestration.stages import config_to_dict, rebuild_occupancy
from repro.orchestration.store import ArtifactStore
from repro.orchestration.sweep import SweepSpec, plan_sweep, run_sweep
from repro.placement.builder import build_layout
from repro.routing.crossings import count_crossings
from repro.topologies.grid import grid_topology
from repro.topologies.registry import PAPER_TOPOLOGIES, get_topology


@dataclass
class Layout:
    """One final layout: where it came from and what the program said."""

    label: str
    engine: str
    positions: dict
    cols: int
    rows: int
    program_spacing: int  # qubit spacing violations the program reported


_QUALITY_FIELDS = (
    "unified",
    "total_resonators",
    "crossings",
    "spacing_violations",
    "ph_percent",
    "hq",
)


def _layout_quality(metrics: dict, netlist, bins) -> dict:
    """Raw quality numbers of one live layout, given its layout metrics."""
    per_resonator = count_crossings(netlist, bins).per_resonator
    quality = {name: metrics[name] for name in _QUALITY_FIELDS}
    quality["crossing_free"] = sum(1 for n in per_resonator.values() if n == 0)
    return quality


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class FlowWorkload:
    """``run_flow`` with detailed placement over a fixed topology list."""

    def __init__(self, name: str, topologies: list, engine: str, seed: int) -> None:
        self.name = name
        self.topologies = topologies
        self.engine = engine
        self.config = QGDPConfig(seed=seed)

    def warm_up(self) -> None:
        run_flow(grid_topology(4), engine=self.engine, config=self.config)

    def units(self) -> int:
        return len(self.topologies)

    def run(self, tracer=None) -> list:
        out = []
        for label, topology in self.topologies:
            with _span(tracer, "flow"):
                flow, result = run_flow(
                    topology, engine=self.engine, detailed=True, config=self.config
                )
            out.append((label, flow, result))
        return out

    def layouts(self, out: list) -> list:
        return [
            Layout(
                label,
                self.engine,
                result.final.positions,
                flow.grid.cols,
                flow.grid.rows,
                result.final.metrics["spacing_violations"],
            )
            for label, flow, result in out
        ]

    def quality(self, out: list) -> dict:
        return {
            label: _layout_quality(result.final.metrics, flow.netlist, flow.bins)
            for label, flow, result in out
        }

    def extra(self, out: list) -> dict:
        return {}

    def checks(self, out: list) -> list:
        return []

    def golden_checks(self, digests: dict, root: str) -> list:
        return []

    def cleanup(self, out: list) -> None:
        pass


@dataclass
class SweepOutput:
    path: str
    cold: object
    warm: object


def _forget_compiler_paths() -> None:
    """Empty the compiler's process-wide shortest-path memo.

    ``repro.compiler.mapping`` memoizes paths under ``id(graph)`` and never
    drops an entry, while every transpile job builds a fresh topology graph.
    Entries left by one sweep can thus be read by a later sweep whose graph
    reuses a freed id, and the memo grows with every sweep.  A ``repro
    sweep`` process starts with it empty, so each timed sweep does too.
    """
    compiler_mapping._PATH_CACHE.clear()


def _rows_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.rows).encode("ascii")).hexdigest()


class SweepWorkload:
    """A cold Fig. 8 sweep into a fresh directory store, then its resume."""

    name = "sweep-paper"

    def __init__(self, seed: int, scratch: str) -> None:
        self.config = QGDPConfig(seed=seed)
        self.spec = SweepSpec(
            tuple(PAPER_TOPOLOGIES),
            tuple(PAPER_BENCHMARKS),
            tuple(PAPER_ENGINE_ORDER),
            num_seeds=50,
            base_seed=seed,
            detailed=True,
            config=config_to_dict(self.config),
        )
        self.scratch = scratch
        self.runs = 0
        plan = plan_sweep(self.spec)
        self.num_jobs = len(plan.graph)
        self.layout_jobs = {}  # (topology, engine) -> [layout job, analyze job]
        for job in plan.graph.ordered():
            if job.kind in ("lg", "dp", "analyze"):
                slot = (job.params["topology"], job.params["engine"])
                self.layout_jobs.setdefault(slot, [None, None])
                self.layout_jobs[slot][job.kind == "analyze"] = job
        self.netlists = {
            name: build_layout(get_topology(name), self.config)
            for name in PAPER_TOPOLOGIES
        }

    def warm_up(self) -> None:
        spec = SweepSpec(
            ("grid",),
            ("bv-4",),
            tuple(PAPER_ENGINE_ORDER),
            num_seeds=2,
            base_seed=self.spec.base_seed,
            detailed=True,
            config=self.spec.config,
        )
        run_sweep(spec)
        _forget_compiler_paths()

    def units(self) -> int:
        return 2 * self.num_jobs

    def run(self, tracer=None) -> SweepOutput:
        self.runs += 1
        path = os.path.join(self.scratch, f"store-{os.getpid()}-{self.runs}")
        shutil.rmtree(path, ignore_errors=True)
        url = f"dir:{path}"
        try:
            with _span(tracer, "orchestration.cold"):
                cold = run_sweep(self.spec, cache_url=url)
            with _span(tracer, "orchestration.resume"):
                warm = run_sweep(self.spec, cache_url=url, resume=True)
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        if tracer is not None:
            tracer.count(
                "orchestration.resume.cached_ratio",
                warm.stats.cached / warm.stats.total,
            )
        return SweepOutput(path, cold, warm)

    def _payloads(self, out: SweepOutput) -> dict:
        store = ArtifactStore.from_url(f"dir:{out.path}")
        try:
            return {
                slot: (store.get(lay.kind, lay.key), store.get("analyze", ana.key))
                for slot, (lay, ana) in self.layout_jobs.items()
            }
        finally:
            store.close()

    def layouts(self, out: SweepOutput) -> list:
        result = []
        for (topo, engine), (layout, analysis) in self._payloads(out).items():
            _netlist, grid = self.netlists[topo]
            result.append(
                Layout(
                    f"{topo}/{engine}",
                    engine,
                    decode_snapshot(layout["positions"]),
                    grid.cols,
                    grid.rows,
                    len(analysis["violations"]),
                )
            )
        return result

    def quality(self, out: SweepOutput) -> dict:
        quality = {}
        for (topo, engine), (layout, _analysis) in self._payloads(out).items():
            netlist, grid = self.netlists[topo]
            netlist.restore(decode_snapshot(layout["positions"]))
            bins = rebuild_occupancy(netlist, grid)
            metrics = asdict(layout_metrics(netlist, bins, self.config))
            quality[f"{topo}/{engine}"] = _layout_quality(metrics, netlist, bins)
        return quality

    def extra(self, out: SweepOutput) -> dict:
        means = [cell["mean"] for cell in out.cold.cells.values()]
        return {
            "fidelity_cells_sha256": _rows_digest(out.cold),
            "fidelity_mean": sum(means) / len(means),
        }

    def checks(self, out: SweepOutput) -> list:
        problems = []
        cold, warm = out.cold.stats, out.warm.stats
        if cold.computed != cold.total:
            problems.append(f"cold pass reused {cold.cached} of {cold.total} jobs")
        if warm.cached != warm.total:
            problems.append(f"resume computed {warm.computed} of {warm.total} jobs")
        if _rows_digest(out.warm) != _rows_digest(out.cold):
            problems.append("resumed cells differ from the cold pass")
        return problems

    def golden_checks(self, digests: dict, root: str) -> list:
        """qGDP's dp positions against the repository's golden baselines."""
        problems = []
        for topo in PAPER_TOPOLOGIES:
            path = os.path.join(root, "tests", "golden", "baselines", f"{topo}.json")
            with open(path, encoding="utf-8") as fh:
                want = json.load(fh)["positions_sha256"]
            if digests[f"{topo}/qgdp"] != want:
                problems.append(f"{topo}: qgdp dp positions differ from {path}")
        return problems

    def cleanup(self, out: SweepOutput) -> None:
        shutil.rmtree(out.path, ignore_errors=True)
        _forget_compiler_paths()


def make_workload(name: str, seed: int, scratch: str):
    """The named workload at ``seed``; ``scratch`` hosts on-disk stores."""
    if name == "flow-side24":
        return FlowWorkload(name, [("grid24", grid_topology(24))], "qgdp", seed)
    if name == "flow-paper-tetris":
        return FlowWorkload(
            name, [(t, get_topology(t)) for t in PAPER_TOPOLOGIES], "tetris", seed
        )
    if name == "sweep-paper":
        return SweepWorkload(seed, scratch)
    raise KeyError(name)


WORKLOAD_NAMES = ("flow-side24", "flow-paper-tetris", "sweep-paper")


def is_quantum(engine: str) -> bool:
    return ENGINES[engine].quantum_qubits
