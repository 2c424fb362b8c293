"""One-stop layout quality report used by benches and the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_report
from repro.legalization.bins import BinGrid
from repro.metrics.integration import integration_ratio, total_clusters
from repro.metrics.legality import check_legality, qubit_spacing_violations
from repro.netlist.clusters import block_cluster_map
from repro.netlist.netlist import QuantumNetlist
from repro.routing.crossings import build_traces, count_crossings


@dataclass
class LayoutMetrics:
    """The Table III metric set plus legality information."""

    num_cells: int
    unified: int
    total_resonators: int
    clusters: int
    crossings: int
    ph_percent: float
    hq: int
    legality_violations: int
    spacing_violations: int

    @property
    def iedge(self) -> str:
        """Iedge formatted as the paper prints it, e.g. ``"37/40"``."""
        return f"{self.unified}/{self.total_resonators}"


def layout_metrics(
    netlist: QuantumNetlist,
    bins: BinGrid,
    config: QGDPConfig = None,
) -> LayoutMetrics:
    """Compute the full metric set on the current (legalized) layout.

    The cluster map and every resonator's MST trace are built once, at
    ``config.lb``, and shared by the integration, hotspot and crossing
    metrics.
    """
    config = config or QGDPConfig()
    clusters = block_cluster_map(netlist.resonators, config.lb)
    traces = build_traces(netlist, config.lb, clusters)
    unified, total = integration_ratio(netlist, config.lb, clusters)
    hotspots = hotspot_report(
        netlist, config.reach, config.delta_c, lb=config.lb, traces=traces
    )
    crossings = count_crossings(netlist, bins, traces=traces)
    return LayoutMetrics(
        num_cells=netlist.num_cells,
        unified=unified,
        total_resonators=total,
        clusters=total_clusters(netlist, config.lb, clusters),
        crossings=crossings.total,
        ph_percent=hotspots.ph_percent,
        hq=hotspots.hq,
        legality_violations=len(check_legality(netlist, bins.grid)),
        spacing_violations=len(
            qubit_spacing_violations(netlist, config.min_qubit_spacing)
        ),
    )
