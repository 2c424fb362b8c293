"""Force-directed global placer with density spreading.

This is the substrate standing in for qPlacer/DREAMPlace GP [12], [13]
(see DESIGN.md).  It minimizes net wirelength (spring attraction) subject
to a spreading force from the bin-density map, with qubits softly anchored
to their topology-derived seeds.  The output is a *rough* placement: blocks
may overlap each other and qubit macros — exactly the input legalization
must clean up.

Pseudo connections (Fig. 5d) enter simply as extra nets, so running the
placer with snake vs. pseudo nets reproduces the paper's motivation
ablation (long stringy resonators vs. compact blobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import QGDPConfig
from repro.geometry import SiteGrid
from repro.netlist.netlist import QuantumNetlist
from repro.netlist.pseudo import ConnectionStyle
from repro.placement.density import DensityMap
from repro.placement.wirelength import total_hpwl


@dataclass
class GlobalPlaceResult:
    """Summary of a global-placement run."""

    iterations: int
    hpwl: float
    max_bin_overflow: float


class GlobalPlacer:
    """Spring + density-spreading placer over the netlist's components."""

    def __init__(self, config: QGDPConfig = None) -> None:
        self.config = config or QGDPConfig()

    def run(
        self,
        netlist: QuantumNetlist,
        grid: SiteGrid,
        style: ConnectionStyle = ConnectionStyle.PSEUDO,
        seed: int = None,
        move_qubits: bool = True,
    ) -> GlobalPlaceResult:
        """Place all components in-place; returns a run summary.

        ``move_qubits=False`` freezes qubits at their seeds (useful for
        ablations); by default they float on a soft anchor so GP can trade
        a little qubit displacement for wirelength, as qPlacer does.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed if seed is None else seed)

        node_ids = [("q", q.index) for q in netlist.qubits]
        node_ids += [
            ("b", b.resonator_key, b.ordinal) for b in netlist.wire_blocks
        ]
        index_of = {nid: k for k, nid in enumerate(node_ids)}
        num_qubits = netlist.num_qubits
        n = len(node_ids)

        # One contiguous array per axis; qubits first, then wire blocks.
        x = np.zeros(n)
        y = np.zeros(n)
        areas = np.zeros(n)
        for q in netlist.qubits:
            k = index_of[("q", q.index)]
            x[k], y[k] = q.x, q.y
            areas[k] = q.rect.area
        for b in netlist.wire_blocks:
            k = index_of[("b", b.resonator_key, b.ordinal)]
            x[k], y[k] = b.x, b.y
            areas[k] = b.rect.area
        anchor_x = x[:num_qubits].copy()
        anchor_y = y[:num_qubits].copy()

        # Small symmetric noise so collinear seeds can spread sideways.
        noise = rng.normal(0.0, cfg.gp_noise, (n - num_qubits, 2))
        x[num_qubits:] += noise[:, 0]
        y[num_qubits:] += noise[:, 1]

        nets = netlist.nets(style)
        src = np.array([index_of[u] for u, _ in nets], dtype=int)
        dst = np.array([index_of[v] for _, v in nets], dtype=int)
        ends = np.concatenate((src, dst))

        density = DensityMap(grid, bin_size=2.0 * cfg.lb)
        half = np.where(
            np.arange(n) < num_qubits, cfg.qubit_size / 2.0, cfg.lb / 2.0
        )
        x_hi = grid.width - half
        y_hi = grid.height - half
        movable_lo = 0 if move_qubits else num_qubits
        pull = cfg.gp_attraction
        cap = 1.5 * cfg.lb

        step = cfg.gp_step
        for _ in range(cfg.gp_iterations):
            # Net attraction (linear springs on 2-pin nets), summed per
            # node in (src, dst) order.
            dx = x[dst] - x[src]
            dy = y[dst] - y[src]
            fx = np.bincount(
                ends, np.concatenate((pull * dx, -pull * dx)), minlength=n
            )
            fy = np.bincount(
                ends, np.concatenate((pull * dy, -pull * dy)), minlength=n
            )
            # Density spreading, both passes over one binning.
            bins = density.flat_bins(x, y)
            density.deposit_bins(bins, areas)
            gx, gy = density.gradient_of_bins(bins)
            fx -= cfg.gp_density * gx
            fy -= cfg.gp_density * gy
            # Qubit anchors.
            fx[:num_qubits] += cfg.gp_anchor * (anchor_x - x[:num_qubits])
            fy[:num_qubits] += cfg.gp_anchor * (anchor_y - y[:num_qubits])
            if not move_qubits:
                fx[:num_qubits] = 0.0
                fy[:num_qubits] = 0.0

            # Capped, decaying step.
            norm = np.sqrt(fx * fx + fy * fy)
            scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
            x[movable_lo:] += step * (fx * scale)[movable_lo:]
            y[movable_lo:] += step * (fy * scale)[movable_lo:]

            # Border clamp (Eq. 2).
            np.minimum(np.maximum(x, half, out=x), x_hi, out=x)
            np.minimum(np.maximum(y, half, out=y), y_hi, out=y)
            step *= 0.995

        self._write_back(netlist, node_ids, x, y)
        density.deposit(x, y, areas)
        bin_cap = density.bin_size**2
        overflow = float(np.max(density.density) / bin_cap)
        positions = dict(zip(node_ids, zip(x.tolist(), y.tolist())))
        return GlobalPlaceResult(
            iterations=cfg.gp_iterations,
            hpwl=total_hpwl(nets, positions),
            max_bin_overflow=overflow,
        )

    @staticmethod
    def _write_back(
        netlist: QuantumNetlist, node_ids: list, x: np.ndarray, y: np.ndarray
    ) -> None:
        for nid, xk, yk in zip(node_ids, x.tolist(), y.tolist()):
            if nid[0] == "q":
                netlist.qubit(nid[1]).move_to(xk, yk)
            else:
                _, key, ordinal = nid
                netlist.resonator(*key).blocks[ordinal].move_to(xk, yk)
