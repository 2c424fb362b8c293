"""Parity: the per-axis global-placer loop, the closed-form pseudo nets and
the shared-trace ``layout_metrics`` against what they replaced.

The references below are verbatim transcriptions of the historical code:
the ``(n, 2)`` GP loop with its own density binning (``bin_of`` run once
for the deposit and once for the gradient gather), the ``frozenset``
dedupe loop of ``pseudo_connection_nets``, and the three-call
``layout_metrics`` composition in which the integration, hotspot and
crossing metrics each built their own cluster map and traces.  GP
positions must match bit for bit — they seed every later stage and the
golden fingerprints — and the pseudo nets in content and order, since
net order is the GP spring-force summation order.
"""

import numpy as np
import pytest

from repro.core.config import QGDPConfig
from repro.frequency.hotspots import hotspot_report
from repro.legalization import get_engine, run_legalization
from repro.metrics import check_legality, qubit_spacing_violations
from repro.metrics.integration import integration_ratio, total_clusters
from repro.metrics.report import LayoutMetrics, layout_metrics
from repro.netlist import (
    ConnectionStyle,
    Resonator,
    blocks_for_resonator,
    pseudo_connection_nets,
    snake_connection_nets,
)
from repro.netlist.partition import reshape_to_rectangle
from repro.netlist.pseudo import block_node
from repro.placement import GlobalPlacer, build_layout
from repro.placement.wirelength import total_hpwl
from repro.routing.crossings import count_crossings
from repro.topologies import get_topology, grid_topology

SEEDS = (0, 7, 2025)
LAYOUTS = [f"grid{side}" for side in range(3, 9)] + ["falcon", "aspen11"]


def _topology(name):
    if name.startswith("grid") and name != "grid":
        return grid_topology(int(name[4:]))
    return get_topology(name)


# -- verbatim historical references -------------------------------------------
def _reference_bin_of(bin_size, nx, ny, xs, ys):
    bx = np.clip((xs / bin_size).astype(int), 0, nx - 1)
    by = np.clip((ys / bin_size).astype(int), 0, ny - 1)
    return (bx, by)


def _reference_deposit(bin_size, nx, ny, xs, ys, areas):
    bx, by = _reference_bin_of(bin_size, nx, ny, xs, ys)
    return np.bincount(by * nx + bx, weights=areas, minlength=ny * nx).reshape(
        ny, nx
    )


def _reference_gradient_at(bin_size, nx, ny, density, xs, ys):
    d = density
    padded = np.pad(d, 1, mode="edge")
    out = np.zeros_like(d)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + d.shape[0], dx : dx + d.shape[1]]
    smooth = out / 9.0
    gy, gx = np.gradient(smooth)
    bx, by = _reference_bin_of(bin_size, nx, ny, xs, ys)
    return (gx[by, bx], gy[by, bx])


def reference_gp(netlist, grid, cfg, style, seed, move_qubits):
    """The historical ``GlobalPlacer.run`` body; returns
    ``(node_ids, pos, hpwl, max_bin_overflow)`` without writing back."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)

    node_ids = [("q", q.index) for q in netlist.qubits]
    node_ids += [
        ("b", b.resonator_key, b.ordinal) for b in netlist.wire_blocks
    ]
    index_of = {nid: k for k, nid in enumerate(node_ids)}
    num_qubits = netlist.num_qubits
    n = len(node_ids)

    pos = np.zeros((n, 2))
    areas = np.zeros(n)
    for q in netlist.qubits:
        k = index_of[("q", q.index)]
        pos[k] = (q.x, q.y)
        areas[k] = q.rect.area
    for b in netlist.wire_blocks:
        k = index_of[("b", b.resonator_key, b.ordinal)]
        pos[k] = (b.x, b.y)
        areas[k] = b.rect.area
    anchors = pos[:num_qubits].copy()

    pos[num_qubits:] += rng.normal(0.0, cfg.gp_noise, (n - num_qubits, 2))

    nets = netlist.nets(style)
    src = np.array([index_of[u] for u, _ in nets], dtype=int)
    dst = np.array([index_of[v] for _, v in nets], dtype=int)
    ends = np.concatenate((src, dst))

    bin_size = 2.0 * cfg.lb
    nx = max(2, int(np.ceil(grid.width / bin_size)))
    ny = max(2, int(np.ceil(grid.height / bin_size)))
    half = np.where(
        np.arange(n) < num_qubits, cfg.qubit_size / 2.0, cfg.lb / 2.0
    )
    movable_lo = 0 if move_qubits else num_qubits

    step = cfg.gp_step
    for _ in range(cfg.gp_iterations):
        delta = pos[dst] - pos[src]
        pull = np.concatenate(
            (cfg.gp_attraction * delta, -cfg.gp_attraction * delta)
        )
        force = np.column_stack(
            [
                np.bincount(ends, weights=pull[:, axis], minlength=n)
                for axis in (0, 1)
            ]
        )
        density = _reference_deposit(
            bin_size, nx, ny, pos[:, 0], pos[:, 1], areas
        )
        gx, gy = _reference_gradient_at(
            bin_size, nx, ny, density, pos[:, 0], pos[:, 1]
        )
        force[:, 0] -= cfg.gp_density * gx
        force[:, 1] -= cfg.gp_density * gy
        force[:num_qubits] += cfg.gp_anchor * (anchors - pos[:num_qubits])
        if not move_qubits:
            force[:num_qubits] = 0.0

        norm = np.linalg.norm(force, axis=1, keepdims=True)
        cap = 1.5 * cfg.lb
        scale = np.minimum(1.0, cap / np.maximum(norm, 1e-12))
        pos[movable_lo:] += step * (force * scale)[movable_lo:]

        pos[:, 0] = np.clip(pos[:, 0], half, grid.width - half)
        pos[:, 1] = np.clip(pos[:, 1], half, grid.height - half)
        step *= 0.995

    density = _reference_deposit(bin_size, nx, ny, pos[:, 0], pos[:, 1], areas)
    overflow = float(np.max(density) / bin_size**2)
    positions = {nid: tuple(pos[k]) for nid, k in index_of.items()}
    return node_ids, pos, total_hpwl(nets, positions), overflow


def reference_pseudo_connection_nets(resonator):
    nets = snake_connection_nets(resonator)
    key = resonator.key
    n = resonator.num_blocks
    if n <= 1:
        return nets
    cols, _rows = reshape_to_rectangle(n)
    seen = {frozenset(net) for net in nets}
    for i in range(n):
        col, row = i % cols, i // cols
        for j in (i + 1, i + cols):
            if j >= n:
                continue
            jcol, jrow = j % cols, j // cols
            adjacent = (jrow == row and jcol == col + 1) or (
                jcol == col and jrow == row + 1
            )
            if not adjacent:
                continue
            net = (block_node(key, i), block_node(key, j))
            if frozenset(net) not in seen:
                seen.add(frozenset(net))
                nets.append(net)
    return nets


def reference_layout_metrics(netlist, bins, config):
    """The three-call composition, with hotspots at ``config.lb``."""
    unified, total = integration_ratio(netlist, config.lb)
    hotspots = hotspot_report(netlist, config.reach, config.delta_c, lb=config.lb)
    crossings = count_crossings(netlist, bins)
    return LayoutMetrics(
        num_cells=netlist.num_cells,
        unified=unified,
        total_resonators=total,
        clusters=total_clusters(netlist, config.lb),
        crossings=crossings.total,
        ph_percent=hotspots.ph_percent,
        hq=hotspots.hq,
        legality_violations=len(check_legality(netlist, bins.grid)),
        spacing_violations=len(
            qubit_spacing_violations(netlist, config.min_qubit_spacing)
        ),
    )


# -- GP ------------------------------------------------------------------------
# Every layout under both styles, frozen and floating qubits; the seed
# rotates so each layout runs under all three seeds.  The last case
# takes the config's own seed at a non-unit site pitch.
GP_CASES = [
    (name, style, move_qubits, SEEDS[(k + c) % len(SEEDS)], 1.0)
    for k, name in enumerate(LAYOUTS)
    for c, (style, move_qubits) in enumerate(
        (style, move_qubits)
        for style in (ConnectionStyle.PSEUDO, ConnectionStyle.SNAKE)
        for move_qubits in (True, False)
    )
] + [("grid", ConnectionStyle.PSEUDO, True, None, 2.0)]


@pytest.mark.parametrize("name, style, move_qubits, seed, lb", GP_CASES)
def test_gp_positions_bit_identical(name, style, move_qubits, seed, lb):
    cfg = QGDPConfig(lb=lb)
    netlist, grid = build_layout(_topology(name), cfg)
    node_ids, ref_pos, ref_hpwl, ref_overflow = reference_gp(
        netlist, grid, cfg, style, seed, move_qubits
    )
    result = GlobalPlacer(cfg).run(
        netlist, grid, style=style, seed=seed, move_qubits=move_qubits
    )
    snapshot = netlist.snapshot()
    got = np.array([snapshot[nid] for nid in node_ids])
    assert got.tobytes() == ref_pos.tobytes()
    assert result.hpwl == ref_hpwl
    assert result.max_bin_overflow == ref_overflow
    assert result.iterations == cfg.gp_iterations


# -- pseudo nets ---------------------------------------------------------------
def _resonator(n_blocks):
    r = Resonator(qi=2, qj=5, wirelength=float(max(n_blocks, 1)))
    if n_blocks:
        blocks_for_resonator(r, pad=1.0, lb=1.0)
    assert r.num_blocks == n_blocks
    return r


def test_pseudo_nets_match_dedupe_loop():
    for n in range(0, 301):
        r = _resonator(n)
        assert pseudo_connection_nets(r) == reference_pseudo_connection_nets(r), n


# -- layout_metrics ------------------------------------------------------------
@pytest.mark.parametrize(
    "name, engine, lb",
    [
        ("grid", "qgdp", 1.0),
        ("grid", "tetris", 1.0),
        ("falcon", "tetris", 1.0),
        ("aspen11", "qgdp", 1.0),
        ("aspen11", "tetris", 1.0),
        ("xtree", "tetris", 1.0),
        ("grid8", "tetris", 1.0),
        ("grid", "tetris", 2.0),
    ],
)
def test_layout_metrics_match_three_call_composition(name, engine, lb):
    cfg = QGDPConfig(lb=lb)
    netlist, grid = build_layout(_topology(name), cfg)
    GlobalPlacer(cfg).run(netlist, grid, seed=cfg.seed)
    bins = run_legalization(netlist, grid, get_engine(engine), cfg).bins
    assert layout_metrics(netlist, bins, cfg) == reference_layout_metrics(
        netlist, bins, cfg
    )


def test_layout_metrics_measures_hotspots_at_the_layout_lb():
    """At ``lb=2.0`` the hotspot raster and traces follow ``config.lb``
    (the historical call fell back to ``lb=1.0`` for hotspots only)."""
    cfg = QGDPConfig(lb=2.0)
    netlist, grid = build_layout(get_topology("grid"), cfg)
    GlobalPlacer(cfg).run(netlist, grid, seed=cfg.seed)
    bins = run_legalization(netlist, grid, get_engine("tetris"), cfg).bins
    metrics = layout_metrics(netlist, bins, cfg)
    at_lb = hotspot_report(netlist, cfg.reach, cfg.delta_c, lb=cfg.lb)
    at_unit = hotspot_report(netlist, cfg.reach, cfg.delta_c)
    assert (metrics.ph_percent, metrics.hq) == (at_lb.ph_percent, at_lb.hq)
    assert at_unit.ph_percent != at_lb.ph_percent
