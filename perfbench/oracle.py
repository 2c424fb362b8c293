"""Independent output oracle for final layouts.

It re-derives legality from raw positions and the die size alone: no
``BinGrid``, no ``Rect.gap_between``, no site-grid methods.  Positions are
component centres (the netlist snapshot convention): ``("q", i)`` is a
square qubit macro of side ``qubit_size``, ``("b", key, ordinal)`` a wire
block occupying one ``lb`` x ``lb`` site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Slack for float comparisons, in layout units.
TOL = 1e-6


@dataclass
class OracleReport:
    """What the oracle found on one layout."""

    problems: list = field(default_factory=list)
    spacing_pairs: int = 0
    spacing_qubits: int = 0
    num_qubits: int = 0


def _integral(values: np.ndarray) -> np.ndarray:
    return np.abs(values - np.round(values)) <= TOL


def check_layout(
    positions: dict,
    cols: int,
    rows: int,
    lb: float,
    qubit_size: float,
    min_spacing: float,
    quantum: bool,
) -> OracleReport:
    """Check on-site placement, exclusivity, the die and qubit spacing.

    ``quantum`` engines must also keep every qubit pair at least
    ``min_spacing`` apart edge to edge; for classical engines the
    violations are only counted.
    """
    report = OracleReport()
    qubits = np.array(
        [xy for node, xy in positions.items() if node[0] == "q"], dtype=float
    ).reshape(-1, 2)
    blocks = np.array(
        [xy for node, xy in positions.items() if node[0] == "b"], dtype=float
    ).reshape(-1, 2)
    report.num_qubits = len(qubits)
    width, height = cols * lb, rows * lb
    span = int(round(qubit_size / lb))

    # Wire blocks: centred on a site of the die.
    block_sites = blocks / lb - 0.5
    off_site = ~np.all(_integral(block_sites), axis=1)
    if off_site.any():
        report.problems.append(f"{int(off_site.sum())} wire blocks off-site")
    block_sites = np.round(block_sites).astype(np.int64)
    outside = ~(
        (block_sites[:, 0] >= 0)
        & (block_sites[:, 0] < cols)
        & (block_sites[:, 1] >= 0)
        & (block_sites[:, 1] < rows)
    )
    if outside.any():
        report.problems.append(f"{int(outside.sum())} wire blocks outside the die")

    # Qubits: lower-left corner on a site corner, whole macro in the die.
    corners = (qubits - qubit_size / 2.0) / lb
    if not np.all(_integral(corners)):
        report.problems.append("qubit macros not aligned to sites")
    lo = qubits - qubit_size / 2.0
    hi = qubits + qubit_size / 2.0
    beyond = (
        (lo[:, 0] < -TOL)
        | (lo[:, 1] < -TOL)
        | (hi[:, 0] > width + TOL)
        | (hi[:, 1] > height + TOL)
    )
    if beyond.any():
        report.problems.append(f"{int(beyond.sum())} qubits outside the die")

    # Exclusivity: every site holds at most one component.
    if not report.problems:
        corner_sites = np.round(corners).astype(np.int64)
        dc, dr = np.meshgrid(np.arange(span), np.arange(span), indexing="ij")
        qubit_cols = (corner_sites[:, 0, None] + dc.ravel()).ravel()
        qubit_rows = (corner_sites[:, 1, None] + dr.ravel()).ravel()
        flat = np.concatenate(
            [qubit_cols * rows + qubit_rows, block_sites[:, 0] * rows + block_sites[:, 1]]
        )
        shared = np.bincount(flat, minlength=cols * rows) > 1
        if shared.any():
            report.problems.append(f"{int(shared.sum())} sites hold two components")

    # Edge-to-edge qubit spacing: axis gaps, Euclidean across a corner.
    if len(qubits) > 1:
        dx = np.maximum(
            0.0, np.abs(qubits[:, None, 0] - qubits[None, :, 0]) - qubit_size
        )
        dy = np.maximum(
            0.0, np.abs(qubits[:, None, 1] - qubits[None, :, 1]) - qubit_size
        )
        gap = np.where((dx > 0) & (dy > 0), np.hypot(dx, dy), np.maximum(dx, dy))
        close = np.triu(gap < min_spacing - TOL, k=1)
        report.spacing_pairs = int(close.sum())
        report.spacing_qubits = int((close.any(axis=0) | close.any(axis=1)).sum())
        if quantum and report.spacing_pairs:
            report.problems.append(
                f"{report.spacing_pairs} qubit pairs closer than {min_spacing}"
            )
    return report
