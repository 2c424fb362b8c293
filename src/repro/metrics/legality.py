"""Legality checking: Eq. 1 (non-overlap), Eq. 2 (borders), and the
quantum minimum-spacing rule of Section III-C.

Pairwise checks draw their candidates from the
:func:`~repro.geometry.pairs_within` grid hash, so full-layout validation
is near-linear; the qGDP test-suite runs them after every legalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import SiteGrid, gap_between, pairs_within, rect_arrays
from repro.netlist.netlist import QuantumNetlist


@dataclass(frozen=True)
class LegalityViolation:
    """One broken design rule."""

    kind: str  # "overlap" | "border" | "qubit_spacing"
    id_a: tuple
    id_b: tuple = None
    amount: float = 0.0

    def __str__(self) -> str:
        if self.id_b is None:
            return f"{self.kind}: {self.id_a} by {self.amount:.3f}"
        return f"{self.kind}: {self.id_a} vs {self.id_b} by {self.amount:.3f}"


def _components(netlist: QuantumNetlist) -> tuple:
    """``(components, centers, sizes)``: every qubit, then every block."""
    qubits, blocks = netlist.qubits, netlist.wire_blocks
    boxes = [(q.x, q.y, q.w, q.h) for q in qubits]
    boxes.extend((b.x, b.y, b.size, b.size) for b in blocks)
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return (qubits + blocks, boxes[:, :2], boxes[:, 2:])


def check_legality(
    netlist: QuantumNetlist,
    grid: SiteGrid,
    tol: float = 1e-6,
) -> list:
    """All overlap and border violations in the current layout.

    Border violations come first, in component order (qubits, then wire
    blocks); overlaps follow in ``(i, j)`` order over that same
    component list, one per pair whose interiors overlap by more than
    ``tol`` on both axes.  Every test and amount is ``Rect.inside`` /
    ``Rect.overlaps`` arithmetic, elementwise.
    """
    violations = []
    parts, centers, sizes = _components(netlist)
    lo = centers - sizes / 2.0
    hi = centers + sizes / 2.0

    border = grid.border
    border_lo = np.array([border.xlo, border.ylo])
    border_hi = np.array([border.xhi, border.yhi])
    inside = (lo >= border_lo - tol) & (hi <= border_hi + tol)
    excess = np.hstack((border_lo - lo, hi - border_hi)).max(axis=1)
    outside = np.flatnonzero(~inside.all(axis=1))
    for k, amount in zip(outside.tolist(), excess[outside].tolist()):
        violations.append(
            LegalityViolation("border", parts[k].node_id, None, amount)
        )

    first, second = pairs_within(centers, sizes, 0.0)
    shared = np.minimum(hi[first], hi[second])
    shared -= np.maximum(lo[first], lo[second])
    hit = (np.maximum(shared, 0.0) > tol).all(axis=1)
    first, second = first[hit], second[hit]
    amounts = np.minimum(hi[first] - lo[second], hi[second] - lo[first])
    for i, j, amount in zip(
        first.tolist(), second.tolist(), amounts.min(axis=1).tolist()
    ):
        violations.append(
            LegalityViolation(
                "overlap", parts[i].node_id, parts[j].node_id, amount
            )
        )
    return violations


def is_legal(netlist: QuantumNetlist, grid: SiteGrid, tol: float = 1e-6) -> bool:
    """True when the layout satisfies Eq. 1 and Eq. 2."""
    return not check_legality(netlist, grid, tol)


def qubit_spacing_violations(
    netlist: QuantumNetlist,
    min_spacing: float,
    tol: float = 1e-6,
) -> list:
    """Qubit pairs closer (edge-to-edge) than the quantum minimum spacing.

    These are the "spatial constraint violations" that feed the Rabi
    crosstalk error εg (Eq. 8): qubits without a resonator between them
    act as if directly capacitively coupled.
    """
    violations = []
    qubits = netlist.qubits
    first, second = pairs_within(
        *rect_arrays(q.rect for q in qubits), min_spacing - tol
    )
    for a_pos, b_pos in zip(first.tolist(), second.tolist()):
        qa, qb = qubits[a_pos], qubits[b_pos]
        gap = gap_between(qa.rect, qb.rect)
        if gap < min_spacing - tol:
            violations.append(
                LegalityViolation(
                    "qubit_spacing",
                    ("q", qa.index),
                    ("q", qb.index),
                    min_spacing - gap,
                )
            )
    return violations
