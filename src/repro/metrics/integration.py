"""Resonator integration metrics: cluster totals and Iedge (Table III)."""

from __future__ import annotations

from repro.netlist.clusters import block_cluster_map
from repro.netlist.netlist import QuantumNetlist


def _cluster_counts(
    netlist: QuantumNetlist, lb: float, clusters: dict
) -> list:
    """``|C_e|`` per resonator, from ``clusters`` when the caller has it."""
    if clusters is None:
        clusters = block_cluster_map(netlist.resonators, lb)
    return [len(found) for found in clusters.values()]


def total_clusters(
    netlist: QuantumNetlist, lb: float = 1.0, clusters: dict = None
) -> int:
    """``Σ_e |C_e|`` — the Eq. 3 objective over the whole layout.

    ``clusters`` is an optional precomputed
    :func:`~repro.netlist.clusters.block_cluster_map` of the layout.
    """
    return sum(_cluster_counts(netlist, lb, clusters))


def integration_ratio(
    netlist: QuantumNetlist, lb: float = 1.0, clusters: dict = None
) -> tuple:
    """``Iedge`` as ``(unified, total)`` — e.g. (37, 40) reads "37/40".

    ``clusters`` is an optional precomputed
    :func:`~repro.netlist.clusters.block_cluster_map` of the layout.
    """
    unified = sum(
        1 for count in _cluster_counts(netlist, lb, clusters) if count == 1
    )
    return (unified, netlist.num_resonators)
