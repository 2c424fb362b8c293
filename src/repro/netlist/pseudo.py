"""Wire-block net construction: snake vs. pseudo connections (Fig. 5c-d).

The global placer pulls connected cells together.  How wire blocks are
wired into nets therefore shapes the post-GP resonator footprint:

* **snake** — each block connects only to its predecessor/successor, and
  the first/last block to the endpoint qubits (qPlacer's scheme [12]).
  The density force then stretches the chain into a long line, which
  legalizes badly and has a large crosstalk perimeter.
* **pseudo** — in addition to the snake, every block is connected to all
  of its neighbours in the reshaped ``cols x rows`` rectangle (Fig. 5d,
  red arrows), steering GP toward a compact, legalization-friendly blob.

A *net* here is a 2-pin ``(u, v)`` pair over node ids; node ids are either
``("q", index)`` for qubits or ``("b", resonator_key, ordinal)`` for wire
blocks, so the nets can be consumed directly by the placer.
"""

from __future__ import annotations

import enum

from repro.netlist.components import Resonator
from repro.netlist.partition import reshape_to_rectangle


class ConnectionStyle(enum.Enum):
    """Which wire-block net construction to use."""

    SNAKE = "snake"
    PSEUDO = "pseudo"


def qubit_node(index: int) -> tuple:
    """Placer node id for qubit ``index``."""
    return ("q", index)


def block_node(resonator_key: tuple, ordinal: int) -> tuple:
    """Placer node id for a wire block."""
    return ("b", resonator_key, ordinal)


def snake_connection_nets(resonator: Resonator) -> list:
    """Chain nets: qubit_i — b0 — b1 — ... — b(n-1) — qubit_j."""
    key = resonator.key
    n = resonator.num_blocks
    if n == 0:
        return [(qubit_node(resonator.qi), qubit_node(resonator.qj))]
    nets = [(qubit_node(resonator.qi), block_node(key, 0))]
    nets.extend(
        (block_node(key, i), block_node(key, i + 1)) for i in range(n - 1)
    )
    nets.append((block_node(key, n - 1), qubit_node(resonator.qj)))
    return nets


def pseudo_connection_nets(resonator: Resonator) -> list:
    """Snake nets plus all-neighbour links in the reshaped rectangle.

    Blocks are conceptually arranged row-major in the ``cols x rows``
    rectangle from :func:`reshape_to_rectangle`.  Every right neighbour
    ``i + 1`` is already the block's snake successor, so the only new
    nets are the upper neighbours ``(b_i, b_{i+cols})`` in block order —
    and none for a single column, where ``i + cols`` is ``i + 1`` too.
    """
    nets = snake_connection_nets(resonator)
    key = resonator.key
    n = resonator.num_blocks
    if n <= 1:
        return nets
    cols, _rows = reshape_to_rectangle(n)
    if cols > 1:
        nets.extend(
            (block_node(key, i), block_node(key, i + cols))
            for i in range(n - cols)
        )
    return nets


def build_block_nets(resonators: list, style: ConnectionStyle) -> list:
    """Nets for every resonator under the chosen connection style."""
    builder = (
        pseudo_connection_nets
        if style is ConnectionStyle.PSEUDO
        else snake_connection_nets
    )
    nets = []
    for resonator in resonators:
        nets.extend(builder(resonator))
    return nets
