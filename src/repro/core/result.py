"""Stage reports, the end-to-end flow result, and their serialization.

Layout snapshots and stage reports round-trip through plain JSON-safe
structures so the orchestration layer can persist them in the disk
artifact store and ship them across process boundaries.  Float positions
survive the round trip bit-exactly (``json`` serializes doubles via
``repr``, the shortest string that parses back to the same double), so a
restored snapshot reproduces the source layout exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def encode_snapshot(positions: dict) -> list:
    """Flatten a :meth:`QuantumNetlist.snapshot` dict into JSON-safe rows.

    Qubit entries become ``["q", index, x, y]`` and wire-block entries
    ``["b", qi, qj, ordinal, x, y]``; row order follows the snapshot's
    insertion order so decoding rebuilds an identical dict.
    """
    rows = []
    for node_id, (x, y) in positions.items():
        if node_id[0] == "q":
            rows.append(["q", node_id[1], x, y])
        elif node_id[0] == "b":
            (qi, qj) = node_id[1]
            rows.append(["b", qi, qj, node_id[2], x, y])
        else:
            raise ValueError(f"unknown snapshot node id {node_id!r}")
    return rows


def decode_snapshot(rows: list) -> dict:
    """Inverse of :func:`encode_snapshot`."""
    positions = {}
    for row in rows:
        if row[0] == "q":
            _, index, x, y = row
            positions[("q", index)] = (x, y)
        elif row[0] == "b":
            _, qi, qj, ordinal, x, y = row
            positions[("b", (qi, qj), ordinal)] = (x, y)
        else:
            raise ValueError(f"unknown snapshot row {row!r}")
    return positions


@dataclass
class StageReport:
    """Metrics snapshot after one flow stage (GP, LG, DP).

    ``positions`` is a netlist snapshot (node id → (x, y)) so layouts can
    be compared or restored; ``metrics`` holds stage-appropriate numbers
    (hpwl, displacement, Ph, cluster counts, runtimes...).  ``runtime_s``
    times the stage itself and ``metrics_s`` the layout-metrics pass
    that produced ``metrics`` after it (0.0 when there was none).
    """

    stage: str
    runtime_s: float
    positions: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    metrics_s: float = 0.0

    def metric(self, key: str, default=None):
        """Convenience accessor into ``metrics``."""
        return self.metrics.get(key, default)

    def to_dict(self) -> dict:
        """JSON-safe representation (see :func:`encode_snapshot`)."""
        return {
            "stage": self.stage,
            "runtime_s": self.runtime_s,
            "positions": encode_snapshot(self.positions),
            "metrics": dict(self.metrics),
            "metrics_s": self.metrics_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageReport":
        """Rebuild a report serialized with :meth:`to_dict`."""
        return cls(
            stage=data["stage"],
            runtime_s=data["runtime_s"],
            positions=decode_snapshot(data["positions"]),
            metrics=dict(data["metrics"]),
            metrics_s=data.get("metrics_s", 0.0),
        )


@dataclass
class FlowResult:
    """Everything a qGDP flow run produced."""

    topology_name: str
    engine: str
    stages: list = field(default_factory=list)

    def stage(self, name: str) -> StageReport:
        """Look a stage up by name (e.g. ``"qubit_lg"``)."""
        for report in self.stages:
            if report.stage == name:
                return report
        raise KeyError(f"no stage {name!r} in flow result")

    @property
    def final(self) -> StageReport:
        """The last completed stage."""
        if not self.stages:
            raise ValueError("flow has no stages")
        return self.stages[-1]

    def to_dict(self) -> dict:
        """JSON-safe representation of the whole flow outcome."""
        return {
            "topology_name": self.topology_name,
            "engine": self.engine,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FlowResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            topology_name=data["topology_name"],
            engine=data["engine"],
            stages=[StageReport.from_dict(s) for s in data["stages"]],
        )
