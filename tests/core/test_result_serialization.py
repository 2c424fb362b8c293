"""FlowResult / StageReport / snapshot serialization round trips."""

import json

import pytest

from repro.core.config import QGDPConfig
from repro.core.pipeline import run_flow
from repro.core.result import (
    FlowResult,
    StageReport,
    decode_snapshot,
    encode_snapshot,
)


def test_snapshot_roundtrip_is_exact():
    positions = {
        ("q", 0): (0.1 + 0.2, 1.0 / 3.0),
        ("q", 7): (-2.5, 1e-17),
        ("b", (0, 7), 0): (3.5, 4.5),
        ("b", (0, 7), 11): (7.000000000000001, 8.5),
    }
    rows = encode_snapshot(positions)
    # Through actual JSON text, as the artifact store does.
    rows = json.loads(json.dumps(rows))
    assert decode_snapshot(rows) == positions  # bit-exact floats, same keys


def test_snapshot_rejects_unknown_ids():
    with pytest.raises(ValueError):
        encode_snapshot({("z", 1): (0.0, 0.0)})
    with pytest.raises(ValueError):
        decode_snapshot([["z", 1, 0.0, 0.0]])


def test_stage_report_roundtrip():
    report = StageReport(
        stage="lg",
        runtime_s=0.25,
        positions={("q", 0): (1.5, 2.5), ("b", (0, 1), 2): (3.5, 4.5)},
        metrics={"iedge": "37/40", "crossings": 3, "ph_percent": 0.125},
        metrics_s=0.5,
    )
    back = StageReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert back == report


def test_stage_report_without_metrics_time_defaults_to_zero():
    data = StageReport("gp", 0.25, metrics={"hpwl": 1.0}).to_dict()
    del data["metrics_s"]
    assert StageReport.from_dict(data).metrics_s == 0.0


def test_flow_result_roundtrip_from_real_flow():
    _, result = run_flow(
        "grid", engine="qgdp", detailed=False,
        config=QGDPConfig(gp_iterations=30),
    )
    back = FlowResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert back.topology_name == result.topology_name
    assert back.engine == result.engine
    assert [s.stage for s in back.stages] == [s.stage for s in result.stages]
    for mine, theirs in zip(back.stages, result.stages):
        assert mine.positions == theirs.positions  # exact layout round trip
        assert mine.metrics == theirs.metrics
    assert back.final.metric("legality_violations") == 0
    assert back.stage("gp").positions == result.stage("gp").positions
