"""``repro diff``: manifest/results comparison between two runs."""

import json

import pytest

from repro.orchestration import RunDiff, diff_runs, format_diff, load_run


def _entry(key, kind="lg", status="computed", **params):
    entry = {
        "key": key,
        "kind": kind,
        "topology": params.get("topology", "grid"),
        "engine": params.get("engine"),
        "benchmark": params.get("benchmark"),
        "seed": params.get("seed"),
        "status": status,
    }
    return entry


def _run(entries, rows=None):
    return {
        "manifest": {"jobs": {"entries": entries}},
        "rows": rows,
        "path": "<memory>",
    }


def _cell_row(topology="grid", benchmark="bv-4", engine="qgdp", mean=0.5,
              **extra):
    row = {
        "topology": topology,
        "benchmark": benchmark,
        "engine": engine,
        "mean": mean,
        "samples": [mean],
    }
    row.update(extra)
    return row


def test_identical_runs_are_an_empty_diff():
    a = _run(
        [_entry("k1", status="computed"), _entry("k2", status="computed")],
        [_cell_row()],
    )
    b = _run(
        [_entry("k1", status="cached"), _entry("k2", status="cached")],
        [_cell_row()],
    )
    diff = diff_runs(a, b)
    assert diff.is_empty
    assert "identical" in format_diff(diff)


def test_recomputed_job_is_reported():
    a = _run([_entry("k1", status="computed")], [_cell_row()])
    b = _run([_entry("k1", status="computed")], [_cell_row()])
    diff = diff_runs(a, b)
    assert not diff.is_empty
    assert [e["key"] for e in diff.recomputed_jobs] == ["k1"]
    assert diff.added_jobs == [] and diff.removed_jobs == []
    assert "1 recomputed" in format_diff(diff)


def test_added_and_removed_jobs():
    a = _run([_entry("k1"), _entry("k2", kind="gp")])
    b = _run([_entry("k1", status="cached"), _entry("k3", kind="dp")])
    diff = diff_runs(a, b)
    assert [e["key"] for e in diff.added_jobs] == ["k3"]
    assert [e["key"] for e in diff.removed_jobs] == ["k2"]
    text = format_diff(diff)
    assert "+ dp grid" in text and "- gp grid" in text


def test_changed_cell_reports_fields():
    a = _run([_entry("k1", status="cached")], [_cell_row(mean=0.5)])
    b = _run([_entry("k1", status="cached")], [_cell_row(mean=0.75)])
    diff = diff_runs(a, b)
    assert diff.changed_cells == [
        {"cell": ["grid", "bv-4", "qgdp"], "fields": ["mean", "samples"]}
    ]
    assert "~ grid/bv-4/qgdp: mean, samples" in format_diff(diff)


def test_wallclock_fields_are_ignored():
    a = _run(
        [_entry("k1", status="cached")],
        [_cell_row(qubit_time_s=0.010, dp_time_s=0.5, metrics_s=0.2)],
    )
    b = _run(
        [_entry("k1", status="cached")],
        [_cell_row(qubit_time_s=0.999, dp_time_s=0.1, metrics_s=0.7)],
    )
    assert diff_runs(a, b).is_empty


def test_added_and_removed_cells():
    a = _run([_entry("k1", status="cached")], [_cell_row(benchmark="bv-4")])
    b = _run([_entry("k1", status="cached")], [_cell_row(benchmark="qaoa-4")])
    diff = diff_runs(a, b)
    assert diff.added_cells == [["grid", "qaoa-4", "qgdp"]]
    assert diff.removed_cells == [["grid", "bv-4", "qgdp"]]


def test_tables_rows_without_benchmark_diff_cleanly():
    # repro tables rows key by (topology, None, engine).
    row_a = {"topology": "grid", "engine": "qgdp", "metrics": {"crossings": 2}}
    row_b = {"topology": "grid", "engine": "qgdp", "metrics": {"crossings": 1}}
    diff = diff_runs(
        _run([_entry("k1", status="cached")], [row_a]),
        _run([_entry("k1", status="cached")], [row_b]),
    )
    assert diff.changed_cells == [
        {"cell": ["grid", None, "qgdp"], "fields": ["metrics"]}
    ]
    assert "~ grid/qgdp: metrics" in format_diff(diff)


def test_load_run_accepts_directory_and_manifest_path(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    manifest = {"run_id": "x", "jobs": {"entries": [_entry("k1")]}}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    (run_dir / "results.jsonl").write_text(json.dumps(_cell_row()) + "\n")

    from_dir = load_run(str(run_dir))
    from_file = load_run(str(run_dir / "manifest.json"))
    assert from_dir["manifest"] == manifest == from_file["manifest"]
    assert from_dir["rows"] == [_cell_row()] == from_file["rows"]


def test_load_run_without_results_file(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(
        json.dumps({"jobs": {"entries": []}})
    )
    assert load_run(str(run_dir))["rows"] is None


def test_load_run_rejects_missing_and_legacy_manifests(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_run(str(tmp_path / "nope"))
    legacy = tmp_path / "manifest.json"
    legacy.write_text(json.dumps({"jobs": {"computed": 3}}))
    with pytest.raises(ValueError, match="entries"):
        load_run(str(legacy))
    legacy.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_run(str(legacy))


def test_long_sections_are_elided():
    a = _run([])
    b = _run([_entry(f"k{i}") for i in range(25)])
    text = format_diff(diff_runs(a, b))
    assert "... and 5 more" in text


def test_empty_rundiff_dataclass():
    assert RunDiff().is_empty


def test_load_run_wraps_corrupt_results_file(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(
        json.dumps({"jobs": {"entries": []}})
    )
    (run_dir / "results.jsonl").write_text("{truncated")
    with pytest.raises(ValueError, match="cannot read results"):
        load_run(str(run_dir))
