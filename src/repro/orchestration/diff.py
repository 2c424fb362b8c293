"""Incremental-sweep UX: diff two run manifests.

``repro sweep`` and ``repro tables`` write a manifest whose ``jobs.entries``
ledger lists every job of the run (content key, kind, identifying params,
computed-vs-cached status) next to a ``results.jsonl`` of result rows.
:func:`diff_runs` compares two such runs and reports

* **added / removed jobs** — content keys present in one run only (a
  spec change upstream re-keys every downstream job, so this is exactly
  "what work does the new spec imply");
* **recomputed jobs** — keys present in both runs that the second run
  computed instead of taking from the cache (an incremental rerun of an
  unchanged spec should recompute nothing);
* **added / removed / changed cells** — result rows keyed by
  (topology, benchmark, engine), compared field-by-field with wall-clock
  timings ignored (timings are measurements, not results).

Two runs of the same spec against a shared cache therefore produce an
empty diff, and any non-empty report pinpoints what changed between two
experiments — the manifest-level answer to "is this rerun the same
experiment, and if not, where does it differ?".
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.orchestration.sink import read_jsonl

#: Wall-clock fields ignored when comparing result rows: they vary run to
#: run whenever a stage is actually recomputed, but are not results.
WALLCLOCK_FIELDS = frozenset(
    {
        "runtime_s",
        "metrics_s",
        "qubit_time_s",
        "resonator_time_s",
        "dp_time_s",
        "wall_s",
    }
)

#: How many rows a formatted section lists before eliding the rest.
_MAX_LISTED = 20


def load_run(path: str) -> dict:
    """Load one run for diffing from a run directory or manifest path.

    ``path`` may be the run directory (``.repro_cache/runs/<run_id>/``)
    or its ``manifest.json`` directly.  Returns ``{"manifest", "rows",
    "path"}``; ``rows`` is the parsed ``results.jsonl`` next to the
    manifest, or ``None`` when the run wrote no results file.  Raises
    :class:`ValueError` for unreadable manifests or manifests written
    before the per-job ledger existed.
    """
    manifest_path = path
    if os.path.isdir(path):
        manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read manifest {manifest_path!r}: {exc}")
    except ValueError:
        raise ValueError(f"{manifest_path!r} is not valid JSON")
    entries = manifest.get("jobs", {}).get("entries")
    if entries is None:
        raise ValueError(
            f"{manifest_path!r} has no jobs.entries ledger (written by an "
            "older version?); re-run the sweep to get a diffable manifest"
        )
    rows = None
    results_path = os.path.join(os.path.dirname(manifest_path), "results.jsonl")
    if os.path.exists(results_path):
        try:
            rows = read_jsonl(results_path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read results {results_path!r}: {exc}")
    return {"manifest": manifest, "rows": rows, "path": manifest_path}


@dataclass
class RunDiff:
    """What changed between two runs (see :func:`diff_runs`)."""

    added_jobs: list = field(default_factory=list)
    removed_jobs: list = field(default_factory=list)
    recomputed_jobs: list = field(default_factory=list)
    added_cells: list = field(default_factory=list)
    removed_cells: list = field(default_factory=list)
    changed_cells: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the two runs are the same experiment with the same
        results and the second run reused every shared artifact."""
        return not (
            self.added_jobs
            or self.removed_jobs
            or self.recomputed_jobs
            or self.added_cells
            or self.removed_cells
            or self.changed_cells
        )


def _cell_key(row: dict) -> tuple:
    return (row.get("topology"), row.get("benchmark"), row.get("engine"))


def _comparable(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in WALLCLOCK_FIELDS}


def diff_runs(run_a: dict, run_b: dict) -> RunDiff:
    """Compare two loaded runs (see :func:`load_run`); A is the baseline.

    Job-level comparison is by content key, so it is exact: two jobs
    share a key iff they have the same kind, params and (transitively)
    upstream parameters.  Cell-level comparison keys result rows by
    (topology, benchmark, engine) and ignores :data:`WALLCLOCK_FIELDS`.
    """
    jobs_a = {e["key"]: e for e in run_a["manifest"]["jobs"]["entries"]}
    jobs_b = {e["key"]: e for e in run_b["manifest"]["jobs"]["entries"]}
    diff = RunDiff(
        added_jobs=[jobs_b[k] for k in jobs_b if k not in jobs_a],
        removed_jobs=[jobs_a[k] for k in jobs_a if k not in jobs_b],
        recomputed_jobs=[
            jobs_b[k]
            for k in jobs_b
            if k in jobs_a and jobs_b[k]["status"] == "computed"
        ],
    )

    rows_a = {_cell_key(r): r for r in (run_a["rows"] or [])}
    rows_b = {_cell_key(r): r for r in (run_b["rows"] or [])}
    diff.added_cells = [list(k) for k in rows_b if k not in rows_a]
    diff.removed_cells = [list(k) for k in rows_a if k not in rows_b]
    for key in rows_a:
        if key not in rows_b:
            continue
        a, b = _comparable(rows_a[key]), _comparable(rows_b[key])
        fields = sorted(
            name
            for name in set(a) | set(b)
            if a.get(name) != b.get(name)
        )
        if fields:
            diff.changed_cells.append({"cell": list(key), "fields": fields})
    return diff


def _describe_job(entry: dict) -> str:
    parts = [entry["kind"]]
    for name in ("topology", "engine", "benchmark"):
        if entry.get(name):
            parts.append(str(entry[name]))
    if entry.get("seed") is not None:
        parts.append(f"seed={entry['seed']}")
    return f"{' '.join(parts)} ({entry['key'][:12]})"


def _describe_cell(key: list) -> str:
    return "/".join(str(part) for part in key if part is not None)


def _section(
    lines: list, title: str, rows: list, render: Callable
) -> None:
    if not rows:
        return
    lines.append(f"{title} ({len(rows)}):")
    for row in rows[:_MAX_LISTED]:
        lines.append(f"  {render(row)}")
    if len(rows) > _MAX_LISTED:
        lines.append(f"  ... and {len(rows) - _MAX_LISTED} more")


def format_diff(diff: RunDiff) -> str:
    """Human-readable report of a :class:`RunDiff` (empty diff included)."""
    if diff.is_empty:
        return "runs are identical: same jobs, nothing recomputed, same cells"
    lines = [
        f"jobs: +{len(diff.added_jobs)} added, "
        f"-{len(diff.removed_jobs)} removed, "
        f"{len(diff.recomputed_jobs)} recomputed; "
        f"cells: +{len(diff.added_cells)} added, "
        f"-{len(diff.removed_cells)} removed, "
        f"{len(diff.changed_cells)} changed"
    ]
    _section(lines, "added jobs", diff.added_jobs, lambda e: f"+ {_describe_job(e)}")
    _section(
        lines, "removed jobs", diff.removed_jobs, lambda e: f"- {_describe_job(e)}"
    )
    _section(
        lines,
        "recomputed jobs",
        diff.recomputed_jobs,
        lambda e: f"* {_describe_job(e)}",
    )
    _section(
        lines, "added cells", diff.added_cells, lambda k: f"+ {_describe_cell(k)}"
    )
    _section(
        lines,
        "removed cells",
        diff.removed_cells,
        lambda k: f"- {_describe_cell(k)}",
    )
    _section(
        lines,
        "changed cells",
        diff.changed_cells,
        lambda c: f"~ {_describe_cell(c['cell'])}: {', '.join(c['fields'])}",
    )
    return "\n".join(lines)
