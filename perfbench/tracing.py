"""Outside-in layer tracing: spans and counts recorded around each layer's
public entry point, without touching the program's source.

Modules import functions by name (``from repro.metrics.report import
layout_metrics``), so a layer is wrapped at every name a caller actually
looks up: ``repro.core.pipeline.layout_metrics`` and
``repro.orchestration.stages.layout_metrics`` are two hooks on one layer.
Class methods are wrapped once on the class.  :meth:`Tracer.installed`
swaps the wrappers in and always restores the originals.

Layer times come from these spans only.  ``StageReport.runtime_s`` and
the payload ``*_time_s`` fields are not used: the LG and DP stage times
include the ``layout_metrics`` call that follows each stage.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

JOB_KINDS = ("gp", "lg", "dp", "analyze", "transpile", "fidelity")


def _count_attempts(tracer, result, args):
    tracer.count("legalization.qubit.attempts", result.attempts)


def _count_put_bytes(tracer, result, args):
    tracer.count("orchestration.store.put.bytes", len(args[3]))


def _count_dp(tracer, summary, args):
    tracer.count("detailed.flagged", summary.flagged)
    tracer.count("detailed.accepted", summary.accepted)
    tracer.count("detailed.reverted", summary.reverted)


# (module, attribute, spans opened outermost first, hook).  An attribute
# "A.b" is method b of class A; "_RUNNERS[k]" is a dict entry.  A hook is
# called as hook(tracer, result, args) after the call returns.
HOOKS = [
    ("repro.core.pipeline", "build_layout", ("placement.build",), None),
    (
        "repro.orchestration.stages",
        "build_layout",
        ("orchestration.rebuild", "placement.build"),
        None,
    ),
    ("repro.placement.global_placer", "GlobalPlacer.run", ("placement.gp",), None),
    (
        "repro.legalization.engines",
        "legalize_qubits",
        ("legalization.qubit",),
        _count_attempts,
    ),
    *[
        ("repro.legalization.engines", name, ("legalization.resonator",), None)
        for name in (
            "integration_aware_legalize",
            "abacus_legalize",
            "tetris_legalize",
        )
    ],
    ("repro.detailed.placer", "DetailedPlacer.run", ("detailed",), _count_dp),
    ("repro.core.pipeline", "layout_metrics", ("metrics.layout",), None),
    ("repro.orchestration.stages", "layout_metrics", ("metrics.layout",), None),
    ("repro.metrics.report", "check_legality", ("metrics.legality",), None),
    *[
        (module, "qubit_spacing_violations", ("metrics.spacing",), None)
        for module in (
            "repro.metrics.report",
            "repro.orchestration.stages",
            "repro.crosstalk.fidelity",
        )
    ],
    ("repro.metrics.report", "integration_ratio", ("metrics.integration",), None),
    ("repro.metrics.report", "total_clusters", ("metrics.integration",), None),
    ("repro.metrics.report", "hotspot_report", ("frequency.hotspots",), None),
    ("repro.orchestration.stages", "hotspot_pairs", ("frequency.hotspots",), None),
    ("repro.crosstalk.fidelity", "hotspot_pairs", ("frequency.hotspots",), None),
    ("repro.metrics.report", "count_crossings", ("routing.crossings",), None),
    ("repro.orchestration.stages", "count_crossings", ("routing.crossings",), None),
    ("repro.orchestration.stages", "transpile", ("compiler.transpile",), None),
    (
        "repro.orchestration.stages",
        "program_fidelity",
        ("crosstalk.fidelity",),
        None,
    ),
    *[
        (
            "repro.orchestration.stages",
            f"_RUNNERS[{kind}]",
            (f"orchestration.job.{kind}",),
            None,
        )
        for kind in JOB_KINDS
    ],
    ("repro.orchestration.sweep", "run_jobs", ("orchestration.run_jobs",), None),
    (
        "repro.orchestration.store",
        "ArtifactStore.put",
        ("orchestration.store.put",),
        None,
    ),
    # Canonical JSON text is ASCII, so its length is the bytes written.
    (
        "repro.orchestration.backends",
        "DirBackend.put_text",
        (),
        _count_put_bytes,
    ),
]

#: Spans whose summed duration and call count are per-layer metrics.
TIMED_LAYERS = (
    "placement.build",
    "placement.gp",
    "legalization.qubit",
    "legalization.resonator",
    "metrics.layout",
    "compiler.transpile",
    "crosstalk.fidelity",
    *[f"orchestration.job.{kind}" for kind in JOB_KINDS],
    "orchestration.rebuild",
    "orchestration.store.put",
)

#: Spans reported by time only.
TIME_ONLY_LAYERS = (
    "detailed",
    "metrics.legality",
    "metrics.spacing",
    "metrics.integration",
    "frequency.hotspots",
    "routing.crossings",
)


class _Slot:
    """One patchable name: a module/class attribute or a dict entry."""

    def __init__(self, module: str, attribute: str) -> None:
        owner = importlib.import_module(module)
        if attribute.endswith("]"):
            name, key = attribute[:-1].split("[")
            self.container, self.key = getattr(owner, name), key
            self.is_item = True
        else:
            *path, self.key = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.container, self.is_item = owner, False
        self.original = self.get()

    def get(self):
        if self.is_item:
            return self.container[self.key]
        return self.container.__dict__[self.key]

    def set(self, value) -> None:
        if self.is_item:
            self.container[self.key] = value
        else:
            setattr(self.container, self.key, value)


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` plus integer counts."""

    def __init__(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, original, names, hook):
        tracer = self

        def traced(*args, **kwargs):
            records = [tracer._open(name) for name in names]
            try:
                result = original(*args, **kwargs)
            finally:
                for record in reversed(records):
                    tracer._close(record)
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block, then restore."""
        slots = []
        try:
            for module, attribute, names, hook in HOOKS:
                try:
                    slot = _Slot(module, attribute)
                except (AttributeError, KeyError, ImportError):
                    print(
                        f"trace: {module}.{attribute} not found; "
                        "it is not hooked",
                        file=sys.stderr,
                    )
                    continue
                slot.set(self._wrap(slot.original, names, hook))
                slots.append(slot)
            yield self
        finally:
            for slot in reversed(slots):
                slot.set(slot.original)

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> list:
        """Per span: duration minus the part of it its children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _pname, pstart, pend, _pp = self.spans[parent]
                covered[parent] += max(0.0, min(end, pend) - max(start, pstart))
        return [
            (end - start) - covered[i]
            for i, (_name, start, end, _parent) in enumerate(self.spans)
        ]

    def by_name(self) -> dict:
        """``name -> {"calls", "s", "self_s"}`` over all spans."""
        table = {}
        for (name, start, end, _parent), self_s in zip(
            self.spans, self.self_times()
        ):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += self_s
        return table

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced iteration (name -> value)."""
        table = self.by_name()

        def total(name):
            return table.get(name, {}).get("s", 0.0)

        out = {}
        for name in TIMED_LAYERS:
            out[f"{name}.s"] = total(name)
            out[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
        for name in TIME_ONLY_LAYERS:
            out[f"{name}.s"] = total(name)
        out["legalization.qubit.attempts"] = self.counts.get(
            "legalization.qubit.attempts", 0
        )
        flagged = self.counts.get("detailed.flagged", 0)
        accepted = self.counts.get("detailed.accepted", 0)
        out["detailed.flagged"] = flagged
        out["detailed.accepted"] = accepted
        out["detailed.reverted"] = self.counts.get("detailed.reverted", 0)
        out["detailed.accept_ratio"] = accepted / flagged if flagged else 0.0
        out["orchestration.store.put.bytes"] = self.counts.get(
            "orchestration.store.put.bytes", 0
        )
        # Executor overhead of the cold pass only: the resume pass runs no
        # job, so its whole run_jobs time is reported as resume time.
        cold_run_jobs = sum(
            end - start
            for i, (name, start, end, _p) in enumerate(self.spans)
            if name == "orchestration.run_jobs"
            and self._under(i, "orchestration.cold")
        )
        runner_s = sum(total(f"orchestration.job.{kind}") for kind in JOB_KINDS)
        out["orchestration.overhead.s"] = (
            cold_run_jobs - runner_s if cold_run_jobs else 0.0
        )
        out["orchestration.resume.s"] = total("orchestration.resume")
        out["orchestration.resume.cached_ratio"] = self.counts.get(
            "orchestration.resume.cached_ratio", 0.0
        )
        return out

    def tree(self) -> list:
        """JSON-ready span list with self times (start relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "self_s": self_s,
            }
            for (name, start, end, parent), self_s in zip(
                self.spans, self.self_times()
            )
        ]
