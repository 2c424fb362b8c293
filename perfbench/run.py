"""Repository benchmark: end-to-end time, memory and layout quality of the
qGDP reproduction, with an outside-in per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload flow-side24 --seed 2025 --seconds 25 --trace 0

``--trace 0`` times whole workload iterations with tracing off and prints
the end-to-end metrics; ``--trace 1`` runs untraced and traced iterations,
prints the per-layer metrics (including the tracing overhead) and writes
the span tree to ``.perfbench/trace-<workload>-seed<n>.json``.  Every
iteration's final layouts go through an independent oracle, must repeat
the first iteration's outputs exactly, and at the default seed must match
``perfbench/expected.json`` (and, for the sweep, the golden baselines in
``tests/golden/baselines``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; any failed flow, job or
check makes the exit code nonzero.

``--write-expected`` runs one iteration at the default seed and records
its digests and quality numbers in ``perfbench/expected.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import oracle
    from tracing import Tracer
    from workloads import WORKLOAD_NAMES, is_quantum, make_workload
    from repro.evaluation.fingerprint import positions_digest
except ImportError as exc:  # the program is not in this checkout
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

#: The seed whose outputs the expected file and golden baselines pin.
DEFAULT_SEED = 2025
#: Fewest timed iterations per run, however long they take.
MIN_ITERATIONS = 3
#: Set-up samples per run (this process plus fresh interpreters).
SETUP_SAMPLES = 3

# Per-layer metrics that count work: they must repeat exactly between
# traced iterations at one seed.  Store bytes are excluded because the
# payloads carry wall-clock floats whose printed length varies.
_NOT_EXACT = {"orchestration.store.put.bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true")
    return parser.parse_args(argv)


class Verifier:
    """Checks every iteration's outputs; keeps the first one's record."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.first = None  # label -> digest of the first iteration
        self.record = None  # label -> digest + raw quality (first iteration)
        self.oracle_qubits = {}

    def check(self, out) -> list:
        problems = []
        digests = {}
        config = self.workload.config
        for lay in self.workload.layouts(out):
            report = oracle.check_layout(
                lay.positions,
                lay.cols,
                lay.rows,
                config.lb,
                config.qubit_size,
                config.min_qubit_spacing,
                is_quantum(lay.engine),
            )
            problems += [f"{lay.label}: {p}" for p in report.problems]
            if report.spacing_pairs != lay.program_spacing:
                problems.append(
                    f"{lay.label}: oracle finds {report.spacing_pairs} spacing "
                    f"violations, the program reports {lay.program_spacing}"
                )
            digests[lay.label] = positions_digest(lay.positions)
            self.oracle_qubits[lay.label] = (report.spacing_qubits, report.num_qubits)
        extra = self.workload.extra(out)
        digests.update(extra)
        problems += self.workload.checks(out)
        if self.first is None:
            self.first = digests
            quality = self.workload.quality(out)
            self.record = {
                label: {"positions_sha256": digests[label], **quality[label]}
                for label in quality
            }
            self.record.update(extra)
            if self.seed == DEFAULT_SEED:
                problems += self.workload.golden_checks(digests, ROOT)
                problems += self._expected_problems()
        elif digests != self.first:
            changed = sorted(k for k in digests if digests[k] != self.first.get(k))
            problems.append(f"outputs changed between iterations: {changed[:5]}")
        return problems

    def _expected_problems(self) -> list:
        try:
            with open(EXPECTED, encoding="utf-8") as fh:
                want = json.load(fh)[self.workload.name]
        except (OSError, KeyError) as exc:
            return [f"no expected outputs for {self.workload.name}: {exc}"]
        if want == self.record:
            return []
        diffs = []
        for label in sorted(set(want) | set(self.record)):
            if want.get(label) != self.record.get(label):
                diffs.append(f"{label}: expected {want.get(label)}, got {self.record.get(label)}")
        return diffs

    def quality_metrics(self) -> dict:
        rows = [v for v in self.record.values() if isinstance(v, dict)]
        resonators = sum(r["total_resonators"] for r in rows)
        spacing_qubits = sum(q for q, _n in self.oracle_qubits.values())
        qubits = sum(n for _q, n in self.oracle_qubits.values())
        return {
            "unified_ratio": sum(r["unified"] for r in rows) / resonators,
            "crossing_free_ratio": sum(r["crossing_free"] for r in rows) / resonators,
            "spacing_ok_ratio": 1.0 - spacing_qubits / qubits,
            "hotspot_free_ratio": 1.0 - sum(r["hq"] for r in rows) / qubits,
        }

    def raw_quality(self) -> dict:
        rows = [v for v in self.record.values() if isinstance(v, dict)]
        raw = {
            "crossings": sum(r["crossings"] for r in rows),
            "spacing_violations": sum(r["spacing_violations"] for r in rows),
            "ph_percent_mean": sum(r["ph_percent"] for r in rows) / len(rows),
        }
        if "fidelity_mean" in self.record:
            raw["fidelity_mean"] = self.record["fidelity_mean"]
        return raw


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter doing this run's set-up."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import the program under {ROOT}/src: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    workload = make_workload(args.workload, args.seed, SCRATCH)
    workload.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(SCRATCH, exist_ok=True)
    verifier = Verifier(workload, args.seed)
    attempted = failed = 0
    errors = []
    walls = {"untraced": [], "traced": []}
    layer_runs = []  # per traced iteration: name -> value
    last_tracer = None

    def iterate(traced: bool) -> bool:
        """One timed iteration plus its checks; False if the program raised."""
        nonlocal attempted, failed, last_tracer
        tracer = Tracer() if traced else None
        gc.collect()
        attempted += workload.units()
        try:
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span("iteration"):
                        out = workload.run(tracer)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = workload.run()
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed flow or job ends the run
            failed += workload.units()
            errors.append(f"{type(exc).__name__}: {exc}")
            return False
        try:
            problems = verifier.check(out)
        finally:
            workload.cleanup(out)
        walls["traced" if traced else "untraced"].append(wall)
        if traced:
            layer_runs.append(tracer.layer_metrics())
            last_tracer = tracer
            problems += [
                f"{name} differs between traced iterations: "
                f"{layer_runs[0][name]} vs {layer_runs[-1][name]}"
                for name in layer_runs[0]
                if not name.endswith(".s")
                and name not in _NOT_EXACT
                and layer_runs[0][name] != layer_runs[-1][name]
            ]
        failed += len(problems)
        errors.extend(problems)
        return True

    if args.write_expected:
        if args.seed != DEFAULT_SEED:
            print("perfbench: --write-expected needs the default seed", file=sys.stderr)
            return 2
        verifier.seed = None  # record, do not compare
        if not iterate(False) or errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        try:
            with open(EXPECTED, encoding="utf-8") as fh:
                expected = json.load(fh)
        except OSError:
            expected = {}
        expected[args.workload] = verifier.record
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.workload} to {EXPECTED}")
        return 0

    # Traced runs order iterations untraced, traced, traced, untraced, ...
    # so drift over the run cancels out of the tracing overhead.  Another
    # iteration starts while its expected end is within half an iteration
    # of the budget.
    t_loop = time.perf_counter()
    done = 0
    while iterate(bool(args.trace) and done % 4 in (1, 2)):
        done += 1
        elapsed = time.perf_counter() - t_loop
        if done >= MIN_ITERATIONS and elapsed + 0.5 * elapsed / done > args.seconds:
            break

    metrics = {}
    if args.trace and walls["traced"]:
        metrics.update(trace_metrics(args, walls, layer_runs, last_tracer))
    elif not args.trace and walls["untraced"]:
        samples = [setup_s]
        try:
            samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            errors.append(str(exc))
            failed += 1
        metrics["wall_s"] = statistics.median(walls["untraced"])
        metrics["setup_s"] = statistics.median(samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics.update(verifier.quality_metrics())
        metrics["ok_ratio"] = 1.0 - min(failed, attempted) / attempted
        for name, value in verifier.raw_quality().items():
            print(f"  info {name} = {value}")
        print(f"  info walls = {[round(w, 3) for w in walls['untraced']]}")

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        errors.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
        failed += 1
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def trace_metrics(args, walls, layer_runs, tracer) -> dict:
    """Per-layer metrics (median times, first-run counts); writes the tree."""
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        metrics[name] = statistics.median(values) if name.endswith(".s") else values[0]
    metrics["trace.overhead.s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["untraced"]
    )
    table = tracer.by_name()
    path = os.path.join(SCRATCH, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "walls": walls,
                "layers": table,
                "counts": tracer.counts,
                "spans": tracer.tree(),
            },
            fh,
        )
    print(f"span tree of the last traced iteration: {os.path.relpath(path, ROOT)}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:34s} calls {row['calls']:6d}  s {row['s']:9.4f}  self {row['self_s']:9.4f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
