"""End-to-end benchmark of a whole ``repro-faro`` run, one workload per process.

Run it from the repository root::

    python3 perfbench/run.py --workload planner-flat --seed 0 --seconds 30 --trace 0

A run imports the program from ``src/`` in this fresh interpreter, then
runs a fixed number of whole passes of the workload (see ``workloads.py``;
the count scales with ``--seconds`` and never with the host's speed).  A
pass is what a user's ``repro-faro run --spec`` (or ``serve --spec``) does
in a fresh process: spec validation, scenario builds, policy construction
with predictor training, harness construction, the tick loop, and the
report written to disk.  Every pass starts cold; on the batch workloads
each replays trace draws of its own.  The metrics pool all passes, and a
tick or cell that several passes repeat counts once, at its median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass and prints the per-layer metrics instead.  Either way the outputs are
checked (see :func:`check_pass`), the canonical report digest and a
machine fingerprint are printed, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Attempted operations are control ticks; a tick fails when its cell failed
a check, when the serve loop held it, or when its pass raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from probes import Cell, LoopProbe, SpanProbe  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: One BLAS thread: the workload is one process on a shared box, and a
#: fixed thread count keeps float reductions (and so the digest) the same
#: on machines with different core counts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters that time the import of the program for ``setup_s``.
IMPORT_SAMPLES = 3

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import repro, repro.api, repro.serve; print(time.perf_counter() - start)"
)

#: ``--seconds`` at which a run makes each workload's ``passes``.
REFERENCE_SECONDS = 30.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_min_per_s": "min/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "rss_peak_mb": "MB",
    "lost_utility": "utility",
    "slo_violation_rate": "ratio",
}

PER_LAYER = {
    "traces.build_s": "s",
    "forecast.train_s": "s",
    "forecast.sample_s": "s",
    "forecast.sample_calls": "count",
    "core.plan_s": "s",
    "core.plan_calls": "count",
    "core.plan_ms_p50": "ms",
    "core.nfev": "count",
    "core.post_nfev": "count",
    "core.table_cache_hit_ratio": "ratio",
    "policy.tick_s": "s",
    "policy.tick_calls": "count",
    "sim.build_s": "s",
    "sim.advance_s": "s",
    "sim.observations_s": "s",
    "sim.apply_s": "s",
    "sim.end_of_chunk_s": "s",
    "sim.collect_s": "s",
    "sim.loop_self_s": "s",
    "cluster.requests": "count",
    "cluster.vector_share": "ratio",
    "cluster.fault_chunk_cuts": "count",
    "serve.loop_self_s": "s",
    "serve.journal_s": "s",
    "serve.journal_writes": "count",
    "serve.journal_bytes": "bytes",
    "serve.sink_s": "s",
    "serve.windows": "count",
    "serve.held_ticks": "count",
    "api.self_s": "s",
    "api.report_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Span name -> per-layer metric holding its summed self time.
SELF_TIME_METRICS = {
    "traces.build": "traces.build_s",
    "forecast.train": "forecast.train_s",
    "forecast.sample": "forecast.sample_s",
    "core.plan": "core.plan_s",
    "policy.tick": "policy.tick_s",
    "sim.build": "sim.build_s",
    "sim.advance": "sim.advance_s",
    "sim.observations": "sim.observations_s",
    "sim.apply": "sim.apply_s",
    "sim.end_of_chunk": "sim.end_of_chunk_s",
    "sim.collect": "sim.collect_s",
    "sim.loop": "sim.loop_self_s",
    "serve.loop": "serve.loop_self_s",
    "serve.journal": "serve.journal_s",
    "serve.sink": "serve.sink_s",
    "api.report": "api.report_s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------- program


def import_program() -> None:
    """Import the program from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    import repro
    import repro.api
    import repro.serve  # noqa: F401

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"imported repro from {origin}, not from {SRC}")


def import_seconds() -> float:
    """Median seconds a fresh interpreter takes to import the program.

    Each sample is a child interpreter, waited for; the median drops a
    sample that a burst of load from elsewhere on the host slowed."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def pass_count(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.passes * seconds / REFERENCE_SECONDS))


def clear_caches() -> None:
    """Drop the process-wide trained predictors and utility tables: a fresh
    ``repro-faro`` process starts without both."""
    from repro.core.optimizer import DEFAULT_TABLE_CACHE
    from repro.experiments import policies

    policies._PREDICTOR_CACHE.clear()
    DEFAULT_TABLE_CACHE.clear()


def experiment_spec(spec_dict: dict):
    """The batch experiment of a workload spec (a serve spec's experiment)."""
    from repro.serve import ServeSpec

    return ServeSpec.from_dict(spec_dict).experiment


def report_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@dataclass
class Pass:
    report: object
    text: str
    wall_s: float
    held_ticks: int = 0
    windows: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def run_pass(workload: Workload, spec_dict: dict, rec: SpanRecorder | None = None) -> Pass:
    """One whole cold run of the workload's spec, with its report written."""
    from repro import api
    from repro.serve import JsonlSink, ServeSpec

    clear_caches()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="pass-") as tmp:
        work = Path(tmp)
        start = perf_counter()
        top = rec.open("api.serve" if workload.serve else "api.run") if rec else None
        if workload.serve:
            sspec = ServeSpec.from_dict(spec_dict)
            served = api.serve(
                sspec,
                journal=work / "journal",
                sinks=[JsonlSink(work / "windows.jsonl")],
            )
            report = served.report
        else:
            served = None
            report = api.run(api.ExperimentSpec.from_dict(spec_dict))
        if rec:
            rec.close(top)
        text = report_text(report)
        (work / "report.json").write_text(text)
        wall = perf_counter() - start
    if served is None:
        return Pass(report, text, wall)
    return Pass(
        report,
        text,
        wall,
        held_ticks=served.totals.held_ticks,
        windows=len(served.windows),
    )


# -------------------------------------------------------------- checks


def cell_results(report) -> list:
    """Every trial result of the report, scenario-major in spec order --
    the order the harnesses ran and were collected in."""
    return [
        result
        for per_policy in report.stats.values()
        for stats in per_policy.values()
        for result in stats.results
    ]


def check_pass(
    spec_dict: dict, cells: list[Cell], done: Pass, digest: str | None
) -> list[tuple[str, int]]:
    """Every output check one pass failed, with the ticks it fails.

    ``digest`` is the report the pass must repeat, or None when no earlier
    pass ran its spec."""
    policies = len(spec_dict["policies"])
    scenarios = spec_dict["scenarios"]
    results = cell_results(done.report)
    all_ticks = sum(len(cell.stamps) for cell in cells)
    if not len(cells) == len(results) == len(scenarios) * policies:
        return [(f"ran {len(cells)} of {len(scenarios) * policies} cells", all_ticks)]
    found = []
    for index, (cell, result) in enumerate(zip(cells, results)):
        minutes = scenarios[index // policies]["params"]["duration_minutes"]
        if cell.minutes != minutes:
            found.append((f"a cell ran {cell.minutes} of {minutes} minutes", len(cell.stamps)))
        elif len(cell.stamps) != cell.expected_ticks():
            found.append(
                (f"a cell ran {len(cell.stamps)} of {cell.expected_ticks()} ticks", len(cell.stamps))
            )
        elif not (
            math.isfinite(result.avg_lost_cluster_utility)
            and math.isfinite(result.cluster_slo_violation_rate)
        ):
            found.append(("a cell's quality metrics are not finite", len(cell.stamps)))
    if digest is not None and done.digest != digest:
        found.append(("passes of one spec gave different reports", all_ticks))
    if done.held_ticks:
        found.append((f"the serve loop held {done.held_ticks} ticks", done.held_ticks))
    return found


# ------------------------------------------------------------- measure


@dataclass
class Measurement:
    """The untraced passes of one run."""

    passes: list[Pass] = field(default_factory=list)
    pass_cells: list[list[Cell]] = field(default_factory=list)
    #: Per finished pass, the seconds of each cell's tick loop.
    pass_loops: list[list[float]] = field(default_factory=list)
    #: Per pass, the first pass that ran the same spec (itself if none did).
    pass_group: list[int] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    rss_peak_mb: float = 0.0
    error: str = ""

    @property
    def cells(self) -> list[Cell]:
        return [cell for cells in self.pass_cells for cell in cells]

    def groups(self) -> list[list[int]]:
        """The finished passes, grouped by spec: the repeats of one spec together."""
        groups: dict[int, list[int]] = {}
        for index in range(len(self.passes)):
            groups.setdefault(self.pass_group[index], []).append(index)
        return list(groups.values())

    def sim_min_per_s(self, groups: list[list[int]] | None = None) -> float:
        """Simulated minutes over loop seconds, summed over the specs run
        (or ``groups`` of them); a cell that several passes repeat counts
        once, at its median loop time."""
        minutes = loop_s = 0.0
        for group in groups or self.groups():
            minutes += sum(cell.minutes for cell in self.pass_cells[group[0]])
            repeats = zip(*(self.pass_loops[index] for index in group))
            loop_s += sum(statistics.median(cell) for cell in repeats)
        return minutes / loop_s

    def tick_seconds(self) -> list[float]:
        """Every tick's time over the specs run; a tick that several passes
        repeat counts once, at its median, so a burst of load from elsewhere
        on the host that hits one repeat does not move it."""
        ticks: list[float] = []
        for group in self.groups():
            per_pass = [
                [t for cell in self.pass_cells[index] for t in cell.tick_seconds()]
                for index in group
            ]
            ticks += [statistics.median(repeats) for repeats in zip(*per_pass)]
        return ticks


def measure(workload: Workload, specs: list[dict]) -> Measurement:
    """One cold pass per spec, each timed in its set-up and its tick loop."""
    probe = LoopProbe(specs[0]["simulator"]).install()
    out = Measurement(pass_group=[specs.index(spec_dict) for spec_dict in specs])
    try:
        for spec_dict in specs:
            setup_before = probe.setup_s
            cells_before, loops_before = len(probe.cells), len(probe.loops)
            try:
                done = run_pass(workload, spec_dict)
            except Exception:
                out.error = traceback.format_exc()
                out.pass_cells.append(probe.cells[cells_before:])
                break
            out.passes.append(done)
            out.pass_cells.append(probe.cells[cells_before:])
            out.pass_loops.append(probe.loops[loops_before:])
            out.setup_samples.append(probe.setup_s - setup_before)
        out.rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.patches.undo()
    return out


def traced_pass(workload: Workload, spec_dict: dict) -> tuple[Pass, SpanRecorder]:
    from repro.core.optimizer import DEFAULT_TABLE_CACHE

    rec = SpanRecorder()
    probe = SpanProbe(spec_dict["simulator"], rec).install()
    try:
        done = run_pass(workload, spec_dict, rec)
    finally:
        probe.patches.undo()
    rec.count("table_cache.hits", DEFAULT_TABLE_CACHE.hits)
    rec.count("table_cache.misses", DEFAULT_TABLE_CACHE.misses)
    rec.count("ticks", probe.ticks_seen)
    return done, rec


# ------------------------------------------------------------- metrics


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile of ascending values by the nearest-rank rule."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def dispatch_totals(report) -> dict[str, dict[str, int]]:
    """Request-dispatch counters per scenario, from result metadata."""
    totals: dict[str, dict[str, int]] = {}
    for scenario, per_policy in report.stats.items():
        sums = totals.setdefault(scenario, {})
        for stats in per_policy.values():
            for result in stats.results:
                for key, value in (result.metadata.get("dispatch") or {}).items():
                    sums[key] = sums.get(key, 0) + int(value)
    return totals


def vector_share(counters: dict[str, int]) -> float:
    vector = counters.get("vector_requests", 0)
    total = vector + counters.get("scalar_requests", 0)
    return vector / total if total else 0.0


def end_to_end_metrics(import_s: float, m: Measurement) -> dict[str, float]:
    ticks = sorted(m.tick_seconds())
    results = [result for done in m.passes for result in cell_results(done.report)]
    return {
        "setup_s": import_s + statistics.median(m.setup_samples),
        "wall_s": import_s + statistics.median(done.wall_s for done in m.passes),
        "sim_min_per_s": m.sim_min_per_s(),
        "tick_ms_p50": 1000.0 * nearest_rank(ticks, 0.50),
        "tick_ms_p99": 1000.0 * nearest_rank(ticks, 0.99),
        "rss_peak_mb": m.rss_peak_mb,
        "lost_utility": statistics.fmean(r.avg_lost_cluster_utility for r in results),
        "slo_violation_rate": statistics.fmean(
            r.cluster_slo_violation_rate for r in results
        ),
    }


def per_layer_metrics(done: Pass, rec: SpanRecorder, untraced: Measurement) -> dict[str, float]:
    self_times = rec.self_times()
    counts = rec.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_times.get(span_name, 0.0)
    metrics["api.self_s"] = self_times.get("api.run", 0.0) + self_times.get("api.serve", 0.0)
    plans = rec.durations("core.plan")
    for key in ("core.plan_calls", "core.nfev", "core.post_nfev", "policy.tick_calls"):
        metrics[key] = counts.get(key, 0)
    metrics["core.plan_ms_p50"] = 1000.0 * statistics.median(plans) if plans else 0.0
    lookups = counts["table_cache.hits"] + counts["table_cache.misses"]
    metrics["core.table_cache_hit_ratio"] = (
        counts["table_cache.hits"] / lookups if lookups else 0.0
    )
    metrics["forecast.sample_calls"] = len(rec.durations("forecast.sample"))
    dispatch: dict[str, int] = {}
    for counters in dispatch_totals(done.report).values():
        for key, value in counters.items():
            dispatch[key] = dispatch.get(key, 0) + value
    metrics["cluster.requests"] = dispatch.get("vector_requests", 0) + dispatch.get(
        "scalar_requests", 0
    )
    metrics["cluster.vector_share"] = vector_share(dispatch)
    metrics["cluster.fault_chunk_cuts"] = dispatch.get("fault_chunk_cuts", 0)
    metrics["serve.journal_writes"] = counts.get("serve.journal_writes", 0)
    metrics["serve.journal_bytes"] = counts.get("serve.journal_bytes", 0)
    metrics["serve.windows"] = done.windows
    metrics["serve.held_ticks"] = done.held_ticks
    metrics["trace.unattributed_s"] = done.wall_s - sum(self_times.values())
    loop_s = sum(rec.durations("sim.loop")) + sum(rec.durations("serve.loop"))
    # The traced pass replays the spec of the first untraced pass.
    first = untraced.groups()[:1]
    metrics["trace.overhead_ratio"] = (counts["sim.minutes"] / loop_s) / untraced.sim_min_per_s(first)
    return metrics


def traffic_shares(done: Pass, rec: SpanRecorder) -> dict[str, object]:
    """Traffic properties of the workload, printed beside the per-layer
    metrics: the planner's and the journal's share of the tick loop, the
    training share of set-up, and the vector-dispatch share per scenario."""
    loop_s = sum(rec.durations("sim.loop")) + sum(rec.durations("serve.loop"))
    setup_s = sum(
        sum(rec.durations(name)) for name in ("traces.build", "forecast.train", "sim.build")
    )
    return {
        "planner_share_of_loop": sum(rec.durations("core.plan")) / loop_s,
        "journal_share_of_loop": rec.self_times().get("serve.journal", 0.0) / loop_s,
        "train_share_of_setup": sum(rec.durations("forecast.train")) / setup_s,
        "vector_share_by_scenario": {
            scenario: round(vector_share(counters), 4)
            for scenario, counters in dispatch_totals(done.report).items()
            if counters
        },
    }


def cpu_steal_s() -> float | None:
    """Seconds the hypervisor ran other guests on this machine's CPUs since
    boot (Linux ``/proc/stat``), or None where that is not available."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_ms() -> float:
    """Median time of a fixed kernel (a Python loop and small matrix
    products), taken at the start of a run, before the program runs."""
    import numpy as np

    def kernel() -> float:
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        matrix = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000.0
        for _ in range(20):
            matrix = matrix @ matrix / 200.0
        return perf_counter() - start

    return round(1000.0 * statistics.median(kernel() for _ in range(5)), 3)


def fingerprint(steal_at_start: float | None, calibration: float) -> dict[str, object]:
    """Machine context recorded with every result (never a metric).

    ``steal_s`` is CPU time the hypervisor took from this machine during
    the run: a run with much of it was measured on a contended host."""
    import numpy as np
    import scipy

    steal_now = cpu_steal_s()
    steal = None if None in (steal_now, steal_at_start) else steal_now - steal_at_start
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "calibration_ms": calibration,
        "steal_s": None if steal is None else round(steal, 2),
    }


# ---------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    steal_at_start = cpu_steal_s()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    workload = WORKLOADS[args.workload]
    specs = [workload.spec(args.seed, index) for index in range(pass_count(workload, args.seconds))]
    import_program()
    calibration = calibration_ms()
    import_s = import_seconds()

    m = measure(workload, specs)
    attempted = sum(len(cell.stamps) for cell in m.cells)
    failed = 0
    problems: list[str] = []
    if m.error:
        print(m.error, file=sys.stderr)
        problems.append("a pass raised")
        failed = attempted
    for index, (done, cells) in enumerate(zip(m.passes, m.pass_cells)):
        earlier = m.pass_group[index]
        repeats = m.passes[earlier].digest if earlier < index else None
        found = check_pass(specs[index], cells, done, repeats)
        problems += [problem for problem, _ in found]
        failed += min(sum(ticks for _, ticks in found), sum(len(c.stamps) for c in cells))

    # One digest for the run: its passes' reports, in order.
    digest = hashlib.sha256("".join(done.digest for done in m.passes).encode()).hexdigest()
    layer: dict[str, float] = {}
    shares: dict[str, object] = {}
    if m.passes and args.trace:
        pass_ticks = sum(len(cell.stamps) for cell in m.pass_cells[0])
        attempted += pass_ticks
        try:
            done, rec = traced_pass(workload, specs[0])
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            problems.append("the traced pass raised")
            failed += pass_ticks
        else:
            if done.digest != m.passes[0].digest or rec.counts["ticks"] != pass_ticks:
                problems.append("the traced pass ran differently from the untraced one")
                failed += pass_ticks
            layer = per_layer_metrics(done, rec, m)
            shares = traffic_shares(done, rec)
            rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    if m.passes and workload.serve:
        # Serving a finite replay must merge to the batch report, byte for
        # byte; the batch reference runs outside every timed region.
        from repro import api

        reference = report_text(api.run(experiment_spec(specs[0])))
        if reference != m.passes[0].text:
            problems.append("the serve report differs from batch api.run")
            failed = attempted

    correct = not problems
    if args.trace:
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    elif problems:
        metrics = {}
    else:
        values = end_to_end_metrics(import_s, m)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        f"perfbench workload={args.workload} seed={args.seed} passes={len(m.passes)} "
        f"ticks={attempted} failed={failed} trace={args.trace}"
    )
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6f} {entry['unit']}")
    if shares:
        print("traffic " + json.dumps(shares, sort_keys=True))
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}")
    print(f"digest sha256:{digest}")
    print("fingerprint " + json.dumps(fingerprint(steal_at_start, calibration), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
