"""The benchmark's own tests.  From the repository root:

    python3 -m pytest perfbench/selftest.py -q

Each case runs ``run.py`` in a fresh interpreter on a real workload, as a
measured run does, with ``--seconds 0`` (one pass).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DELAY_S = 0.001

#: Runs the benchmark with a sleep wrapped around one layer, the flow
#: backend's ``advance``, before the benchmark installs its own probes.
INJECTED = f"""
import sys, time
sys.path[:0] = ["src", "perfbench"]
from repro.sim.analytic import FlowSimulation
original = FlowSimulation.advance
def slow_advance(self, *args):
    time.sleep({DELAY_S})
    return original(self, *args)
FlowSimulation.advance = slow_advance
import run
sys.exit(run.main(sys.argv[1:]))
"""


def bench(workload: str, seed: int, trace: int = 0, inject: bool = False):
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace),
    ]
    head = ["-c", INJECTED] if inject else [str(HERE / "run.py")]
    proc = subprocess.run(
        [sys.executable, *head, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    digest = next(line for line in lines if line.startswith("digest sha256:"))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result, digest, metrics


@pytest.mark.parametrize("workload", ["serve-journal", "request-oversub"])
def test_same_seed_same_digest_and_quality(workload):
    _, digest_a, a = bench(workload, seed=3)
    _, digest_b, b = bench(workload, seed=3)
    assert digest_a == digest_b
    assert a["lost_utility"] == b["lost_utility"]
    assert a["slo_violation_rate"] == b["slo_violation_rate"]


def test_different_seed_changes_digest_and_quality():
    _, digest_a, a = bench("serve-journal", seed=3)
    _, digest_b, b = bench("serve-journal", seed=4)
    assert digest_a != digest_b
    # The spec (and so the digest) holds the seed; the quality metrics show
    # that the seed also reached the traces and trials.
    assert a["lost_utility"] != b["lost_utility"]
    assert a["slo_violation_rate"] != b["slo_violation_rate"]


def test_injected_sleep_shows_in_its_layer_and_end_to_end():
    base_result, _, base = bench("serve-journal", seed=5)
    slow_result, _, slow = bench("serve-journal", seed=5, inject=True)
    ticks = base_result["attempted"]
    spec = WORKLOADS["serve-journal"].spec(5, 0)
    minutes = len(spec["policies"]) * sum(
        scenario["params"]["duration_minutes"] for scenario in spec["scenarios"]
    )
    extra_loop_s = minutes / slow["sim_min_per_s"] - minutes / base["sim_min_per_s"]
    assert extra_loop_s >= 0.8 * ticks * DELAY_S
    assert slow["tick_ms_p50"] - base["tick_ms_p50"] >= 0.8 * 1000 * DELAY_S

    _, _, base_layers = bench("serve-journal", seed=5, trace=1)
    _, _, slow_layers = bench("serve-journal", seed=5, trace=1, inject=True)
    extra_advance_s = slow_layers["sim.advance_s"] - base_layers["sim.advance_s"]
    assert extra_advance_s >= 0.8 * ticks * DELAY_S
    # The sleep is attributed to sim.advance, not to the layers around it.
    for name in ("sim.observations_s", "serve.loop_self_s", "policy.tick_s"):
        assert slow_layers[name] - base_layers[name] < 0.2 * ticks * DELAY_S, name


def test_span_self_time_excludes_children():
    rec = SpanRecorder()
    outer = rec.open("outer")
    time.sleep(0.01)
    inner = rec.open("inner")
    time.sleep(0.02)
    rec.close(inner)
    rec.close(outer)
    self_times = rec.self_times()
    outer_s = rec.durations("outer")[0]
    assert self_times["inner"] == pytest.approx(rec.durations("inner")[0])
    assert self_times["outer"] == pytest.approx(outer_s - self_times["inner"])
    assert rec.spans[inner][3] == outer


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planner-flat",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
