"""The benchmark's workloads: experiment specs built from a seed.

Every workload is a closed loop: one replay on the virtual clock,
where the next control tick starts when the previous one ends.  The seed
goes to each scenario's ``seed`` parameter and to ``ExperimentSpec.seed``,
so the same seed always gives the same traces, trial seeds and report.

A run makes several passes.  On the batch workloads each pass replays
trace draws of its own: one draw's request load, planner cost and
quality vary more from seed to seed than the host's speed does over a
pass, so a run averages over several.  On ``serve-journal`` every pass
repeats the first, so that each is held to the batch reference, and the
metrics take each repeated tick at its median over the passes, which
drops a burst of load from elsewhere on the host that hits one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Serve windows on ``serve-journal``: 5 simulated minutes, a checkpoint
#: at every sealed window.
SERVE_WINDOW_MINUTES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(seed, pass index) -> ExperimentSpec`` (or ``ServeSpec``) as a
    #: plain dict.
    spec: Callable[[int, int], dict[str, Any]]
    #: Whole passes a run makes at ``--seconds 30``.  The count is fixed so
    #: that no statistic depends on how many passes the host's speed fits.
    passes: int
    serve: bool = False


def trace_seed(seed: int, index: int, draw: int) -> int:
    """The trace seed of draw ``draw`` in pass ``index`` of a run with ``seed``."""
    return int(np.random.SeedSequence([seed, index, draw]).generate_state(1)[0])


def _paper_windows(
    sizes: tuple[str, ...], draws: int, seed: int, index: int, minutes: int
) -> list[dict[str, Any]]:
    """Paper windows: every size in ``sizes`` on each of ``draws`` trace draws.

    The sizes of one draw share its trace seed (and so their trained
    predictors).  Averaging over several independent draws keeps a run's
    timings and quality from resting on one trace.
    """
    return [
        {
            "kind": "paper",
            "name": f"{size}-{draw}",
            "params": {
                "size": size,
                "duration_minutes": minutes,
                "seed": trace_seed(seed, index, draw),
            },
        }
        for draw in range(draws)
        for size in sizes
    ]


def _experiment(
    name: str,
    seed: int,
    scenarios: list[dict[str, Any]],
    policies: list[dict[str, Any]],
    simulator: str,
) -> dict[str, Any]:
    return {
        "version": 1,
        "name": f"perfbench-{name}",
        "scenarios": scenarios,
        "policies": policies,
        "trials": 1,
        "seed": seed,
        "simulator": simulator,
        "predictor_profile": "fast",
        "sim_overrides": {},
    }


def _request_oversub(seed: int, index: int) -> dict[str, Any]:
    return _experiment(
        "request-oversub",
        seed,
        _paper_windows(("SO", "HO"), 2, seed, index, 20),
        [{"name": n} for n in ("fairshare", "oneshot", "aiad", "mark")],
        "request",
    )


def _planner_flat(seed: int, index: int) -> dict[str, Any]:
    return _experiment(
        "planner-flat",
        seed,
        _paper_windows(("SO", "HO"), 2, seed, index, 20),
        [{"name": "faro-fairsum"}, {"name": "faro-sum"}],
        "flow",
    )


def _serve_journal(seed: int, index: int) -> dict[str, Any]:
    """Every pass serves the same spec: ``index`` is unused."""
    spec = _experiment(
        "serve-journal",
        seed,
        _paper_windows(("RS", "SO", "HO"), 1, seed, 0, 360),
        [{"name": "fairshare"}, {"name": "aiad"}],
        "flow",
    )
    spec["serve"] = {"window_minutes": SERVE_WINDOW_MINUTES}
    return spec


# The `why` strings are the ones BENCHMARK.json records.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "request-oversub",
            "request dispatch (sim.advance, ~77% of the loop) and observations "
            "(~19%) dominate, the planner is idle; about 35% of SO and 86% of HO "
            "requests take the scalar dispatch path",
            _request_oversub,
            passes=2,
        ),
        Workload(
            "planner-flat",
            "the flat 10-job COBYLA planner takes ~98% of the loop and predictor "
            "training ~98% of set-up; the flow backend bypasses request dispatch",
            _planner_flat,
            passes=2,
        ),
        Workload(
            "serve-journal",
            "repro.serve over 360-minute RS/SO/HO replays with 5-minute windows, "
            "a JSONL sink and a checkpoint at every sealed window: the journal "
            "is ~20% of the loop",
            _serve_journal,
            passes=3,
            serve=True,
        ),
    )
}
