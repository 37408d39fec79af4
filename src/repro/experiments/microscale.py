"""Micro-scale workloads shared by smoke harnesses.

One table mapping each experiment id to the workload-field overrides
that shrink its *quick* preset to toy scale, so the full code path
(graph building, measurement, fitting, rendering) executes in seconds.
Both the unit tests (`tests/experiments/test_experiment_runs.py`) and
the benchmark harness's ``REPRO_BENCH_QUICK=1`` mode consume this
table — keeping them in one place means CI smoke always exercises
exactly the parameters the tests validate.  The overrides are plain
data, so they also travel as a campaign entry's ``overrides`` to
worker processes under any start method.
"""

from __future__ import annotations

from typing import Any

from repro.experiments import get_experiment
from repro.scenarios.base import Workload

#: Per-experiment workload-field overrides for micro-scale smoke runs.
MICRO_OVERRIDES: dict[str, dict[str, Any]] = {
    "E1": {"sizes": (64, 128), "degrees": (3, 8), "samples": 3},
    "E2": {"sizes": (64, 128), "samples": 3},
    "E3": {"sizes": (64, 128), "rhos": (0.5, 1.0), "samples": 3},
    "E4": {"trials": 200, "exact_t_max": 4},
    "E5": {},  # already sub-second at quick scale
    "E6": {"sizes": (128, 256), "trajectories": 3},
    "E7": {
        "complete_sizes": (32, 64, 128),
        "torus2d_sides": (5, 9, 13),
        "torus3d_sides": (3, 5),
        "walk_sizes": (32, 64),
        "samples": 3,
    },
    "E8": {
        "circulant_n": 65,
        "chords": (1, 4),
        "regular_n": 64,
        "degrees": (3, 8),
        "samples": 3,
    },
    "E9": {"n": 128, "branchings": (1.0, 2.0), "samples": 3},
    "E10": {"n": 64, "sis_trials": 40, "bips_trials": 10},
    "E11": {
        "tail_n": 256,
        "tail_samples": 400,
        "ladder": (128, 256),
        "ladder_samples": 60,
    },
    "E12": {"sizes": (64, 128), "samples": 3},
    "E13": {"n": 128, "samples": 30, "exact_t_max": 4},
}


def micro_workload(experiment_id: str) -> Workload:
    """The experiment's quick preset with its micro overrides applied."""
    preset = get_experiment(experiment_id).preset("quick")
    return preset.with_overrides(MICRO_OVERRIDES[experiment_id.upper()])
