"""Shared fixtures and helpers for the benchmark harness.

Every experiment benchmark runs its experiment's *quick* configuration
once under ``benchmark.pedantic``, records the findings in
``extra_info`` (so they land in pytest-benchmark's JSON export), and
writes the rendered report plus the JSON result into
``benchmarks/out/`` for EXPERIMENTS.md.

Setting ``REPRO_BENCH_QUICK=1`` in the environment shrinks every
workload to micro scale (the same parameter overrides the unit tests
use) so the whole harness finishes in a couple of minutes — that is
what the CI smoke job runs, combined with ``--benchmark-disable`` so
no timing statistics are asserted or recorded.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import get_experiment, run_experiment
from repro.experiments.microscale import micro_workload
from repro.experiments.results import ExperimentResult

OUT_DIR = Path(__file__).resolve().parent / "out"

#: True when the harness should run micro-scale workloads (CI smoke).
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"


def run_and_record(benchmark, experiment_id: str, *, mode: str = "quick", seed: int = 0):
    """Run one experiment under the benchmark clock and persist its report.

    Under ``REPRO_BENCH_QUICK=1`` it runs the shared micro-scale
    workload (:func:`repro.experiments.microscale.micro_workload`)
    instead, matching the unit-test configuration exactly.
    """
    if BENCH_QUICK:
        workload = micro_workload(experiment_id)
    else:
        workload = get_experiment(experiment_id).preset(mode)
    result: ExperimentResult = benchmark.pedantic(
        lambda: run_experiment(experiment_id, workload=workload, seed=seed),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["quick_env"] = BENCH_QUICK
    benchmark.extra_info["findings"] = result.findings
    # Micro-scale smoke output lands in its own directory so it never
    # clobbers the real-scale results EXPERIMENTS.md is built from.
    out_dir = OUT_DIR / "micro" if BENCH_QUICK else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    result.save(out_dir / f"{experiment_id.lower()}_{mode}.json")
    (out_dir / f"{experiment_id.lower()}_{mode}.txt").write_text(result.render() + "\n")
    return result


@pytest.fixture(scope="session")
def expander_4096():
    """A 4096-vertex, 8-regular expander shared by the micro benchmarks.

    Shrunk to 512 vertices under ``REPRO_BENCH_QUICK=1``.
    """
    from repro.graphs.generators import random_regular

    return random_regular(512 if BENCH_QUICK else 4096, 8, seed=1)


@pytest.fixture(scope="session")
def expander_65536():
    """A 65536-vertex, 8-regular expander for the large micro benchmarks.

    Shrunk to 4096 vertices under ``REPRO_BENCH_QUICK=1``.
    """
    from repro.graphs.generators import random_regular

    return random_regular(4096 if BENCH_QUICK else 65536, 8, seed=2)
