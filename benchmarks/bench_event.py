"""Benchmarks of the event-driven engine against the batch engine.

The event engine's contract is that per-event cost tracks the *active
frontier*, while the batch engine pays O(n) vectorised work per round
no matter how little is happening.  Two cells frame that trade:

* **Sparse-walk cell** (the asserted bar): a single COBRA token
  (``branching = 1.0``) exploring a 512x512 torus for a fixed horizon.
  The frontier is exactly one vertex, so the event engine does O(1)
  work per firing while the round engine's dense loop sweeps 262144
  vertices per round.  The event engine must beat that loop here by
  ``>= 3x``.  The round engine itself runs a single token in walk
  blocks, far faster than either, so this cell holds it in the dense
  loop from round 1 (``repro.core.batch._DENSE``).
* **Dense-cover cell** (the honest control): COBRA ``k = 2`` full
  cover on a 1024-vertex 8-regular expander, where the frontier grows
  to Theta(n) within a few rounds.  Here the round engine's wide
  vectorised rounds win and the benchmark *asserts that batch is
  faster* — the event engine is a regime tool, not a replacement.

The two engines run different laws (exponential clocks against
synchronous rounds) on the same time scale; the cells compare the
cost of equal horizons, not equal outputs.  The sides of each asserted
ratio are timed interleaved and compared by their medians.  Every run
also asserts the
seed-stable contract — ``jobs=1`` and ``jobs=4`` must produce
bit-identical completion times — and writes the measured matrix to
``benchmarks/out/BENCH_event.json``.  ``REPRO_BENCH_QUICK=1`` shrinks
the workloads to smoke scale and skips the timing bars (CI runs it
that way).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from benchmarks._root_summary import write_root_summary
from benchmarks._timing import interleaved_medians, switched
from repro.core import batch as batch_module
from repro.core.batch import batch_cobra_cover_times
from repro.core.event import event_cobra_cover_times
from repro.graphs.generators import random_regular, torus

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_event.json"

# Sparse-walk cell: one token on a large torus, fixed horizon.
SPARSE_SIDE = 128 if BENCH_QUICK else 512
SPARSE_HORIZON = 500 if BENCH_QUICK else 2000
SPARSE_REPLICAS = 2 if BENCH_QUICK else 4
SPARSE_EXP_BAR = 3.0
SPARSE_SAMPLES = 1 if BENCH_QUICK else 5

# Dense-cover cell: the regime where batch must stay ahead.
DENSE_N = 256 if BENCH_QUICK else 1024
DENSE_REPLICAS = 8 if BENCH_QUICK else 32
DENSE_SAMPLES = 1 if BENCH_QUICK else 5

DEGREE = 8
JOBS = 4


@pytest.fixture(scope="module")
def sparse_cell():
    return torus((SPARSE_SIDE, SPARSE_SIDE))


@pytest.fixture(scope="module")
def dense_cell():
    return random_regular(DENSE_N, DEGREE, seed=4)


def bench_event_sparse_walk(benchmark, sparse_cell):
    """Raw event engine on the sparse-walk workload."""
    benchmark.pedantic(
        lambda: event_cobra_cover_times(
            sparse_cell,
            0,
            branching=1.0,
            n_replicas=SPARSE_REPLICAS,
            seed=0,
            max_time=float(SPARSE_HORIZON),
            raise_on_timeout=False,
        ),
        rounds=3,
        iterations=1,
    )


def bench_event_speed_bars_and_determinism(benchmark, sparse_cell, dense_cell):
    """The engine matrix: event vs batch in both regimes, plus bars.

    Asserts (real scale only):

    * sparse-walk cell: event beats the round engine's dense loop by
      ``>= 3x``;
    * dense-cover cell: batch stays faster than the event engine;
    * always: jobs=1 vs jobs=4 bit-identical event times.
    """

    def measure() -> dict:
        matrix: dict = {"quick": BENCH_QUICK, "cpu_count": os.cpu_count(), "jobs": JOBS}

        # -- sparse walk: the asserted bar ---------------------------
        horizon = float(SPARSE_HORIZON)

        def dense_loop_walk() -> np.ndarray:
            return batch_cobra_cover_times(
                sparse_cell,
                0,
                branching=1.0,
                n_replicas=SPARSE_REPLICAS,
                seed=0,
                max_rounds=SPARSE_HORIZON,
                raise_on_timeout=False,
            )

        batch_sparse, exp_sparse = interleaved_medians(
            [
                switched(batch_module._DENSE, dense_loop_walk),
                lambda: event_cobra_cover_times(
                    sparse_cell,
                    0,
                    branching=1.0,
                    n_replicas=SPARSE_REPLICAS,
                    seed=0,
                    max_time=horizon,
                    raise_on_timeout=False,
                ),
            ],
            SPARSE_SAMPLES,
        )
        matrix["sparse_walk"] = {
            "n": SPARSE_SIDE * SPARSE_SIDE,
            "replicas": SPARSE_REPLICAS,
            "horizon": SPARSE_HORIZON,
            "batch_seconds": round(batch_sparse, 5),
            "event_exp_seconds": round(exp_sparse, 5),
            "speedup_exp": round(batch_sparse / exp_sparse, 2),
            "exp_bar": SPARSE_EXP_BAR,
        }

        # -- dense cover: the honest control -------------------------
        batch_dense, exp_dense = interleaved_medians(
            [
                lambda: batch_cobra_cover_times(
                    dense_cell, 0, n_replicas=DENSE_REPLICAS, seed=0
                ),
                lambda: event_cobra_cover_times(
                    dense_cell, 0, n_replicas=DENSE_REPLICAS, seed=0
                ),
            ],
            DENSE_SAMPLES,
        )
        matrix["dense_cover"] = {
            "n": DENSE_N,
            "replicas": DENSE_REPLICAS,
            "batch_seconds": round(batch_dense, 5),
            "event_exp_seconds": round(exp_dense, 5),
            "batch_advantage": round(exp_dense / batch_dense, 2),
        }

        # -- determinism: jobs never changes results -----------------
        def walk(jobs: int) -> np.ndarray:
            return event_cobra_cover_times(
                sparse_cell,
                0,
                branching=1.0,
                n_replicas=8,
                seed=1,
                max_time=horizon,
                raise_on_timeout=False,
                jobs=jobs,
                shard_size=2,
            )

        assert np.array_equal(walk(1), walk(JOBS))
        matrix["determinism"] = f"jobs=1 vs jobs={JOBS} bit-identical"

        if not BENCH_QUICK:
            assert matrix["sparse_walk"]["speedup_exp"] >= SPARSE_EXP_BAR, (
                f"event engine fell below the {SPARSE_EXP_BAR}x bar over the "
                f"dense loop on the sparse-walk cell: {matrix['sparse_walk']}"
            )
            assert matrix["dense_cover"]["batch_advantage"] >= 1.0, (
                "batch engine lost its dense-cover advantage — the event engine "
                f"should not win this regime: {matrix['dense_cover']}"
            )
        return matrix

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    write_root_summary(
        "event",
        {
            "quick": matrix["quick"],
            "sparse_walk": matrix["sparse_walk"],
            "dense_cover": matrix["dense_cover"],
            "determinism": matrix["determinism"],
        },
    )
    for key, value in matrix.items():
        benchmark.extra_info[key] = value
