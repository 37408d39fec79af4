"""Benchmarks of the v2 batch engine: kernels, traces, and the speed bar.

Two workloads frame the engine matrix (all on random 8-regular
expanders, COBRA ``k = 2``):

* **Ladder cell** (``n = 128``, 512 replicas): the ensemble-throughput
  regime every experiment quick/micro ladder lives in, where stepping
  replicas one by one is dominated by per-round call overhead.  This
  is where the repository's speed bar is *asserted*: the v2 batch
  engine must beat the sequential process engine by ``>= 10x``.
* **E1 ladder top** (``n = 2000``, 200 replicas, the acceptance-bar
  substrate): at this size the sequential engine's per-round NumPy
  work is already thousands of vertices wide, so the regime is
  memory/throughput-bound and the honest batch win is smaller; the
  benchmark asserts the v2 engine still beats sequential and *reports*
  the ratio (~2-3x on one core) instead of asserting 10x.

A third cell times BIPS ``k = 2`` (``n = 4096``, 256 replicas,
``jobs=1``) and reports the seconds with no bar: the round engine,
whose shards open in sparse rounds and finish in the dense loop
(``batch_seconds``), beside the same engine held in its sparse rounds
(``sparse_seconds``, the sparse engine of earlier rows) and in the
dense loop from round 1 (``dense_loop_seconds``), and beside the cell
measured on the pick-and-gather kernels that the infected-neighbour
counts kernels replaced.

The v1 kernel (PR 1's ``_cobra_shard``: full-size ``next_active``
allocation per round, Python loop over draws, float-multiply neighbour
sampling) is preserved here as a reference implementation so the
v1 -> v2 kernel delta stays measurable after the rewrite.

Every run also asserts the seed-stable contract end to end —
``jobs=1`` and ``jobs=4`` must produce bit-identical cover times *and*
bit-identical trace matrices — and writes the measured matrix to
``benchmarks/out/BENCH_batch.json``, the first entry of the repo's
performance trajectory.  ``REPRO_BENCH_QUICK=1`` shrinks the workloads
to smoke scale and skips the timing bars (CI runs it that way).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks._root_summary import write_root_summary
from benchmarks._timing import interleaved_medians, switched
from repro._rng import ensure_generator, spawn_seed_sequences
from repro.core import batch as batch_module
from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.core.cobra import CobraProcess
from repro.core.runner import default_max_rounds, sample_completion_times
from repro.core.sparse import sparse_bips_infection_times
from repro.graphs.generators import random_regular
from repro.parallel import shard_bounds

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_batch.json"

# Ladder-cell workload: the asserted >= 10x bar.
SMALL_N = 64 if BENCH_QUICK else 128
SMALL_REPLICAS = 64 if BENCH_QUICK else 512
SMALL_SHARD = 64 if BENCH_QUICK else 128
SMALL_BAR = 10.0

# E1 ladder-top workload: reported, plus a conservative > 1x assert.
LARGE_N = 256 if BENCH_QUICK else 2000
LARGE_REPLICAS = 64 if BENCH_QUICK else 200
LARGE_BAR = 1.5

# BIPS cell: the round engine at k = 2 and its two phases alone, reported only.
BIPS_N = 256 if BENCH_QUICK else 4096
BIPS_REPLICAS = 64 if BENCH_QUICK else 256
#: The full-size BIPS cell measured with this code on the pick-and-gather
#: kernels, the reference point of the counts kernels: the median of
#: three runs (each a best of three, jobs=1) on a 2-core Xeon.
BIPS_PICK_KERNEL_SECONDS = {"batch": 0.793, "sparse": 1.86}

DEGREE = 8
JOBS = 4


def _v1_sample_neighbors(graph, vertices, k, rng):
    """PR 1's sampling: degree gather + float multiply (no fast path)."""
    degrees = graph.degrees[vertices]
    offsets = graph.indptr[vertices]
    draws = rng.random((vertices.size, k))
    positions = offsets[:, None] + (draws * degrees[:, None]).astype(np.int64)
    return graph.indices[positions]


def _v1_cobra_shard(context, start_index, stop_index, seed):
    """PR 1's `_cobra_shard`, verbatim semantics: the v2 reference point."""
    graph, start, mandatory, max_rounds = context
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices

    active = np.zeros((n_replicas, n), dtype=bool)
    active[:, start] = True
    covered = np.zeros((n_replicas, n), dtype=bool)
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    unfinished = np.arange(n_replicas)
    covered_counts = covered.sum(axis=1)

    for round_index in range(1, max_rounds + 1):
        if unfinished.size == 0:
            break
        rows, columns = np.nonzero(active[unfinished])
        replica_of_row = unfinished[rows]
        picks = _v1_sample_neighbors(graph, columns, mandatory, rng)
        next_active = np.zeros((n_replicas, n), dtype=bool)
        for draw in range(mandatory):
            next_active[replica_of_row, picks[:, draw]] = True
        active[unfinished] = next_active[unfinished]
        newly = next_active[unfinished] & ~covered[unfinished]
        covered[unfinished] |= next_active[unfinished]
        covered_counts[unfinished] += newly.sum(axis=1)
        done = unfinished[covered_counts[unfinished] == n]
        if done.size:
            cover_times[done] = round_index
            unfinished = unfinished[covered_counts[unfinished] < n]
    return cover_times


def _v1_batch_cover_times(graph, n_replicas, seed, shard_size):
    """The v1 kernel under the same sharding frame as the v2 engine."""
    bounds = shard_bounds(n_replicas, shard_size)
    seeds = spawn_seed_sequences(seed, len(bounds))
    context = (graph, 0, 2, default_max_rounds(graph))
    return np.concatenate(
        [
            _v1_cobra_shard(context, start, stop, shard_seed)
            for (start, stop), shard_seed in zip(bounds, seeds)
        ]
    )


@pytest.fixture(scope="module")
def small_cell():
    return random_regular(SMALL_N, DEGREE, seed=4)


@pytest.fixture(scope="module")
def large_cell():
    return random_regular(LARGE_N, DEGREE, seed=3)


@pytest.fixture(scope="module")
def bips_cell():
    return random_regular(BIPS_N, DEGREE, seed=5)


def bench_batch_v2_times_large(benchmark, large_cell):
    """Raw v2 cover-time engine on the ladder-top workload."""
    benchmark.pedantic(
        lambda: batch_cobra_cover_times(
            large_cell, 0, n_replicas=LARGE_REPLICAS, seed=0, jobs=1
        ),
        rounds=3,
        iterations=1,
    )


def bench_batch_v2_traces_large(benchmark, large_cell):
    """The trace engine costs little over the times engine."""
    benchmark.pedantic(
        lambda: batch_cobra_traces(
            large_cell, 0, n_replicas=LARGE_REPLICAS, seed=0, jobs=1
        ),
        rounds=3,
        iterations=1,
    )


def bench_batch_speed_bars_and_determinism(benchmark, small_cell, large_cell, bips_cell):
    """The engine matrix: v1 kernel vs v2 vs sequential vs jobs, plus bars.

    Asserts (real scale only):

    * ladder cell: v2 batch >= 10x over per-replica sequential stepping;
    * ladder top: v2 batch >= 1.5x over sequential, v2 no slower than
      the preserved v1 kernel;
    * always: jobs=1 vs jobs=4 bit-identical times and trace arrays.

    The sides of each asserted ratio are timed interleaved and compared
    by their medians (:func:`benchmarks._timing.interleaved_medians`).
    """

    def measure() -> dict:
        matrix: dict = {"quick": BENCH_QUICK, "cpu_count": os.cpu_count(), "jobs": JOBS}

        # -- ladder cell: the asserted bar ---------------------------
        sequential_small, batch_small = interleaved_medians(
            [
                lambda: sample_completion_times(
                    lambda rng: CobraProcess(small_cell, 0, seed=rng),
                    SMALL_REPLICAS,
                    seed=0,
                    jobs=1,
                ),
                lambda: batch_cobra_cover_times(
                    small_cell,
                    0,
                    n_replicas=SMALL_REPLICAS,
                    seed=0,
                    jobs=1,
                    shard_size=SMALL_SHARD,
                ),
            ],
            5,
        )
        matrix["ladder_cell"] = {
            "n": SMALL_N,
            "replicas": SMALL_REPLICAS,
            "sequential_seconds": round(sequential_small, 5),
            "batch_v2_seconds": round(batch_small, 5),
            "speedup": round(sequential_small / batch_small, 2),
            "bar": SMALL_BAR,
        }

        # -- ladder top: reported ratios + kernel delta --------------
        sequential_large, v1_large, v2_large = interleaved_medians(
            [
                lambda: sample_completion_times(
                    lambda rng: CobraProcess(large_cell, 0, seed=rng),
                    LARGE_REPLICAS,
                    seed=0,
                    jobs=1,
                ),
                lambda: _v1_batch_cover_times(large_cell, LARGE_REPLICAS, 0, None),
                lambda: batch_cobra_cover_times(
                    large_cell, 0, n_replicas=LARGE_REPLICAS, seed=0, jobs=1
                ),
            ],
            5,
        )
        started = time.perf_counter()
        pooled_times = batch_cobra_cover_times(
            large_cell, 0, n_replicas=LARGE_REPLICAS, seed=0, jobs=JOBS
        )
        pooled_seconds = time.perf_counter() - started
        matrix["ladder_top"] = {
            "n": LARGE_N,
            "replicas": LARGE_REPLICAS,
            "sequential_seconds": round(sequential_large, 5),
            "batch_v1_kernel_seconds": round(v1_large, 5),
            "batch_v2_seconds": round(v2_large, 5),
            "batch_v2_jobs4_seconds": round(pooled_seconds, 5),
            "speedup_vs_sequential": round(sequential_large / v2_large, 2),
            "kernel_delta_v1_to_v2": round(v1_large / v2_large, 2),
            "bar": LARGE_BAR,
        }

        # -- BIPS cell: reported, no bar -----------------------------
        def bips(infection_times):
            return lambda: infection_times(
                bips_cell, 0, n_replicas=BIPS_REPLICAS, seed=0, jobs=1
            )

        seconds = interleaved_medians(
            [
                bips(batch_bips_infection_times),
                switched(batch_module._SPARSE, bips(sparse_bips_infection_times)),
                switched(batch_module._DENSE, bips(batch_bips_infection_times)),
            ],
            3,
        )
        bips_row = {"n": BIPS_N, "replicas": BIPS_REPLICAS, "branching": 2.0}
        for name, value in zip(("batch", "sparse", "dense_loop"), seconds):
            bips_row[f"{name}_seconds"] = round(value, 5)
        if not BENCH_QUICK:
            bips_row["pick_kernel_seconds"] = BIPS_PICK_KERNEL_SECONDS
        matrix["bips_cell"] = bips_row

        # -- determinism: jobs never changes results -----------------
        inline_times = batch_cobra_cover_times(
            large_cell, 0, n_replicas=LARGE_REPLICAS, seed=0, jobs=1
        )
        assert np.array_equal(inline_times, pooled_times)
        inline_traces = batch_cobra_traces(
            small_cell, 0, n_replicas=SMALL_REPLICAS, seed=1, jobs=1
        )
        pooled_traces = batch_cobra_traces(
            small_cell, 0, n_replicas=SMALL_REPLICAS, seed=1, jobs=JOBS
        )
        assert np.array_equal(
            inline_traces.completion_times, pooled_traces.completion_times
        )
        assert np.array_equal(inline_traces.active_counts, pooled_traces.active_counts)
        assert np.array_equal(inline_traces.newly_counts, pooled_traces.newly_counts)
        assert np.array_equal(inline_traces.transmissions, pooled_traces.transmissions)
        bips_inline = batch_bips_traces(
            small_cell, 0, n_replicas=SMALL_REPLICAS, seed=2, jobs=1
        )
        bips_pooled = batch_bips_traces(
            small_cell, 0, n_replicas=SMALL_REPLICAS, seed=2, jobs=JOBS
        )
        assert np.array_equal(bips_inline.completion_times, bips_pooled.completion_times)
        assert np.array_equal(bips_inline.transmissions, bips_pooled.transmissions)
        matrix["determinism"] = "jobs=1 vs jobs=4 bit-identical (times + traces)"

        if not BENCH_QUICK:
            assert matrix["ladder_cell"]["speedup"] >= SMALL_BAR, (
                f"batch engine fell below the {SMALL_BAR}x bar on the ladder cell: "
                f"{matrix['ladder_cell']}"
            )
            assert matrix["ladder_top"]["speedup_vs_sequential"] >= LARGE_BAR, (
                f"batch engine fell below the {LARGE_BAR}x bar on the ladder top: "
                f"{matrix['ladder_top']}"
            )
            assert matrix["ladder_top"]["kernel_delta_v1_to_v2"] >= 1.0, (
                f"v2 kernel regressed against the v1 reference: {matrix['ladder_top']}"
            )
        return matrix

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    write_root_summary(
        "batch",
        {
            "quick": matrix["quick"],
            "ladder_cell": matrix["ladder_cell"],
            "ladder_top": matrix["ladder_top"],
            "bips_cell": matrix["bips_cell"],
            "determinism": matrix["determinism"],
        },
    )
    for key, value in matrix.items():
        benchmark.extra_info[key] = value
