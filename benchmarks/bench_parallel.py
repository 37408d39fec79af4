"""Benchmarks of the parallel execution layer.

Measures the wall-clock speedup of sharded multi-process ensembles
over inline execution, for both the vectorised batch engine and
sequential replica sampling, and verifies the seed-stable sharding
contract (bit-identical results for every worker count) as part of the
harness.  The speedup is *reported* in ``extra_info`` rather than
asserted: single-core runners (and ``--benchmark-disable`` smoke runs)
must stay green, while a multi-core box shows ~``min(jobs, cores)``×.

The reference workload follows the repository acceptance bar: a
200-replica COBRA ensemble on ``random_regular(n=2000, r=8)``
(shrunk under ``REPRO_BENCH_QUICK=1``).

``bench_pooled_call_overhead`` reports what one pooled call costs
beyond its tasks: a no-op ``map_shards`` on a fresh pool (the call that
starts the process's pool) against later calls on the live one, under
the running start method.  It is reported, not asserted, and writes no
root row.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.core.batch import batch_cobra_cover_times
from repro.core.cobra import CobraProcess
from repro.core.runner import sample_completion_times
from repro.graphs.generators import random_regular
from repro.parallel import close_pool, map_shards, pool_start_method

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_VERTICES = 512 if BENCH_QUICK else 2000
N_REPLICAS = 64 if BENCH_QUICK else 200
JOBS = 4
#: Later no-op calls timed after the one that starts the pool.
LATER_CALLS = 5 if BENCH_QUICK else 20


@pytest.fixture(scope="module")
def parallel_expander():
    """The reference ensemble substrate for the parallel benchmarks."""
    return random_regular(N_VERTICES, 8, seed=3)


def _batch_ensemble(graph, jobs: int) -> np.ndarray:
    return batch_cobra_cover_times(
        graph, 0, n_replicas=N_REPLICAS, seed=0, jobs=jobs
    )


def bench_batch_ensemble_jobs1(benchmark, parallel_expander):
    benchmark.pedantic(lambda: _batch_ensemble(parallel_expander, 1), rounds=3, iterations=1)


def bench_batch_ensemble_jobs4(benchmark, parallel_expander):
    benchmark.pedantic(
        lambda: _batch_ensemble(parallel_expander, JOBS), rounds=3, iterations=1
    )


def bench_sequential_ensemble_jobs4(benchmark, parallel_expander):
    """Per-replica CobraProcess sampling sharded over a pool."""
    benchmark.pedantic(
        lambda: sample_completion_times(
            lambda rng: CobraProcess(parallel_expander, 0, seed=rng),
            N_REPLICAS,
            seed=0,
            jobs=JOBS,
        ),
        rounds=1,
        iterations=1,
    )


def bench_parallel_speedup_and_determinism(benchmark, parallel_expander):
    """One timed pass reporting speedup; determinism is always asserted."""

    def measure() -> float:
        started = time.perf_counter()
        inline = _batch_ensemble(parallel_expander, 1)
        inline_seconds = time.perf_counter() - started
        started = time.perf_counter()
        pooled = _batch_ensemble(parallel_expander, JOBS)
        pooled_seconds = time.perf_counter() - started
        # The seed-stable sharding contract: worker count never changes
        # the sampled cover times.
        assert np.array_equal(inline, pooled)
        return inline_seconds / pooled_seconds if pooled_seconds > 0 else float("inf")

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["n_vertices"] = N_VERTICES
    benchmark.extra_info["n_replicas"] = N_REPLICAS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["speedup_vs_jobs1"] = round(float(speedup), 2)


def _noop_kernel(context, index):
    return None


def _timed_noop_call() -> float:
    started = time.perf_counter()
    map_shards(_noop_kernel, None, [(i,) for i in range(10)], jobs=2)
    return time.perf_counter() - started


def bench_pooled_call_overhead(benchmark):
    """Seconds of a pooled no-op call: the one that starts the pool, then later ones."""

    def measure() -> tuple[float, list[float]]:
        close_pool()
        first = _timed_noop_call()
        return first, [_timed_noop_call() for _ in range(LATER_CALLS)]

    first, later = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["start_method"] = pool_start_method()
    benchmark.extra_info["first_call_s"] = round(first, 5)
    benchmark.extra_info["later_call_median_s"] = round(statistics.median(later), 5)
    benchmark.extra_info["later_calls"] = LATER_CALLS
