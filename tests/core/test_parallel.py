"""Tests for the parallel execution layer and its seed-stable contract."""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.cobra import CobraProcess
from repro.core.runner import sample_completion_times
from repro.errors import ParallelError
from repro.parallel import (
    DEFAULT_SHARD_COUNT,
    MIN_SHARD_SIZE,
    _openblas_thread_controls,
    close_pool,
    default_jobs,
    default_shard_size,
    imap_shards,
    map_shards,
    one_blas_thread,
    pool_start_method,
    resolve_jobs,
    set_default_jobs,
    shard_bounds,
)


def _echo_kernel(context, start, stop):
    return (context, start, stop)


def _blas_thread_counts(controls) -> list[int]:
    return [get_threads() for _, get_threads in controls.values()]


def _blas_threads_kernel(context, index):
    """This worker's OpenBLAS thread counts and its number of OS threads."""
    counts = _blas_thread_counts(_openblas_thread_controls())
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return counts, tasks


def _square_kernel(context, value):
    return context * value * value


def _fail_first_kernel(directory, index):
    if index == 0:
        raise ValueError("task 0 failed")
    time.sleep(0.05)
    (Path(directory) / f"{index}.done").touch()
    return index


class TestResolveJobs:
    def test_explicit_counts(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_none_uses_default(self):
        previous = set_default_jobs(3)
        try:
            assert resolve_jobs(None) == 3
            assert default_jobs() == 3
        finally:
            set_default_jobs(previous)

    def test_negative_rejected(self):
        with pytest.raises(ParallelError, match="jobs"):
            resolve_jobs(-1)

    def test_bool_rejected(self):
        # ``jobs=True`` used to coerce to one worker and silently
        # serialise a run the caller meant to parallelise.
        with pytest.raises(ParallelError, match="boolean"):
            resolve_jobs(True)
        with pytest.raises(ParallelError, match="boolean"):
            resolve_jobs(False)

    def test_non_integers_rejected_not_truncated(self):
        # ``int(2.7)`` would run two workers where the caller asked for
        # something else; NumPy integers are counts like any other.
        with pytest.raises(ParallelError, match="integer worker count, got 2.7"):
            resolve_jobs(2.7)
        with pytest.raises(ParallelError, match="integer"):
            resolve_jobs("2")
        assert resolve_jobs(np.int64(3)) == 3

    def test_set_default_rejects_bool_and_none(self):
        with pytest.raises(ParallelError, match="boolean"):
            set_default_jobs(True)
        with pytest.raises(ParallelError, match="got 2.5"):
            set_default_jobs(2.5)
        with pytest.raises(ParallelError, match="None"):
            set_default_jobs(None)
        assert default_jobs() == 1  # the default survived the rejections


class TestShardBounds:
    def test_covers_range_contiguously(self):
        bounds = shard_bounds(100, 32)
        assert bounds == [(0, 32), (32, 64), (64, 96), (96, 100)]

    def test_exact_multiple(self):
        assert shard_bounds(64, 32) == [(0, 32), (32, 64)]

    def test_single_shard(self):
        assert shard_bounds(10, 32) == [(0, 10)]

    def test_empty(self):
        assert shard_bounds(0, 32) == []

    def test_default_sharding_targets_shard_count(self):
        assert len(shard_bounds(1000)) == DEFAULT_SHARD_COUNT
        assert default_shard_size(1000) == 63
        # Tiny workloads keep one fat shard instead of degenerating to
        # per-replica rows — vectorisation beats parallelism there.
        assert default_shard_size(3) == MIN_SHARD_SIZE
        assert len(shard_bounds(3)) == 1
        assert len(shard_bounds(100)) == 4

    def test_independent_of_jobs_by_construction(self):
        # The signature has no jobs argument at all: the decomposition
        # cannot depend on the worker count.
        assert shard_bounds(100, 7) == shard_bounds(100, 7)

    def test_non_integer_shard_sizes_rejected_not_truncated(self):
        # The shard layout decides the draw streams: ``True`` would
        # make one-row shards and ``1.5`` truncate to them.
        for shard_size in (True, 1.5, np.float64(2.0)):
            with pytest.raises(ParallelError, match="shard_size must be an integer"):
                shard_bounds(4, shard_size)
        assert shard_bounds(4, np.int32(2)) == [(0, 2), (2, 4)]

    def test_bad_arguments(self):
        with pytest.raises(ParallelError, match="shard_size"):
            shard_bounds(10, 0)
        with pytest.raises(ParallelError, match="n_items"):
            shard_bounds(-1, 4)


class TestMapShards:
    def test_inline_matches_pool(self):
        tasks = [(i,) for i in range(10)]
        inline = map_shards(_square_kernel, 2, tasks, jobs=1)
        pooled = map_shards(_square_kernel, 2, tasks, jobs=3)
        assert inline == pooled == [2 * i * i for i in range(10)]

    def test_order_preserved(self):
        tasks = [(0, 5), (5, 9), (9, 12)]
        results = map_shards(_echo_kernel, "ctx", tasks, jobs=2)
        assert results == [("ctx", 0, 5), ("ctx", 5, 9), ("ctx", 9, 12)]

    def test_empty_tasks(self):
        assert map_shards(_square_kernel, 1, [], jobs=4) == []

    def test_pool_raises_only_after_the_other_tasks_finish(self, tmp_path):
        # The pool is torn down idle: terminating workers that are
        # still reporting results can hang the shutdown.
        tasks = [(i,) for i in range(6)]
        with pytest.raises(ValueError, match="task 0 failed"):
            map_shards(_fail_first_kernel, str(tmp_path), tasks, jobs=2)
        done = sorted(path.name for path in tmp_path.iterdir())
        assert done == [f"{i}.done" for i in range(1, 6)]


class TestPoolBlasThreads:
    """Every OpenBLAS copy runs one thread before, during and after pools."""

    @pytest.fixture
    def controls(self):
        # A copy a test module loaded outside repro's seams (scipy.stats)
        # is set by the next pool start or Lanczos solve; set it now so
        # each test starts from the rule's state.
        one_blas_thread()
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS copy is loaded")
        return controls

    def test_pooled_tasks_run_one_blas_thread(self, controls):
        close_pool()  # fresh workers, forked from this state
        results = map_shards(_blas_threads_kernel, None, [(i,) for i in range(4)], jobs=2)
        for counts, _ in results:
            assert counts and set(counts) == {1}
        if pool_start_method() == "fork":
            # The count is inherited; a setter call in the child would
            # have restarted an OpenBLAS helper thread.
            assert all(tasks in (1, None) for _, tasks in results)

    def test_parent_runs_one_thread_while_the_pool_is_open(self, controls):
        for _ in imap_shards(_blas_threads_kernel, None, [(0,), (1,)], jobs=2):
            assert _blas_thread_counts(controls) == [1] * len(controls)

    def test_parent_runs_one_thread_before_and_after_the_pool(self, controls):
        assert _blas_thread_counts(controls) == [1] * len(controls)
        map_shards(_blas_threads_kernel, None, [(0,), (1,)], jobs=2)
        assert _blas_thread_counts(controls) == [1] * len(controls)

    def test_parent_runs_one_thread_before_and_after_a_failed_pool(self, controls, tmp_path):
        assert _blas_thread_counts(controls) == [1] * len(controls)
        with pytest.raises(ValueError, match="task 0 failed"):
            map_shards(_fail_first_kernel, str(tmp_path), [(0,), (1,)], jobs=2)
        assert _blas_thread_counts(controls) == [1] * len(controls)


class TestBatchJobsInvariance:
    def test_cobra_jobs_invariant(self, small_expander):
        baseline = batch_cobra_cover_times(small_expander, 0, n_replicas=100, seed=42, jobs=1)
        for jobs in (2, 4):
            assert np.array_equal(
                baseline,
                batch_cobra_cover_times(
                    small_expander, 0, n_replicas=100, seed=42, jobs=jobs
                ),
            )

    def test_cobra_fractional_jobs_invariant(self, small_expander):
        baseline = batch_cobra_cover_times(
            small_expander, 0, branching=1.3, n_replicas=80, seed=9, jobs=1
        )
        assert np.array_equal(
            baseline,
            batch_cobra_cover_times(
                small_expander, 0, branching=1.3, n_replicas=80, seed=9, jobs=4
            ),
        )

    def test_bips_jobs_invariant(self, small_expander):
        baseline = batch_bips_infection_times(
            small_expander, 0, n_replicas=100, seed=42, jobs=1
        )
        assert np.array_equal(
            baseline,
            batch_bips_infection_times(
                small_expander, 0, n_replicas=100, seed=42, jobs=4
            ),
        )

    def test_shard_size_is_part_of_the_stream(self, small_expander):
        # Different shard sizes give different (equally valid) draws;
        # the invariance contract is over jobs, not shard size.
        a = batch_cobra_cover_times(
            small_expander, 0, n_replicas=64, seed=1, shard_size=16
        )
        b = batch_cobra_cover_times(
            small_expander, 0, n_replicas=64, seed=1, shard_size=64
        )
        assert a.shape == b.shape
        assert not np.array_equal(a, b)

    def test_jobs_zero_allowed(self, small_expander):
        times = batch_cobra_cover_times(small_expander, 0, n_replicas=40, seed=3, jobs=0)
        assert np.all(times > 0)


class TestRunnerJobsInvariance:
    def test_sample_completion_times_jobs_invariant(self, small_expander):
        factory = lambda rng: CobraProcess(small_expander, 0, seed=rng)
        baseline = sample_completion_times(factory, 21, seed=5, jobs=1)
        for jobs in (2, 4):
            assert np.array_equal(
                baseline, sample_completion_times(factory, 21, seed=5, jobs=jobs)
            )

    def test_parallel_timeout_raises(self, small_expander):
        from repro.errors import CoverTimeoutError

        factory = lambda rng: CobraProcess(small_expander, 0, seed=rng)
        with pytest.raises(CoverTimeoutError):
            sample_completion_times(factory, 8, seed=2, max_rounds=1, jobs=2)

    def test_parallel_timeout_minus_one(self, small_expander):
        factory = lambda rng: CobraProcess(small_expander, 0, seed=rng)
        times = sample_completion_times(
            factory, 8, seed=2, max_rounds=1, jobs=2, raise_on_timeout=False
        )
        assert np.all(times == -1)


class TestSweepJobs:
    def test_measure_cobra_jobs_invariant(self, small_expander):
        from repro.experiments.sweep import measure_cobra_cover

        a = measure_cobra_cover(small_expander, n_samples=12, seed=3, jobs=1)
        b = measure_cobra_cover(small_expander, n_samples=12, seed=3, jobs=3)
        assert np.array_equal(a.times, b.times)

    def test_batch_engine_jobs_invariant(self, small_expander):
        from repro.experiments.sweep import measure_cobra_cover

        a = measure_cobra_cover(
            small_expander, branching=1.5, n_samples=48, seed=3, jobs=1, engine="batch"
        )
        b = measure_cobra_cover(
            small_expander, branching=1.5, n_samples=48, seed=3, jobs=4, engine="batch"
        )
        assert np.array_equal(a.times, b.times)

    def test_unknown_engine_rejected(self, small_expander):
        from repro.errors import ExperimentError
        from repro.experiments.sweep import measure_cobra_cover

        with pytest.raises(ExperimentError, match="engine"):
            measure_cobra_cover(small_expander, n_samples=2, seed=0, engine="warp")
