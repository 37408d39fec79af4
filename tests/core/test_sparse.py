"""Tests for the sparse-frontier COBRA/BIPS engines.

The sparse kernels reimplement the exact same processes in
frontier-proportional state.  Sparse COBRA draws picks and coins in the
batch engine's ascending (replica, vertex) order, so the two return
identical arrays; sparse BIPS draws only for the armed set, so its
agreement with batch BIPS is distributional (KS-tested).  The shard
contract — seed-stable, ``jobs``-invariant — is bit-exact for both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.errors import CoverTimeoutError, ExperimentError, InfectionTimeoutError
from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover
from repro.graphs import complete, generators
from repro.graphs.implicit import ImplicitHypercube, ImplicitTorus


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``max |ECDF_a - ECDF_b|``."""
    grid = np.concatenate([a, b])
    ecdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    ecdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(ecdf_a - ecdf_b)))


#: Graphs for the COBRA bit-identity check: regular with power-of-two
#: and other degrees, irregular, ``int32`` indices, and implicit.
COBRA_GRAPHS = {
    "rr64-4": lambda: generators.random_regular(64, 4, seed=7),
    "rr60-5": lambda: generators.random_regular(60, 5, seed=8),
    "star5": lambda: generators.star(5),
    "q4-int32": lambda: generators.hypercube(4, index_dtype="int32"),
    "implicit-q5": lambda: ImplicitHypercube(5),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("include_start", [False, True], ids=["paper", "with-start"])
@pytest.mark.parametrize("branching", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("graph_name", list(COBRA_GRAPHS))
def test_sparse_cobra_equals_batch(graph_name, branching, include_start, jobs):
    # Both engines draw picks and branching coins in ascending
    # (replica, vertex) order from the same shard streams.
    graph = COBRA_GRAPHS[graph_name]()
    kwargs = dict(
        branching=branching,
        n_replicas=24,
        seed=31,
        shard_size=8,
        include_start_in_cover=include_start,
        jobs=jobs,
    )
    sparse = sparse_cobra_cover_times(graph, 0, **kwargs)
    batch = batch_cobra_cover_times(graph, 0, **kwargs)
    assert np.array_equal(sparse, batch)


@pytest.mark.parametrize("branching", [2.5, 3.0])
@pytest.mark.parametrize(
    "factory",
    [
        lambda: generators.random_regular(256, 8, seed=1),
        lambda: generators.random_regular(300, 5, seed=2),
        lambda: generators.hypercube(8),
        lambda: generators.torus((9, 11)),
        lambda: generators.barabasi_albert(200, 3, seed=3),
    ],
    ids=["rr256-8", "rr300-5", "q8", "torus9x11", "ba200-3"],
)
def test_sparse_cobra_equals_batch_on_larger_graphs(factory, branching):
    graph = factory()
    kwargs = dict(branching=branching, n_replicas=16, seed=41)
    sparse = sparse_cobra_cover_times(graph, 0, **kwargs)
    assert np.array_equal(sparse, batch_cobra_cover_times(graph, 0, **kwargs))


class TestBatchAgreement:
    """BIPS laws must match the dense batch engine, configuration by configuration."""

    # At 300 samples per side the alpha = 0.001 KS critical value is
    # c(0.001) * sqrt(2/300) = 1.95 * 0.0816 = 0.159; a false failure
    # at the fixed seeds below would mean an actual law mismatch.
    SAMPLES = 300
    THRESHOLD = 0.159

    def test_bips_matches_batch_engine(self, small_expander):
        sparse = sparse_bips_infection_times(
            small_expander, 0, n_replicas=self.SAMPLES, seed=303
        )
        batch = batch_bips_infection_times(
            small_expander, 0, n_replicas=self.SAMPLES, seed=404
        )
        assert ks_statistic(sparse, batch) < self.THRESHOLD

    def test_fractional_bips_agrees_too(self, small_expander):
        sparse = sparse_bips_infection_times(
            small_expander, 0, branching=1.25, n_replicas=self.SAMPLES, seed=707
        )
        batch = batch_bips_infection_times(
            small_expander, 0, branching=1.25, n_replicas=self.SAMPLES, seed=808
        )
        assert ks_statistic(sparse, batch) < self.THRESHOLD

    def test_implicit_graph_agrees_with_materialised(self):
        implicit = ImplicitTorus((7, 7))
        concrete = generators.torus((7, 7))
        a = sparse_cobra_cover_times(implicit, 0, n_replicas=64, seed=9)
        b = sparse_cobra_cover_times(concrete, 0, n_replicas=64, seed=9)
        # Same graph, same seeds, same engine: bit-identical, not just close.
        assert np.array_equal(a, b)


class TestDeterminism:
    def test_cobra_jobs_invariant(self, small_expander):
        inline = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=1, shard_size=6
        )
        pooled = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=4, shard_size=6
        )
        assert np.array_equal(inline, pooled)

    def test_bips_jobs_invariant(self, small_expander):
        inline = sparse_bips_infection_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=1, shard_size=6
        )
        pooled = sparse_bips_infection_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=4, shard_size=6
        )
        assert np.array_equal(inline, pooled)

    def test_shard_size_does_not_change_results(self, small_expander):
        a = sparse_cobra_cover_times(small_expander, 0, n_replicas=24, seed=5)
        b = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, shard_size=5
        )
        # Sharding is seed-stable only per (n_replicas, shard_size): the
        # default shard plan and an explicit one agree in distribution,
        # and identical plans agree exactly.
        c = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, shard_size=5
        )
        assert np.array_equal(b, c)
        assert a.shape == b.shape


class TestValidationAndTimeouts:
    def test_cobra_timeout_type(self, small_expander):
        with pytest.raises(CoverTimeoutError):
            sparse_cobra_cover_times(
                small_expander, 0, n_replicas=4, seed=0, max_rounds=1
            )

    def test_bips_timeout_type(self, small_expander):
        with pytest.raises(InfectionTimeoutError):
            sparse_bips_infection_times(
                small_expander, 0, n_replicas=4, seed=0, max_rounds=1
            )

    def test_timeouts_marked_minus_one_when_not_raising(self, small_expander):
        times = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=4, seed=0, max_rounds=1,
            raise_on_timeout=False,
        )
        assert np.all(times == -1)

    def test_replica_count_validated(self, small_expander):
        with pytest.raises(ValueError, match="n_replicas"):
            sparse_cobra_cover_times(small_expander, 0, n_replicas=0)
        with pytest.raises(ValueError, match="n_replicas"):
            sparse_bips_infection_times(small_expander, 0, n_replicas=0)

    def test_start_vertex_validated(self, small_expander):
        with pytest.raises(Exception, match="start"):
            sparse_cobra_cover_times(small_expander, 10_000, n_replicas=2)

    def test_complete_graph_fast_paths(self):
        graph = complete(8)
        cover = sparse_cobra_cover_times(graph, 0, n_replicas=16, seed=1)
        infect = sparse_bips_infection_times(graph, 0, n_replicas=16, seed=1)
        assert np.all(cover >= 1)
        assert np.all(infect >= 1)


class TestEngineSeam:
    def test_measure_cobra_accepts_sparse(self, small_expander):
        direct = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=12, seed=(0, 1)
        )
        seamed = measure_cobra_cover(
            small_expander, n_samples=12, seed=(0, 1), engine="sparse"
        )
        assert np.array_equal(direct, seamed.times)

    def test_measure_bips_accepts_sparse(self, small_expander):
        direct = sparse_bips_infection_times(
            small_expander, 0, n_replicas=12, seed=(0, 2)
        )
        seamed = measure_bips_infection(
            small_expander, n_samples=12, seed=(0, 2), engine="sparse"
        )
        assert np.array_equal(direct, seamed.times)

    def test_sparse_rejects_rate_options(self, small_expander):
        with pytest.raises(ExperimentError, match="engine='event'"):
            measure_cobra_cover(
                small_expander, n_samples=4, engine="sparse", transmission_rate=2.0
            )

    def test_engine_error_names_sparse(self, small_expander):
        with pytest.raises(ExperimentError, match="'sparse'"):
            measure_cobra_cover(small_expander, n_samples=4, engine="bogus")
