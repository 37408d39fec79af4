"""Tests for the Monte-Carlo duality estimator (the large-graph tier)."""

from __future__ import annotations

import pytest
from scipy import stats

from repro.exact.duality import duality_monte_carlo, duality_series
from repro.graphs import generators
from repro.parallel import set_default_jobs

#: False-positive budget per binomial test.
ALPHA = 1e-3


class TestDualityMonteCarlo:
    def test_agrees_with_exact_on_small_graph(self, petersen):
        exact_cobra, exact_bips = duality_series(petersen, [0], 7, 5)
        points = duality_monte_carlo(
            petersen, [0], 7, (1, 3, 5), trials=3000, seed=0
        )
        for point in points:
            # Both estimates bracket the common exact value.
            assert point.cobra_interval[0] - 0.01 <= exact_cobra[point.t]
            assert exact_cobra[point.t] <= point.cobra_interval[1] + 0.01
            assert point.bips_interval[0] - 0.01 <= exact_bips[point.t]
            assert exact_bips[point.t] <= point.bips_interval[1] + 0.01

    def test_sides_overlap_on_medium_graph(self):
        graph = generators.random_regular(100, 6, seed=3)
        points = duality_monte_carlo(graph, 0, 57, (2, 4), trials=1500, seed=1)
        assert all(point.intervals_overlap for point in points)

    def test_multi_vertex_start_set(self, petersen):
        points = duality_monte_carlo(
            petersen, [0, 3], 7, (2,), trials=1500, seed=2
        )
        exact_cobra, _ = duality_series(petersen, [0, 3], 7, 2)
        point = points[0]
        assert abs(point.cobra_estimate - exact_cobra[2]) < 0.06
        assert point.intervals_overlap

    def test_t_zero_is_indicator(self, petersen):
        point = duality_monte_carlo(petersen, [0], 7, (0,), trials=50, seed=3)[0]
        assert point.cobra_estimate == 1.0
        assert point.bips_estimate == 1.0
        assert point.difference == 0.0

    def test_deterministic_given_seed(self, petersen):
        a = duality_monte_carlo(petersen, [0], 7, (3,), trials=300, seed=9)[0]
        b = duality_monte_carlo(petersen, [0], 7, (3,), trials=300, seed=9)[0]
        assert a.cobra_estimate == b.cobra_estimate
        assert a.bips_estimate == b.bips_estimate

    def test_same_estimates_at_jobs_1_and_2(self, petersen):
        # 300 trials make ten shards per side, so jobs=2 really pools.
        results = []
        previous = set_default_jobs(1)
        try:
            for jobs in (1, 2):
                set_default_jobs(jobs)
                results.append(
                    duality_monte_carlo(
                        petersen, [0, 3], 7, (1, 2, 4), branching=1.5, trials=300, seed=4
                    )
                )
        finally:
            set_default_jobs(previous)
        assert results[0] == results[1]

    def test_fractional_branching_and_start_set_match_exact(self, petersen):
        # Each miss count is Binomial(trials, exact value); eight tests at
        # ALPHA each.  By t = 8 most BIPS replicas have completed, so the
        # late horizons check that full infection is read as absorbing.
        horizons, trials = (2, 3, 5, 8), 2000
        exact_cobra, exact_bips = duality_series(petersen, [0, 3], 7, 8, branching=1.5)
        points = duality_monte_carlo(
            petersen, [0, 3], 7, horizons, branching=1.5, trials=trials, seed=5
        )
        for point in points:
            for estimate, exact in (
                (point.cobra_estimate, exact_cobra[point.t]),
                (point.bips_estimate, exact_bips[point.t]),
            ):
                misses = round(estimate * trials)
                assert stats.binomtest(misses, trials, exact).pvalue > ALPHA

    def test_source_in_start_set_is_never_missed(self, petersen):
        points = duality_monte_carlo(petersen, [0, 7], 7, (0, 1, 3), trials=64, seed=6)
        for point in points:
            assert point.cobra_estimate == 0.0
            assert point.bips_estimate == 0.0

    def test_rejects_negative_horizons(self, petersen):
        with pytest.raises(ValueError, match="horizons"):
            duality_monte_carlo(petersen, [0], 7, (2, -1), trials=20, seed=0)
