"""Tests for the shared measurement helpers in :mod:`repro.experiments.sweep`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.sweep import (
    expander,
    expander_with_gap,
    measure_bips_infection,
    measure_cobra_cover,
    measure_random_walk_cover,
)
from repro.graphs import generators


class TestMeasurementHelpers:
    def test_cobra_cover(self, small_expander):
        measurement = measure_cobra_cover(small_expander, n_samples=6, seed=0)
        assert measurement.times.shape == (6,)
        assert np.all(measurement.times > 0)
        assert measurement.mean == measurement.stats.mean

    def test_bips_infection(self, small_expander):
        measurement = measure_bips_infection(small_expander, n_samples=6, seed=0)
        assert np.all(measurement.times > 0)

    def test_random_walk(self):
        graph = generators.cycle(12)
        measurement = measure_random_walk_cover(graph, n_samples=4, seed=0)
        assert np.all(measurement.times >= 11)

    def test_random_walk_counts_the_start_at_round_zero(self):
        # K2: the walk visits the only other vertex in round 1.
        measurement = measure_random_walk_cover(generators.complete(2), n_samples=5, seed=0)
        assert np.array_equal(measurement.times, np.ones(5, dtype=np.int64))

    def test_deterministic(self, small_expander):
        a = measure_cobra_cover(small_expander, n_samples=5, seed=3)
        b = measure_cobra_cover(small_expander, n_samples=5, seed=3)
        assert np.array_equal(a.times, b.times)

    def test_branching_forwarded(self, small_expander):
        k1 = measure_cobra_cover(small_expander, branching=1.0, n_samples=3, seed=1)
        k4 = measure_cobra_cover(small_expander, branching=4.0, n_samples=3, seed=1)
        assert k4.mean < k1.mean


class TestExpanderWithGap:
    def test_returns_graph_and_lambda(self):
        graph, lam = expander_with_gap(64, 4, seed=0)
        assert graph.n_vertices == 64
        assert graph.regular_degree == 4
        assert 0.0 < lam < 1.0

    def test_lambda_matches_direct_computation(self):
        from repro.graphs.spectral import lambda_second

        graph, lam = expander_with_gap(64, 4, seed=1)
        assert lam == pytest.approx(lambda_second(graph))

    def test_deterministic(self):
        a, lam_a = expander_with_gap(64, 4, seed=9)
        b, lam_b = expander_with_gap(64, 4, seed=9)
        assert a == b
        assert lam_a == lam_b

    @pytest.mark.parametrize(("n", "r", "seed"), [(64, 4, 0), (128, 8, 7), (256, 3, (2, 5))])
    def test_expander_is_the_same_graph_without_lambda(self, n, r, seed):
        assert expander(n, r, seed) == expander_with_gap(n, r, seed)[0]
