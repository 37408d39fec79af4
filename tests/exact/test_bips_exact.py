"""Tests for the exact BIPS engine against theory and Monte-Carlo."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn_generators
from repro.core.bips import BipsProcess
from repro.errors import ExactEngineError
from repro.exact.bips_exact import ExactBips
from repro.exact.subsets import mask_from_vertices
from repro.graphs import generators
from repro.theory.growth import expected_next_infected_size


class TestStepDistribution:
    def test_mass_conserved(self, petersen):
        engine = ExactBips(petersen, 0)
        for mask in (0b1, 0b1011, 0b1111111111):
            assert engine.step_distribution(mask).sum() == pytest.approx(1.0)

    def test_source_always_in_support(self, petersen):
        engine = ExactBips(petersen, 2)
        distribution = engine.step_distribution(1 << 2)
        support = np.flatnonzero(distribution > 0)
        assert all((int(mask) >> 2) & 1 for mask in support)

    def test_full_set_stays_full_for_source_graph(self):
        # On K_n from the full set, every vertex's samples are all
        # infected, so A_{t+1} = V with probability 1.
        graph = generators.complete(4)
        engine = ExactBips(graph, 0)
        distribution = engine.step_distribution(0b1111)
        assert distribution[0b1111] == pytest.approx(1.0)

    def test_infection_probabilities_match_formula(self, c9):
        engine = ExactBips(c9, 0, branching=2.0)
        mask = mask_from_vertices([0, 1])
        probabilities = engine.infection_probabilities(mask)
        # Vertex 2 neighbours {1, 3}; one infected => p = 1 - (1/2)^2.
        assert probabilities[2] == pytest.approx(0.75)
        # Vertex 5 has no infected neighbour.
        assert probabilities[5] == pytest.approx(0.0)
        # Source reported as 1.
        assert probabilities[0] == 1.0

    def test_fractional_probabilities(self, c9):
        engine = ExactBips(c9, 0, branching=1.5)
        mask = mask_from_vertices([0, 1])
        probabilities = engine.infection_probabilities(mask)
        # Vertex 2: hit fraction q = 1/2; miss = (1-q)(1-rho q) = 0.5 * 0.75.
        assert probabilities[2] == pytest.approx(1 - 0.5 * 0.75)


class TestEvolution:
    def test_expected_size_one_step_matches_growth_formula(self, petersen):
        engine = ExactBips(petersen, 0)
        series = engine.expected_size_series(1)
        expected = expected_next_infected_size(petersen, [0], 0, branching=2.0)
        assert series[0] == pytest.approx(1.0)
        assert series[1] == pytest.approx(expected)

    def test_matrix_and_fold_paths_agree(self):
        graph = generators.cycle(5)
        engine_fold = ExactBips(graph, 0)
        start = engine_fold.initial_distribution()
        # Row path: accumulate the step rows mask by mask.
        by_fold = np.zeros_like(start)
        for mask in np.flatnonzero(start > 0):
            by_fold += start[mask] * engine_fold.step_distribution(int(mask))
        by_matrix = ExactBips(graph, 0).evolve(start, 1)
        assert np.allclose(by_fold, by_matrix, atol=1e-12)

    def test_distribution_at_sums_to_one(self, petersen):
        engine = ExactBips(petersen, 0)
        for t in (0, 1, 3, 7):
            assert engine.distribution_at(t).sum() == pytest.approx(1.0)

    def test_membership_probability_of_source_is_one(self, petersen):
        engine = ExactBips(petersen, 4)
        for t in (0, 1, 5):
            assert engine.membership_probability(4, t) == pytest.approx(1.0)

    def test_monte_carlo_agreement(self, c9):
        engine = ExactBips(c9, 0)
        t = 4
        exact_probability = engine.membership_probability(3, t)
        trials = 4000
        hits = 0
        for rng in spawn_generators(123, trials):
            process = BipsProcess(c9, 0, seed=rng)
            process.run(t)
            hits += process.is_infected(3)
        empirical = hits / trials
        standard_error = np.sqrt(exact_probability * (1 - exact_probability) / trials)
        assert abs(empirical - exact_probability) < 5 * standard_error + 1e-9

    def test_evolve_validates_shape(self, petersen):
        engine = ExactBips(petersen, 0)
        with pytest.raises(ValueError, match="shape"):
            engine.evolve(np.ones(4), 1)
        with pytest.raises(ValueError, match="non-negative"):
            engine.evolve(engine.initial_distribution(), -1)


class TestInfectionTimeLaw:
    def test_pmf_plus_tail_is_one(self, petersen):
        engine = ExactBips(petersen, 0)
        pmf, tail = engine.infection_time_distribution(30)
        assert pmf.sum() + tail == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_k2_complete2_is_deterministic(self):
        engine = ExactBips(generators.complete(2), 0)
        pmf, tail = engine.infection_time_distribution(3)
        assert pmf[1] == pytest.approx(1.0)
        assert tail == pytest.approx(0.0)

    def test_expected_infection_time_matches_pmf(self, c9):
        engine = ExactBips(c9, 0)
        pmf, tail = engine.infection_time_distribution(400)
        assert tail < 1e-10
        from_pmf = float(np.dot(np.arange(401), pmf))
        assert engine.expected_infection_time() == pytest.approx(from_pmf, rel=1e-6)

    def test_expectation_against_monte_carlo(self):
        graph = generators.complete(5)
        engine = ExactBips(graph, 0)
        exact_expectation = engine.expected_infection_time()
        trials = 2000
        total = 0
        for rng in spawn_generators(7, trials):
            process = BipsProcess(graph, 0, seed=rng)
            while not process.is_complete:
                process.step()
            total += process.infection_time
        empirical = total / trials
        assert abs(empirical - exact_expectation) < 0.15


class TestSizeGuard:
    def test_rejects_large_graphs(self):
        with pytest.raises(ExactEngineError, match="2\\^n"):
            ExactBips(generators.cycle(30), 0)
