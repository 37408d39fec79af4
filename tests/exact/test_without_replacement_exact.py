"""Exact-engine tests for without-replacement sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro._rng import spawn_generators
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.subsets import mask_from_vertices, popcount_table
from repro.graphs import generators
from repro.theory.growth import expected_next_infected_size


class TestExactBipsWithoutReplacement:
    def test_hypergeometric_probability(self, petersen):
        engine = ExactBips(petersen, 0, branching=2.0, replacement=False)
        # Infected = {0}; a neighbour u of 0 has d=3, a=1: miss =
        # C(2,2)/C(3,2) = 1/3, so p = 2/3.
        probabilities = engine.infection_probabilities(1 << 0)
        neighbor = int(petersen.neighbors(0)[0])
        assert probabilities[neighbor] == pytest.approx(2 / 3)

    def test_saturated_overlap_gives_certainty(self):
        # On a cycle with k=2 distinct picks, a vertex with one infected
        # neighbour is infected with probability C(1,2)/C(2,2) -> miss 0?
        # No: d=2, a=1 -> miss = C(1,2)/C(2,2) = 0 -> p = 1.
        graph = generators.cycle(9)
        engine = ExactBips(graph, 0, branching=2.0, replacement=False)
        probabilities = engine.infection_probabilities(mask_from_vertices([0]))
        assert probabilities[1] == pytest.approx(1.0)
        assert probabilities[8] == pytest.approx(1.0)
        assert probabilities[4] == pytest.approx(0.0)

    def test_fractional_law(self):
        # K5, infected {0}; vertex u: d=4, a=1.  k=1, rho=0.5:
        # miss = (3/4) * (0.5 + 0.5 * (2/3)) = 0.625 -> p = 0.375.
        graph = generators.complete(5)
        engine = ExactBips(graph, 0, branching=1.5, replacement=False)
        probabilities = engine.infection_probabilities(mask_from_vertices([0]))
        assert probabilities[1] == pytest.approx(0.375)

    def test_mass_conserved(self, petersen):
        engine = ExactBips(petersen, 0, branching=2.0, replacement=False)
        for t in (1, 3, 6):
            assert engine.distribution_at(t).sum() == pytest.approx(1.0)

    def test_monte_carlo_agreement(self):
        graph = generators.complete(6)
        engine = ExactBips(graph, 0, branching=2.0, replacement=False)
        t = 3
        exact = engine.membership_probability(4, t)
        trials = 4000
        hits = 0
        for rng in spawn_generators(21, trials):
            process = BipsProcess(graph, 0, branching=2.0, replacement=False, seed=rng)
            process.run(t)
            hits += process.is_infected(4)
        empirical = hits / trials
        standard_error = math.sqrt(max(exact * (1 - exact), 1e-4) / trials)
        assert abs(empirical - exact) < 5 * standard_error


class TestExactCobraWithoutReplacement:
    def test_choice_law_is_uniform_over_subsets(self, petersen):
        # One active vertex's next set is its choice set.
        engine = ExactCobra(petersen, branching=2.0, replacement=False)
        law = engine.step_distribution(1 << 0)
        support = np.flatnonzero(law)
        assert len(support) == 3  # C(3, 2) subsets
        for subset_mask in support:
            assert int(popcount_table(10)[subset_mask]) == 2
            assert law[subset_mask] == pytest.approx(1 / 3)

    def test_fractional_choice_law_mixes_sizes(self, petersen):
        engine = ExactCobra(petersen, branching=1.5, replacement=False)
        law = engine.step_distribution(1 << 0)
        popcount = popcount_table(10)
        mass_by_size: dict[int, float] = {}
        for subset_mask in np.flatnonzero(law):
            size = int(popcount[subset_mask])
            mass_by_size[size] = mass_by_size.get(size, 0.0) + float(law[subset_mask])
        assert mass_by_size[1] == pytest.approx(0.5)
        assert mass_by_size[2] == pytest.approx(0.5)

    def test_step_mass_conserved(self, petersen):
        engine = ExactCobra(petersen, branching=2.0, replacement=False)
        for mask in (0b1, 0b1001, 0b1111):
            assert engine.step_distribution(mask).sum() == pytest.approx(1.0)

    def test_cycle_flooding_is_deterministic(self):
        graph = generators.cycle(7)
        engine = ExactCobra(graph, branching=2.0, replacement=False)
        distribution = engine.step_distribution(1 << 0)
        expected_mask = mask_from_vertices([1, 6])
        assert distribution[expected_mask] == pytest.approx(1.0)

    def test_monte_carlo_occupation(self, petersen):
        engine = ExactCobra(petersen, branching=2.0, replacement=False)
        t = 3
        exact = engine.occupation_probabilities([0], t)
        trials = 3000
        counts = np.zeros(10)
        for rng in spawn_generators(31, trials):
            process = CobraProcess(petersen, 0, branching=2.0, replacement=False, seed=rng)
            process.run(t)
            counts += process.active_mask
        empirical = counts / trials
        standard_error = np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(empirical - exact) < 5 * standard_error + 2e-2)


class TestGrowthFormulaWithoutReplacement:
    def test_matches_exact_engine_mean(self, petersen):
        infected = [0, 2, 6]
        formula = expected_next_infected_size(
            petersen, infected, 0, branching=2.0, replacement=False
        )
        engine = ExactBips(petersen, 0, branching=2.0, replacement=False)
        distribution = engine.step_distribution(mask_from_vertices(infected))
        sizes = popcount_table(10).astype(np.float64)
        assert formula == pytest.approx(float((distribution * sizes).sum()))

    def test_distinct_draws_dominate_replacement(self, petersen):
        # Distinct contacts hit the infected set at least as often.
        for infected in ([0], [0, 1], [0, 3, 5, 8]):
            with_replacement = expected_next_infected_size(
                petersen, infected, 0, branching=2.0
            )
            without = expected_next_infected_size(
                petersen, infected, 0, branching=2.0, replacement=False
            )
            assert without >= with_replacement - 1e-12
