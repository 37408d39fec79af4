"""Tests for the exact COBRA cover-time law."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn_generators
from repro.core.batch import batch_cobra_cover_times
from repro.core.cobra import CobraProcess
from repro.core.runner import run_process
from repro.errors import ExactEngineError
from repro.exact.cover_exact import ExactCobraCover
from repro.graphs import generators


class TestCoverLaw:
    def test_pmf_plus_tail_is_one(self):
        engine = ExactCobraCover(generators.complete(5))
        pmf, tail = engine.cover_time_distribution(0, t_max=40)
        assert pmf.sum() + tail == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_k2_cover_law_on_k2(self):
        # K2 from vertex 0 covers deterministically at t=2 under the
        # paper's union-from-round-1 semantics.
        engine = ExactCobraCover(generators.complete(2))
        pmf, tail = engine.cover_time_distribution(0, t_max=5)
        assert pmf[2] == pytest.approx(1.0)
        assert tail == pytest.approx(0.0)

    def test_include_start_shifts_k2(self):
        engine = ExactCobraCover(generators.complete(2), include_start_in_cover=True)
        pmf, _ = engine.cover_time_distribution(0, t_max=5)
        assert pmf[1] == pytest.approx(1.0)

    def test_already_covered_start(self):
        engine = ExactCobraCover(generators.complete(3), include_start_in_cover=True)
        pmf, tail = engine.cover_time_distribution([0, 1, 2], t_max=5)
        assert pmf[0] == pytest.approx(1.0)
        assert tail == pytest.approx(0.0)
        assert np.array_equal(engine.survival_series([0, 1, 2], 5), np.zeros(6))

    def test_impossible_early_rounds_have_zero_mass(self):
        # With branching 2 the union after t rounds has at most
        # 2 + 4 + ... + 2^t vertices, so P(cov <= 1) = 0 on K5 from a
        # single start (round 1 reaches at most 2 of the 5 vertices),
        # while two rounds can already finish (e.g. C1 = {1,2},
        # C2 = {0,3,4}).
        engine = ExactCobraCover(generators.complete(5))
        pmf, _ = engine.cover_time_distribution(0, t_max=30)
        assert pmf[0] == 0.0
        assert pmf[1] == 0.0
        assert pmf[2] > 0.0

    def test_matches_monte_carlo(self):
        graph = generators.complete(5)
        engine = ExactCobraCover(graph)
        exact_expectation = engine.expected_cover_time(0)
        trials = 3000
        total = 0
        for rng in spawn_generators(3, trials):
            process = CobraProcess(graph, 0, seed=rng)
            result = run_process(process, raise_on_timeout=True)
            total += result.completion_time
        empirical = total / trials
        assert abs(empirical - exact_expectation) < 0.15

    def test_survival_series_monotone(self):
        engine = ExactCobraCover(generators.cycle(6))
        survival = engine.survival_series(0, 30)
        assert np.all(np.diff(survival) <= 1e-12)
        assert survival[-1] < 0.05

    def test_expected_cover_dominated_by_duality_hitting(self):
        # cov = max_v Hit(v) >= Hit(v) for each v; so E[cov] must
        # dominate every single-target expected hitting time.
        from repro.exact.cobra_exact import ExactCobra

        graph = generators.cycle(6)
        cover_engine = ExactCobraCover(graph)
        expected_cover = cover_engine.expected_cover_time(0)
        walk_engine = ExactCobra(graph, branching=2.0)
        for target in range(1, 6):
            survival = walk_engine.hitting_survival_series([0], target, 500)
            expected_hit = float(survival.sum())
            assert expected_cover >= expected_hit - 1e-9

    def test_size_limit(self):
        with pytest.raises(ExactEngineError, match="limit of 10 vertices"):
            ExactCobraCover(generators.cycle(11))


class TestSurvivalSeries:
    def test_summed_tail_matches_pmf_tail_sums(self):
        # P(cov > t) is summed from the unabsorbed state, so it keeps its
        # relative precision deep in the tail, where 1 - cumsum(pmf)
        # cancels down to rounding noise.
        engine = ExactCobraCover(generators.complete(7))
        survival = engine.survival_series(0, 60)
        pmf, _ = engine.cover_time_distribution(0, t_max=60, tolerance=0.0)
        tail_sums = np.cumsum(pmf[::-1])[::-1]  # tail_sums[s] = sum of pmf[s:], small end first
        checked = np.flatnonzero(survival > 1e-12)
        assert checked.size > 15
        for t in checked:
            assert survival[t] == pytest.approx(tail_sums[t + 1], rel=1e-9, abs=0.0)


class TestPetersenCoverLaw:
    """n = 10: the largest graph the exact cover law accepts."""

    @pytest.fixture(scope="class")
    def law(self):
        return ExactCobraCover(generators.petersen()).cover_time_distribution(0, t_max=200)

    def test_pmf_plus_tail_is_one(self, law):
        pmf, tail = law
        assert abs(pmf.sum() + tail - 1.0) < 1e-12
        assert tail < 1e-12

    def test_mean_inside_batch_confidence_interval(self, law):
        pmf, _ = law
        exact_mean = float(np.dot(np.arange(pmf.size), pmf))
        times = batch_cobra_cover_times(generators.petersen(), 0, n_replicas=4000, seed=10)
        half_width = 3.2905 * times.std(ddof=1) / np.sqrt(times.size)  # 99.9% two-sided
        assert abs(times.mean() - exact_mean) < half_width
