"""Cross-module integration: simulators vs exact engines vs theory.

These tests tie at least three subsystems together each, checking the
kind of consistency a downstream user relies on: the Monte-Carlo
simulators, the exact distribution engines, the theory oracle, and the
duality all describing the same processes.
"""

from __future__ import annotations

import numpy as np

from repro import BipsProcess, CobraProcess, graphs
from repro._rng import spawn_generators
from repro.analysis.fitting import fit_log_linear
from repro.analysis.stats import summarize
from repro.core.runner import sample_completion_times
from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.graphs.spectral import lambda_second
from repro.theory.bounds import cover_time_bound
from repro.theory.growth import expected_next_infected_size


class TestSimulatorVsExactEngine:
    def test_bips_infection_time_mean_matches_exact(self):
        graph = graphs.petersen()
        exact_expectation = ExactBips(graph, 0).expected_infection_time()
        times = sample_completion_times(
            lambda rng: BipsProcess(graph, 0, seed=rng), 3000, seed=5
        )
        stats = summarize(times)
        # 5-sigma agreement between Monte-Carlo and the exact chain.
        assert abs(stats.mean - exact_expectation) < 5 * stats.sem + 1e-9

    def test_cobra_hitting_tail_matches_exact(self):
        graph = graphs.petersen()
        t = 4
        exact_tail = ExactCobra(graph).hitting_survival([0], 7, t)
        trials = 3000
        misses = 0
        for rng in spawn_generators(11, trials):
            process = CobraProcess(graph, 0, seed=rng)
            process.run(t)
            misses += process.first_hit_times()[7] < 0
        empirical = misses / trials
        standard_error = np.sqrt(max(exact_tail * (1 - exact_tail), 1e-4) / trials)
        assert abs(empirical - exact_tail) < 5 * standard_error

    def test_bips_one_step_mean_size_matches_formula(self, small_expander):
        # Simulate many one-step transitions from a fixed set and compare
        # the mean against the exact conditional expectation (Eq. (3)).
        infected = list(range(8))
        expected = expected_next_infected_size(small_expander, infected, 0)
        trials = 3000
        total = 0
        for rng in spawn_generators(13, trials):
            process = BipsProcess(small_expander, 0, seed=rng)
            process._active[:] = False            # controlled state injection
            process._active[infected] = True
            record = process.step()
            total += record.active_count
        mean = total / trials
        assert abs(mean - expected) < 0.15


class TestTheoremShapes:
    def test_cover_time_is_logarithmic_in_n(self):
        ns, means = [], []
        for i, n in enumerate((128, 256, 512, 1024)):
            graph = graphs.random_regular(n, 8, seed=20 + i)
            times = sample_completion_times(
                lambda rng: CobraProcess(graph, 0, seed=rng), 10, seed=(7, n)
            )
            ns.append(float(n))
            means.append(float(times.mean()))
        fit = fit_log_linear(ns, means)
        assert fit.r_squared > 0.9
        assert fit.slope > 0

    def test_measured_cover_below_theorem1_bound(self):
        graph = graphs.random_regular(512, 8, seed=30)
        lam = lambda_second(graph)
        times = sample_completion_times(
            lambda rng: CobraProcess(graph, 0, seed=rng), 20, seed=8
        )
        assert times.max() < cover_time_bound(512, lam)

    def test_duality_transfer_cover_vs_infection(self):
        # Theorem 4's consequence: cover and infection times are the
        # same order on the same graph.
        graph = graphs.random_regular(256, 8, seed=31)
        cover = sample_completion_times(
            lambda rng: CobraProcess(graph, 0, seed=rng), 20, seed=9
        ).mean()
        infection = sample_completion_times(
            lambda rng: BipsProcess(graph, 0, seed=rng), 20, seed=10
        ).mean()
        assert 0.5 < infection / cover < 2.0


class TestFullPipeline:
    def test_run_process_traces_feed_analysis(self, medium_expander):
        from repro.analysis.phases import split_phases
        from repro.theory.bounds import phase_boundary_size

        lam = lambda_second(medium_expander)
        process = BipsProcess(medium_expander, 0, seed=14)
        sizes = [process.active_count]
        result_cap = 10_000
        while not process.is_complete and process.round_index < result_cap:
            sizes.append(process.step().active_count)
        assert process.is_complete
        breakdown = split_phases(
            np.asarray(sizes),
            medium_expander.n_vertices,
            phase_boundary_size(medium_expander.n_vertices, lam, constant=1.0),
        )
        assert breakdown.t_full == process.infection_time
        assert breakdown.t_boundary <= breakdown.t_mid <= breakdown.t_full

    def test_public_api_surface(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"
