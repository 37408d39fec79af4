"""Tests for the message-loss extension of COBRA and BIPS."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn_generators
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.runner import run_process
from repro.errors import ProcessError
from repro.exact.bips_exact import ExactBips
from repro.exact.subsets import mask_from_vertices
from repro.graphs import generators


class TestValidation:
    def test_loss_range(self, petersen):
        with pytest.raises(ProcessError, match="loss_probability"):
            CobraProcess(petersen, 0, loss_probability=1.0)
        with pytest.raises(ProcessError, match="loss_probability"):
            BipsProcess(petersen, 0, loss_probability=-0.1)

    def test_zero_loss_is_default(self, petersen):
        assert CobraProcess(petersen, 0).loss_probability == 0.0
        assert BipsProcess(petersen, 0).loss_probability == 0.0


class TestLossyCobra:
    def test_can_die_and_death_is_absorbing(self):
        # With heavy loss on a tiny graph a single token dies quickly.
        graph = generators.cycle(5)
        for seed in range(50):
            process = CobraProcess(graph, 0, loss_probability=0.9, seed=seed)
            for _ in range(30):
                record = process.step()
                if record.active_count == 0:
                    assert process.is_extinct
                    follow_up = process.step()
                    assert follow_up.active_count == 0
                    assert follow_up.transmissions == 0
                    return
        pytest.fail("no extinction in 50 heavy-loss runs (p=0.9, k=2)")

    def test_lossless_never_extinct(self, small_expander):
        process = CobraProcess(small_expander, 0, seed=0)
        run_process(process, raise_on_timeout=True)
        assert not process.is_extinct

    def test_runner_reports_extinction(self):
        graph = generators.cycle(5)
        extinctions = 0
        for seed in range(30):
            process = CobraProcess(graph, 0, loss_probability=0.9, seed=seed)
            result = run_process(process, max_rounds=200)
            if result.extinct:
                extinctions += 1
                assert not result.completed
        assert extinctions > 0

    def test_supercritical_loss_slows_but_covers(self, small_expander):
        lossless = []
        lossy = []
        for rng in spawn_generators(0, 40):
            process = CobraProcess(small_expander, 0, seed=rng)
            lossless.append(run_process(process, raise_on_timeout=True).completion_time)
        covered = 0
        for rng in spawn_generators(1, 40):
            process = CobraProcess(small_expander, 0, loss_probability=0.2, seed=rng)
            result = run_process(process, max_rounds=5000)
            if result.completed:
                covered += 1
                lossy.append(result.completion_time)
        assert covered > 10
        assert np.mean(lossy) > np.mean(lossless)

    def test_transmissions_count_sent_not_delivered(self, petersen):
        process = CobraProcess(petersen, 0, loss_probability=0.5, seed=2)
        record = process.step()
        # One active vertex always SENDS k=2 messages, lost or not.
        assert record.transmissions == 2


class TestLossyBips:
    def test_source_survives_total_loss_environment(self, petersen):
        process = BipsProcess(petersen, 0, loss_probability=0.95, seed=0)
        for _ in range(50):
            process.step()
            assert process.is_infected(0)

    def test_full_state_not_absorbing_under_loss(self):
        # Start BIPS at saturation by stepping a lossless process to
        # full, then check that under loss vertices drop out.
        graph = generators.complete(6)
        process = BipsProcess(graph, 0, loss_probability=0.5, seed=1)
        process._active[:] = True  # controlled state injection
        dropped = False
        for _ in range(20):
            record = process.step()
            if record.active_count < 6:
                dropped = True
                break
        assert dropped, "full state stayed absorbing despite loss"

    def test_exact_probability_formula(self):
        # Petersen, infected {0}: neighbour u has q = 1/3 per draw,
        # scaled by (1-p); with k=2, p(infect) = 1 - (1 - (1-p)/3)^2.
        engine = ExactBips(generators.petersen(), 0, loss_probability=0.4)
        probabilities = engine.infection_probabilities(mask_from_vertices([0]))
        neighbor = int(generators.petersen().neighbors(0)[0])
        expected = 1 - (1 - 0.6 / 3) ** 2
        assert probabilities[neighbor] == pytest.approx(expected)

    def test_monte_carlo_agreement(self):
        graph = generators.complete(5)
        engine = ExactBips(graph, 0, loss_probability=0.3)
        t = 3
        exact = engine.membership_probability(2, t)
        trials = 3000
        hits = 0
        for rng in spawn_generators(7, trials):
            process = BipsProcess(graph, 0, loss_probability=0.3, seed=rng)
            process.run(t)
            hits += process.is_infected(2)
        standard_error = np.sqrt(max(exact * (1 - exact), 1e-4) / trials)
        assert abs(hits / trials - exact) < 5 * standard_error

    def test_more_loss_means_slower_spread(self, small_expander):
        def mean_coverage_after(loss: float, rounds: int = 8) -> float:
            total = 0
            for rng in spawn_generators(11, 30):
                process = BipsProcess(small_expander, 0, loss_probability=loss, seed=rng)
                process.run(rounds)
                total += process.cumulative_count
            return total / 30

        assert mean_coverage_after(0.0) > mean_coverage_after(0.4)
