"""Tests for :class:`~repro.core.cobra.CobraProcess` semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cobra import CobraProcess
from repro.errors import ProcessError
from repro.graphs import generators


class TestInitialState:
    def test_single_start(self, petersen):
        process = CobraProcess(petersen, 3, seed=0)
        assert list(process.active_vertices()) == [3]
        assert process.round_index == 0
        assert process.cumulative_count == 0  # paper: cover unions from t=1

    def test_start_set(self, petersen):
        process = CobraProcess(petersen, [1, 4, 4], seed=0)
        assert list(process.active_vertices()) == [1, 4]

    def test_include_start_in_cover(self, petersen):
        process = CobraProcess(petersen, 3, seed=0, include_start_in_cover=True)
        assert process.cumulative_count == 1
        assert process.first_hit_times()[3] == 0

    def test_invalid_start(self, petersen):
        with pytest.raises(ProcessError):
            CobraProcess(petersen, 10, seed=0)

    def test_invalid_branching(self, petersen):
        with pytest.raises(ProcessError):
            CobraProcess(petersen, 0, branching=0.5)

    def test_branching_property(self, petersen):
        assert CobraProcess(petersen, 0, branching=1.25).branching == 1.25


class TestStepSemantics:
    def test_next_set_is_exactly_the_chosen_set(self):
        # On K2 the only neighbour of 0 is 1 and vice versa, so the
        # active set must alternate {0} -> {1} -> {0} deterministically:
        # an active vertex leaves the set unless re-chosen.
        graph = generators.complete(2)
        process = CobraProcess(graph, 0, seed=0)
        process.step()
        assert list(process.active_vertices()) == [1]
        process.step()
        assert list(process.active_vertices()) == [0]

    def test_k2_cover_time_on_k2_is_two(self):
        # Paper semantics: C_0 = {0} does not count, so covering K2
        # needs C_1 = {1} and C_2 = {0}.
        graph = generators.complete(2)
        process = CobraProcess(graph, 0, seed=0)
        process.step()
        assert not process.is_complete
        process.step()
        assert process.is_complete
        assert process.cover_time == 2

    def test_include_start_makes_k2_cover_in_one(self):
        graph = generators.complete(2)
        process = CobraProcess(graph, 0, seed=0, include_start_in_cover=True)
        process.step()
        assert process.is_complete
        assert process.cover_time == 1

    def test_active_set_stays_within_neighborhoods(self, petersen):
        process = CobraProcess(petersen, 0, seed=1)
        previous = process.active_mask
        for _ in range(10):
            process.step()
            current = process.active_mask
            reachable = np.zeros(petersen.n_vertices, dtype=bool)
            for u in np.flatnonzero(previous):
                reachable[petersen.neighbors(int(u))] = True
            assert not np.any(current & ~reachable)
            previous = current

    def test_active_count_at_most_branching_times_previous(self, petersen):
        process = CobraProcess(petersen, 0, branching=2, seed=2)
        previous = 1
        for _ in range(8):
            record = process.step()
            assert record.active_count <= 2 * previous
            previous = record.active_count

    def test_bipartite_alternation(self):
        # On an even cycle a single token's descendants stay on one
        # colour class per round.
        graph = generators.cycle(8)
        process = CobraProcess(graph, 0, seed=3)
        for t in range(1, 7):
            process.step()
            parity = t % 2
            assert all(int(v) % 2 == parity for v in process.active_vertices())

    def test_record_consistency(self, small_expander):
        process = CobraProcess(small_expander, 0, seed=4)
        covered_before = process.cumulative_count
        for _ in range(12):
            record = process.step()
            assert record.cumulative_count == covered_before + record.newly_reached
            assert record.round_index == process.round_index
            assert record.active_count == process.active_count
            covered_before = record.cumulative_count

    def test_transmissions_equal_branching_times_active(self, petersen):
        process = CobraProcess(petersen, 0, branching=2, seed=5)
        active = 1
        for _ in range(6):
            record = process.step()
            assert record.transmissions == 2 * active
            active = record.active_count


class TestFractionalBranching:
    def test_rho_zero_is_single_walker(self, petersen):
        process = CobraProcess(petersen, 0, branching=1.0, seed=6)
        for _ in range(20):
            record = process.step()
            assert record.active_count == 1
            assert record.transmissions == 1

    def test_fractional_transmissions_between_bounds(self, small_expander):
        process = CobraProcess(small_expander, 0, branching=1.5, seed=7)
        for _ in range(15):
            active = process.active_count
            record = process.step()
            assert active <= record.transmissions <= 2 * active

    def test_fractional_branching_covers(self, small_expander):
        process = CobraProcess(small_expander, 0, branching=1.5, seed=8)
        for _ in range(500):
            if process.is_complete:
                break
            process.step()
        assert process.is_complete


class TestCoverTracking:
    def test_cover_time_set_once(self, small_expander):
        process = CobraProcess(small_expander, 0, seed=9)
        while not process.is_complete:
            process.step()
        cover = process.cover_time
        process.step()
        assert process.cover_time == cover

    def test_cumulative_monotone(self, small_expander):
        process = CobraProcess(small_expander, 0, seed=10)
        previous = 0
        for _ in range(30):
            record = process.step()
            assert record.cumulative_count >= previous
            previous = record.cumulative_count

    def test_first_hits_are_always_recorded(self, petersen):
        with pytest.raises(TypeError, match="track_first_hits"):
            CobraProcess(petersen, 0, seed=12, track_first_hits=False)

    def test_first_hits_match_cover(self, small_expander):
        process = CobraProcess(small_expander, 0, seed=11)
        while not process.is_complete:
            process.step()
        hits = process.first_hit_times()
        assert hits.max() == process.cover_time
        # Every vertex was eventually hit.
        assert hits.min() >= 0


class TestDeterminism:
    def test_same_seed_same_trajectory(self, small_expander):
        a = CobraProcess(small_expander, 0, seed=42)
        b = CobraProcess(small_expander, 0, seed=42)
        for _ in range(10):
            assert np.array_equal(a.step(), b.step())

    def test_different_seeds_diverge(self, small_expander):
        a = CobraProcess(small_expander, 0, seed=1)
        b = CobraProcess(small_expander, 0, seed=2)
        diverged = any(a.step() != b.step() for _ in range(10))
        assert diverged
