"""Tests for the Theorem 4 duality verification (the paper's core identity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphPropertyError
from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.cover_exact import ExactCobraCover
from repro.exact.duality import duality_gap, duality_gaps, duality_series
from repro.graphs import from_edges, generators


class TestDualityExact:
    @pytest.mark.parametrize("branching", [1.0, 1.5, 2.0, 3.0])
    def test_petersen_all_branchings(self, petersen, branching):
        assert duality_gap(petersen, [0], 7, 10, branching=branching) < 1e-10

    def test_multi_vertex_start_set(self, petersen):
        assert duality_gap(petersen, [0, 2, 8], 5, 10) < 1e-10

    def test_complete_graph(self):
        assert duality_gap(generators.complete(6), [1], 4, 12) < 1e-10

    def test_odd_cycle(self):
        assert duality_gap(generators.cycle(9), [0, 3], 6, 12) < 1e-10

    def test_even_cycle_bipartite(self):
        # Bipartite graphs are excluded from the *spectral* theorems but
        # the duality identity itself has no such hypothesis.
        assert duality_gap(generators.cycle(8), [0], 3, 12) < 1e-10

    def test_random_regular(self):
        graph = generators.random_regular(10, 3, seed=5)
        assert duality_gap(graph, [0], 9, 10) < 1e-10

    def test_irregular_graphs(self):
        # The paper states Theorem 4 for regular graphs, but the proof
        # never uses regularity; verify on a path and a star.
        assert duality_gap(generators.path(6), [0], 5, 12) < 1e-10
        assert duality_gap(generators.star(7), [1], 3, 12) < 1e-10

    def test_source_in_start_set_is_trivial(self, petersen):
        cobra_side, bips_side = duality_series(petersen, [0, 4], 4, 6)
        assert np.allclose(cobra_side, 0.0)
        assert np.allclose(bips_side, 0.0)


class TestWithLoss:
    """The duality also survives independent per-message loss.

    Thinning each draw with probability ``p`` changes both processes'
    choice-set law identically, which is all the Theorem 4 proof needs.
    """

    @pytest.mark.parametrize("loss", [0.1, 0.3, 0.6])
    def test_petersen(self, petersen, loss):
        assert duality_gap(petersen, [0], 7, 10, loss_probability=loss) < 1e-10

    def test_loss_with_fractional_branching(self):
        gap = duality_gap(
            generators.complete(6), [1, 2], 4, 10, branching=1.5, loss_probability=0.25
        )
        assert gap < 1e-10

    def test_lossy_walk_can_die_without_hitting(self):
        # With k=1 and loss, the single walk dies with constant
        # probability per round, so the hitting survival plateaus at a
        # strictly positive level instead of vanishing.
        cobra_side, bips_side = duality_series(
            generators.cycle(9), [0], 4, 60, branching=1.0, loss_probability=0.3
        )
        assert cobra_side[-1] > 0.2
        assert abs(cobra_side[-1] - bips_side[-1]) < 1e-10

    def test_differs_from_lossless(self, petersen):
        lossless, _ = duality_series(petersen, [0], 7, 6)
        lossy, _ = duality_series(petersen, [0], 7, 6, loss_probability=0.3)
        assert not np.allclose(lossless, lossy)


class TestDualitySeries:
    def test_t0_indicator(self, petersen):
        cobra_side, bips_side = duality_series(petersen, [0], 7, 0)
        assert cobra_side[0] == pytest.approx(1.0)
        assert bips_side[0] == pytest.approx(1.0)

    def test_both_sides_decrease(self, petersen):
        cobra_side, bips_side = duality_series(petersen, [0], 7, 10)
        assert np.all(np.diff(cobra_side) <= 1e-12)
        assert np.all(np.diff(bips_side) <= 1e-12)

    def test_series_lengths(self, petersen):
        cobra_side, bips_side = duality_series(petersen, [0], 7, 6)
        assert cobra_side.shape == (7,)
        assert bips_side.shape == (7,)

    def test_tail_vanishes(self, petersen):
        # Hit_0(7) is finite a.s., so both sides go to 0.
        cobra_side, bips_side = duality_series(petersen, [0], 7, 50)
        assert cobra_side[-1] < 1e-5
        assert bips_side[-1] < 1e-5


class TestDualityGaps:
    CASES = [
        (generators.petersen(), [0], 7, 2.0, 0.0),
        (generators.complete(6), [1, 2], 4, 1.5, 0.3),
        (generators.cycle(9), 0, 5, 1.0, 0.6),
    ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_equals_one_gap_per_case(self, jobs):
        expected = [
            duality_gap(graph, start, source, 6, branching=k, loss_probability=loss)
            for graph, start, source, k, loss in self.CASES
        ]
        assert duality_gaps(self.CASES, 6, jobs=jobs) == expected


class TestIsolatedVertex:
    """A vertex with no neighbour has no draw law: the exact engines refuse it."""

    ENTRY_POINTS = {
        "ExactCobra": lambda graph: ExactCobra(graph),
        "ExactBips": lambda graph: ExactBips(graph, 0),
        "ExactCobraCover": lambda graph: ExactCobraCover(graph),
        "duality_series": lambda graph: duality_series(graph, [0], 2, 3),
        "duality_gap": lambda graph: duality_gap(graph, [0], 2, 3),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_rejected_naming_the_vertex(self, entry):
        # The path 0-1-2 plus vertex 3 on its own.
        graph = from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(GraphPropertyError, match="isolated vertex 3"):
            self.ENTRY_POINTS[entry](graph)

    def test_smallest_graph_still_solves(self):
        graph = generators.complete(2)
        cobra_side, bips_side = duality_series(graph, [0], 1, 3)
        assert np.allclose(cobra_side, [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(bips_side, cobra_side, rtol=0.0, atol=1e-15)
        pmf, tail = ExactCobraCover(graph).cover_time_distribution(0, t_max=3)
        assert pmf[1] == pytest.approx(0.0) and pmf[2] == pytest.approx(1.0)
