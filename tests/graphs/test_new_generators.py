"""Tests for the Watts–Strogatz and Barabási–Albert generators."""

from __future__ import annotations

import pytest

from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs.properties import is_connected


class TestWattsStrogatz:
    def test_connected_and_right_size(self):
        graph = generators.watts_strogatz(64, 6, 0.2, seed=1)
        assert graph.n_vertices == 64
        assert is_connected(graph)
        # Rewiring preserves the edge count of the ring lattice.
        assert graph.n_edges == 64 * 3

    def test_zero_rewire_is_the_ring_lattice(self):
        graph = generators.watts_strogatz(20, 4, 0.0, seed=0)
        assert graph.is_regular
        assert graph.regular_degree == 4

    def test_seed_determinism(self):
        import numpy as np

        a = generators.watts_strogatz(48, 4, 0.3, seed=7)
        b = generators.watts_strogatz(48, 4, 0.3, seed=7)
        assert np.array_equal(a.indices, b.indices)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GraphConstructionError, match="even"):
            generators.watts_strogatz(20, 3, 0.2)
        with pytest.raises(GraphConstructionError, match="rewire"):
            generators.watts_strogatz(20, 4, 1.5)


class TestBarabasiAlbert:
    def test_connected_heavy_tailed(self):
        graph = generators.barabasi_albert(128, 3, seed=2)
        assert graph.n_vertices == 128
        assert is_connected(graph)
        assert graph.min_degree >= 3
        # Preferential attachment grows hubs well beyond the minimum.
        assert graph.max_degree > 3 * graph.min_degree

    def test_seed_determinism(self):
        import numpy as np

        a = generators.barabasi_albert(64, 2, seed=5)
        b = generators.barabasi_albert(64, 2, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GraphConstructionError, match="attach"):
            generators.barabasi_albert(10, 0)
        with pytest.raises(GraphConstructionError, match="attach"):
            generators.barabasi_albert(10, 10)
