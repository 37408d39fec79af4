"""Tests for the graph families in :mod:`repro.graphs.generators`."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs.build import from_edges
from repro.graphs.properties import is_bipartite, is_connected


class TestComplete:
    def test_structure(self):
        graph = generators.complete(6)
        assert graph.n_vertices == 6
        assert graph.n_edges == 15
        assert graph.regular_degree == 5

    def test_minimum_size(self):
        with pytest.raises(GraphConstructionError):
            generators.complete(1)

    @pytest.mark.parametrize("n", [2, 3, 7, 64])
    def test_equals_edge_list_build(self, n):
        graph = generators.complete(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        reference = from_edges(n, edges, name=f"complete(n={n})")
        assert graph.name == reference.name
        for ours, theirs in ((graph.indptr, reference.indptr), (graph.indices, reference.indices)):
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)
        assert graph.regular_degree == reference.regular_degree == n - 1


class TestCycleAndPath:
    def test_cycle(self):
        graph = generators.cycle(7)
        assert graph.regular_degree == 2
        assert graph.n_edges == 7
        assert is_connected(graph)

    def test_cycle_parity_bipartiteness(self):
        assert is_bipartite(generators.cycle(8))
        assert not is_bipartite(generators.cycle(9))

    def test_cycle_min_size(self):
        with pytest.raises(GraphConstructionError):
            generators.cycle(2)

    def test_path(self):
        graph = generators.path(5)
        assert graph.n_edges == 4
        assert graph.degree(0) == 1
        assert graph.degree(2) == 2

    def test_star(self):
        graph = generators.star(6)
        assert graph.degree(0) == 5
        assert all(graph.degree(leaf) == 1 for leaf in range(1, 6))


class TestCompleteBipartite:
    def test_structure(self):
        graph = generators.complete_bipartite(2, 3)
        assert graph.n_vertices == 5
        assert graph.n_edges == 6
        assert is_bipartite(graph)

    def test_regular_iff_balanced(self):
        assert generators.complete_bipartite(3, 3).is_regular
        assert not generators.complete_bipartite(2, 3).is_regular


class TestPetersen:
    def test_structure(self):
        graph = generators.petersen()
        assert graph.n_vertices == 10
        assert graph.n_edges == 15
        assert graph.regular_degree == 3
        assert is_connected(graph)
        assert not is_bipartite(graph)

    def test_no_triangles(self):
        graph = generators.petersen()
        for u in range(10):
            for v in graph.neighbors(u):
                for w in graph.neighbors(int(v)):
                    if w != u:
                        assert not graph.has_edge(u, int(w))


class TestHypercube:
    def test_structure(self):
        graph = generators.hypercube(4)
        assert graph.n_vertices == 16
        assert graph.regular_degree == 4
        assert graph.n_edges == 32
        assert is_bipartite(graph)
        assert is_connected(graph)

    def test_adjacency_is_bit_flips(self):
        graph = generators.hypercube(3)
        for u in range(8):
            for v in graph.neighbors(u):
                assert bin(u ^ int(v)).count("1") == 1

    def test_min_dimension(self):
        with pytest.raises(GraphConstructionError):
            generators.hypercube(0)


class TestTorus:
    def test_2d(self):
        graph = generators.torus((4, 5))
        assert graph.n_vertices == 20
        assert graph.regular_degree == 4
        assert is_connected(graph)

    def test_3d(self):
        graph = generators.torus((3, 3, 3))
        assert graph.n_vertices == 27
        assert graph.regular_degree == 6

    def test_1d_is_cycle(self):
        torus = generators.torus((7,))
        cycle = generators.cycle(7)
        assert torus.n_edges == cycle.n_edges
        assert torus.regular_degree == 2

    def test_odd_sides_not_bipartite(self):
        assert not is_bipartite(generators.torus((5, 5)))

    def test_even_sides_bipartite(self):
        assert is_bipartite(generators.torus((4, 4)))

    def test_rejects_side_two(self):
        with pytest.raises(GraphConstructionError, match=">= 3"):
            generators.torus((2, 5))


class TestGrid:
    def test_structure(self):
        graph = generators.grid((3, 4))
        assert graph.n_vertices == 12
        assert graph.n_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert is_connected(graph)
        assert not graph.is_regular

    def test_corner_degree(self):
        graph = generators.grid((3, 3))
        assert graph.degree(0) == 2
        assert graph.degree(4) == 4  # centre


class TestCirculant:
    def test_degree(self):
        graph = generators.circulant(10, (1, 2))
        assert graph.regular_degree == 4

    def test_half_offset_gives_matching(self):
        graph = generators.circulant(10, (1, 5))
        assert graph.regular_degree == 3

    def test_connected(self):
        assert is_connected(generators.circulant(12, (1, 3)))

    def test_rejects_bad_offsets(self):
        with pytest.raises(GraphConstructionError, match="offsets"):
            generators.circulant(10, (6,))
        with pytest.raises(GraphConstructionError, match="offsets"):
            generators.circulant(10, (0,))

    def test_cycle_equivalence(self):
        assert generators.circulant(9, (1,)).n_edges == generators.cycle(9).n_edges


class TestRandomRegular:
    def test_structure(self):
        graph = generators.random_regular(50, 3, seed=0)
        assert graph.n_vertices == 50
        assert graph.regular_degree == 3
        assert is_connected(graph)

    def test_deterministic_given_seed(self):
        a = generators.random_regular(30, 4, seed=5)
        b = generators.random_regular(30, 4, seed=5)
        assert a == b

    def test_different_seeds_usually_differ(self):
        a = generators.random_regular(30, 4, seed=1)
        b = generators.random_regular(30, 4, seed=2)
        assert a != b

    def test_parity_rejected(self):
        with pytest.raises(GraphConstructionError, match="even"):
            generators.random_regular(7, 3)

    def test_degree_bounds(self):
        with pytest.raises(GraphConstructionError):
            generators.random_regular(5, 5)

    @pytest.mark.parametrize("n", [4, 10])
    def test_degree_n_minus_one_is_complete(self, n):
        graph = generators.random_regular(n, n - 1, seed=3)
        np.testing.assert_array_equal(graph.indptr, generators.complete(n).indptr)
        np.testing.assert_array_equal(graph.indices, generators.complete(n).indices)

    def test_dense_degree_builds_fast(self):
        # 2r > n - 1 samples the complement: no stuck-pairing restarts.
        start = time.perf_counter()
        graph = generators.random_regular(64, 60, seed=0)
        assert time.perf_counter() - start < 1.0
        assert graph.regular_degree == 60
        assert is_connected(graph)

    @pytest.mark.parametrize(("n", "r"), [(64, 8), (100, 3), (33, 16), (33, 18), (16, 15)])
    def test_every_draw_is_a_connected_regular_graph(self, n, r):
        rng = np.random.default_rng(0)
        for _ in range(20):
            graph = generators.random_regular(n, r, seed=rng)
            assert graph.regular_degree == r
            assert graph.n_edges == n * r // 2
            assert is_connected(graph)

    @pytest.mark.parametrize(
        ("n", "r"),
        [(6, 3), (8, 3), (10, 4), (12, 5), (16, 12), (17, 8), (33, 18), (64, 8)],
    )
    def test_adopted_rows_equal_the_validated_construction(self, n, r):
        # The sampler adopts its rows unchecked; the validating
        # constructor (bounds, loops, duplicates, symmetry, and a sort of
        # every row) must accept them and rebuild the same graph.  The
        # grid includes 2r > n - 1, where the rows are a complement.
        from repro.graphs.base import Graph

        for seed in range(6):
            graph = generators.random_regular(n, r, seed=seed)
            validated = Graph(graph.indptr, graph.indices, name=graph.name)
            assert validated == graph
            assert validated.name == graph.name == f"random_regular(n={n}, r={r})"
            assert graph.indices.dtype == np.int64
            assert graph.indices.flags.c_contiguous


class TestRetryCap:
    """The samplers conditioned on connectivity share one retry cap."""

    @staticmethod
    def _never_connected(draws: list):
        def check(graph) -> bool:
            draws.append(graph)
            return False

        return check

    @pytest.mark.parametrize(
        "sample",
        [
            lambda: generators.random_regular(20, 3, seed=0),
            lambda: generators.erdos_renyi(20, 0.5, seed=0, connected=True),
        ],
        ids=["random_regular", "erdos_renyi"],
    )
    def test_gives_up_after_max_tries(self, monkeypatch, sample):
        draws: list = []
        monkeypatch.setattr(generators, "is_connected", self._never_connected(draws))
        with pytest.raises(GraphConstructionError, match=f"in {generators._MAX_TRIES} tries"):
            sample()
        assert len(draws) == generators._MAX_TRIES

    def test_watts_strogatz_gives_up_after_max_tries(self, monkeypatch):
        import networkx as nx

        draws: list = []
        monkeypatch.setattr(nx, "is_connected", self._never_connected(draws))
        with pytest.raises(nx.NetworkXError, match="tries"):
            generators.watts_strogatz(20, 4, 0.2, seed=0)
        assert len(draws) == generators._MAX_TRIES


class TestRingOfCliques:
    def test_structure(self):
        graph = generators.ring_of_cliques(4, 5)
        assert graph.n_vertices == 20
        assert is_connected(graph)
        # Each clique contributes C(5,2)=10 edges plus one bridge.
        assert graph.n_edges == 4 * 10 + 4

    def test_min_cliques(self):
        with pytest.raises(GraphConstructionError):
            generators.ring_of_cliques(2, 3)


class TestBinaryTree:
    def test_structure(self):
        graph = generators.binary_tree(3)
        assert graph.n_vertices == 15
        assert graph.n_edges == 14
        assert is_connected(graph)
        assert is_bipartite(graph)

    def test_leaf_degrees(self):
        graph = generators.binary_tree(2)
        assert graph.degree(0) == 2
        assert all(graph.degree(leaf) == 1 for leaf in range(3, 7))


class TestErdosRenyi:
    def test_edge_count_concentration(self):
        graph = generators.erdos_renyi(100, 0.3, seed=1)
        expected = 0.3 * 100 * 99 / 2
        assert abs(graph.n_edges - expected) < 5 * np.sqrt(expected)

    def test_p_zero_and_one(self):
        assert generators.erdos_renyi(10, 0.0, seed=0).n_edges == 0
        assert generators.erdos_renyi(10, 1.0, seed=0).n_edges == 45

    def test_connected_flag(self):
        graph = generators.erdos_renyi(40, 0.3, seed=2, connected=True)
        assert is_connected(graph)

    def test_invalid_p(self):
        with pytest.raises(GraphConstructionError, match="\\[0, 1\\]"):
            generators.erdos_renyi(10, 1.5)
