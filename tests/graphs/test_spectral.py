"""Tests for spectral tools: numeric paths vs analytic spectra."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from repro.errors import GraphPropertyError
from repro.graphs import generators
from repro.graphs.build import from_edges
from repro.graphs.spectral import (
    ANALYTIC_FAMILIES,
    DENSE_LIMIT,
    adjacency_matrix,
    analytic_lambda,
    eigenvalues,
    lambda_second,
    spectral_gap,
    transition_matrix,
)


class TestMatrices:
    def test_adjacency_dense_symmetric(self):
        matrix = adjacency_matrix(generators.petersen())
        assert matrix.shape == (10, 10)
        assert np.array_equal(matrix, matrix.T)
        assert matrix.sum() == 2 * 15

    def test_adjacency_sparse_matches_dense(self):
        graph = generators.cycle(9)
        dense = adjacency_matrix(graph)
        sparse = adjacency_matrix(graph, sparse=True)
        assert np.array_equal(sparse.toarray(), dense)

    def test_transition_rows_sum_to_one(self):
        for graph in (generators.petersen(), generators.star(6), generators.path(5)):
            matrix = transition_matrix(graph)
            assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_transition_sparse_matches_dense(self):
        graph = generators.star(8)
        dense = transition_matrix(graph)
        sparse = transition_matrix(graph, sparse=True)
        assert np.allclose(sparse.toarray(), dense)

    def test_isolated_vertex_rejected(self):
        graph = from_edges(3, [(0, 1)])
        with pytest.raises(GraphPropertyError, match="isolated"):
            transition_matrix(graph)


class TestEigenvalues:
    def test_sorted_non_increasing(self):
        spectrum = eigenvalues(generators.petersen())
        assert np.all(np.diff(spectrum) <= 1e-12)

    def test_leading_eigenvalue_is_one(self):
        for graph in (generators.petersen(), generators.complete(6), generators.path(5)):
            assert eigenvalues(graph)[0] == pytest.approx(1.0, abs=1e-10)

    def test_petersen_spectrum(self):
        # Adjacency eigenvalues 3, 1 (x5), -2 (x4) => P eigenvalues 1, 1/3, -2/3.
        spectrum = eigenvalues(generators.petersen())
        assert spectrum[1] == pytest.approx(1 / 3, abs=1e-10)
        assert spectrum[-1] == pytest.approx(-2 / 3, abs=1e-10)


class TestLambdaSecond:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (generators.complete(8), 1 / 7),
            (generators.petersen(), 2 / 3),
            # Odd cycle: the extreme eigenvalue is the most negative one,
            # cos(pi (n-1)/n) = -cos(pi/n), so lambda = cos(pi/n).
            (generators.cycle(9), math.cos(math.pi / 9)),
            (generators.cycle(8), 1.0),  # even cycle: bipartite
            (generators.hypercube(3), 1.0),  # bipartite
        ],
    )
    def test_dense_matches_analytic(self, graph, expected):
        assert lambda_second(graph, method="dense") == pytest.approx(expected, abs=1e-10)

    def test_circulant_analytic_matches_dense(self):
        offsets = (1, 2, 5)
        graph = generators.circulant(31, offsets)
        numeric = lambda_second(graph, method="dense")
        analytic = analytic_lambda("circulant", n=31, offsets=offsets)
        assert numeric == pytest.approx(analytic, abs=1e-10)

    def test_torus_analytic_matches_dense(self):
        graph = generators.torus((5, 7))
        numeric = lambda_second(graph, method="dense")
        analytic = analytic_lambda("torus", side_lengths=(5, 7))
        assert numeric == pytest.approx(analytic, abs=1e-10)

    def test_sparse_matches_dense(self):
        graph = generators.random_regular(80, 4, seed=3)
        dense = lambda_second(graph, method="dense")
        sparse = lambda_second(graph, method="sparse")
        assert sparse == pytest.approx(dense, abs=1e-7)

    def test_sparse_matches_dense_to_machine_precision(self):
        graph = generators.random_regular(1000, 8, seed=4)
        dense = lambda_second(graph, method="dense")
        sparse = lambda_second(graph, method="sparse")
        assert sparse == pytest.approx(dense, rel=1e-12)

    # Graphs whose λ the one Lanczos run must match.  Bipartite
    # hypercube(9) and torus((16, 16)) have λ = 1 only through
    # λ_n = -1, so a sparse path that dropped λ_n would fail them.
    @pytest.mark.parametrize(
        "graph",
        [
            generators.random_regular(300, 3, seed=1),
            generators.random_regular(512, 8, seed=2),
            generators.random_regular(1024, 32, seed=3),
            generators.hypercube(9),
            generators.torus((17, 17)),
            generators.torus((16, 16)),
            generators.watts_strogatz(512, 8, 0.2, seed=4),
            generators.barabasi_albert(512, 4, seed=5),
            generators.star(300),
            generators.complete(300),
        ],
        ids=lambda graph: graph.name,
    )
    def test_sparse_matches_dense_across_families(self, graph):
        dense = lambda_second(graph, method="dense")
        sparse = lambda_second(graph, method="sparse")
        assert sparse == pytest.approx(dense, rel=1e-12)

    def test_auto_solves_densely_up_to_the_limit(self):
        assert DENSE_LIMIT == 256
        at_limit = generators.random_regular(256, 8, seed=6)
        assert lambda_second(at_limit) == lambda_second(at_limit, method="dense")
        above = generators.random_regular(257, 8, seed=6)
        assert lambda_second(above) == lambda_second(above, method="sparse")

    @pytest.mark.parametrize(
        "graph", [generators.complete(2), generators.path(2), generators.complete(3)]
    )
    def test_sparse_rejects_graphs_below_four_vertices(self, graph):
        with pytest.raises(ValueError, match="at least 4 vertices"):
            lambda_second(graph, method="sparse")

    def test_sparse_handles_four_vertices(self):
        graph = generators.complete(4)
        assert lambda_second(graph, method="sparse") == pytest.approx(1 / 3, abs=1e-12)

    def test_sparse_solver_is_deterministic(self):
        # Above DENSE_LIMIT (256 vertices) "auto" runs eigsh; its fixed
        # start vector makes repeated calls return the very same floats.
        for n in (DENSE_LIMIT + 1, 2048):
            graph = generators.random_regular(n, 8, seed=3)
            first = lambda_second(graph)
            assert all(lambda_second(graph) == first for _ in range(3))

    def test_irregular_graph_supported(self):
        value = lambda_second(generators.star(8))
        assert 0.0 <= value <= 1.0 + 1e-12

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            lambda_second(generators.cycle(5), method="nope")


class TestDerivedQuantities:
    def test_spectral_gap_complete(self):
        assert spectral_gap(generators.complete(11)) == pytest.approx(0.9, abs=1e-10)


class TestAnalyticLambda:
    def test_complete(self):
        assert analytic_lambda("complete", n=10) == pytest.approx(1 / 9)

    def test_bipartite_families(self):
        assert analytic_lambda("hypercube", dimension=4) == 1.0
        assert analytic_lambda("complete_bipartite", a=3, b=3) == 1.0

    def test_petersen(self):
        assert analytic_lambda("petersen") == pytest.approx(2 / 3)

    def test_even_cycle_is_one(self):
        assert analytic_lambda("cycle", n=8) == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="no analytic spectrum"):
            analytic_lambda("mystery")

    @pytest.mark.parametrize("family", ANALYTIC_FAMILIES)
    def test_families_take_their_generators_arguments(self, family):
        # graph-info binds a generator's arguments by name and passes
        # them on, so every listed family must accept them as they are.
        arguments = {
            "complete": (7,),
            "cycle": (9,),
            "circulant": (13, (1, 5)),
            "hypercube": (3,),
            "torus": ((3, 4),),
            "petersen": (),
            "complete_bipartite": (2, 3),
        }[family]
        generator = getattr(generators, family)
        named = inspect.signature(generator).bind(*arguments).arguments
        numeric = lambda_second(generator(*arguments), method="dense")
        assert analytic_lambda(family, **named) == pytest.approx(numeric, abs=1e-10)
