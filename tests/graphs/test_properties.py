"""Tests for structural properties in :mod:`repro.graphs.properties`."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.errors import GraphPropertyError
from repro.graphs import generators
from repro.graphs.build import from_edges
from repro.graphs.implicit import ImplicitComplete, ImplicitHypercube, ImplicitTorus
from repro.graphs.properties import (
    _bfs_levels,
    connected_components,
    degree_histogram,
    diameter,
    eccentricity,
    is_bipartite,
    is_connected,
)

from tests.properties.strategies import int32_twin


class TestConnectivity:
    def test_connected_graphs(self):
        assert is_connected(generators.petersen())
        assert is_connected(generators.cycle(5))
        assert is_connected(generators.path(9))

    def test_disconnected(self):
        graph = from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(graph)

    def test_isolated_vertex(self):
        graph = from_edges(3, [(0, 1)])
        assert not is_connected(graph)

    def test_single_vertex_connected(self):
        graph = from_edges(1, [])
        assert is_connected(graph)

    def test_components(self):
        graph = from_edges(6, [(0, 1), (2, 3), (3, 4)])
        components = connected_components(graph)
        assert [list(c) for c in components] == [[0, 1], [2, 3, 4], [5]]

    def test_components_of_connected_graph(self):
        assert len(connected_components(generators.cycle(6))) == 1


class TestBipartite:
    def test_known_bipartite(self):
        assert is_bipartite(generators.hypercube(3))
        assert is_bipartite(generators.complete_bipartite(3, 4))
        assert is_bipartite(generators.binary_tree(3))
        assert is_bipartite(generators.cycle(6))

    def test_known_non_bipartite(self):
        assert not is_bipartite(generators.petersen())
        assert not is_bipartite(generators.complete(4))
        assert not is_bipartite(generators.cycle(7))

    def test_disconnected_bipartite(self):
        graph = from_edges(4, [(0, 1), (2, 3)])
        assert is_bipartite(graph)

    def test_disconnected_with_odd_cycle(self):
        graph = from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 2)])
        assert not is_bipartite(graph)


class TestDistances:
    def test_eccentricity(self):
        assert eccentricity(generators.path(5), 0) == 4
        assert eccentricity(generators.path(5), 2) == 2

    def test_eccentricity_requires_connected(self):
        graph = from_edges(3, [(0, 1)])
        with pytest.raises(GraphPropertyError, match="disconnected"):
            eccentricity(graph, 0)

    def test_diameter_known_values(self):
        assert diameter(generators.petersen()) == 2
        assert diameter(generators.cycle(8)) == 4
        assert diameter(generators.path(6)) == 5
        assert diameter(generators.complete(9)) == 1
        assert diameter(generators.hypercube(4)) == 4


class TestDegreeHistogram:
    def test_regular(self):
        assert degree_histogram(generators.cycle(5)) == {2: 5}

    def test_star(self):
        assert degree_histogram(generators.star(5)) == {1: 4, 4: 1}

    def test_path(self):
        assert degree_histogram(generators.path(4)) == {1: 2, 2: 2}


def _reference_levels(graph, source):
    """Textbook queue BFS, one vertex at a time."""
    levels = [-1] * graph.n_vertices
    levels[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if levels[int(v)] < 0:
                levels[int(v)] = levels[u] + 1
                queue.append(int(v))
    return levels


#: Regular CSR graphs (the ``neighbor_matrix`` path), irregular and
#: disconnected ones, and implicit ones (the ``neighborhoods`` path).
BFS_GRAPHS = {
    "rr64-3": lambda: generators.random_regular(64, 3, seed=4),
    "rr128-8": lambda: generators.random_regular(128, 8, seed=5),
    "torus5x7": lambda: generators.torus((5, 7)),
    "cycle31": lambda: generators.cycle(31),
    "complete9": lambda: generators.complete(9),
    "q5-int32": lambda: int32_twin(generators.hypercube(5)),
    "two-triangles": lambda: from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    "ring-of-cliques": lambda: generators.ring_of_cliques(4, 4),
    "path9": lambda: generators.path(9),
    "star7": lambda: generators.star(7),
    "isolated": lambda: from_edges(4, [(0, 1), (1, 2)]),
    "implicit-torus": lambda: ImplicitTorus((5, 7)),
    "implicit-q4": lambda: ImplicitHypercube(4),
    "implicit-k9": lambda: ImplicitComplete(9),
}


@pytest.mark.parametrize("name", list(BFS_GRAPHS))
def test_bfs_levels_match_a_queue_bfs(name):
    graph = BFS_GRAPHS[name]()
    for source in {0, 3 % graph.n_vertices, graph.n_vertices - 1}:
        levels = _bfs_levels(graph, source)
        assert levels.dtype == np.int64
        assert levels.tolist() == _reference_levels(graph, source)
