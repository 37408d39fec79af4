"""Structural graph properties: connectivity, bipartiteness, distances."""

from __future__ import annotations

import numpy as np

from repro.errors import GraphPropertyError
from repro.graphs.base import Graph


def _bfs_levels(graph: Graph, source: int) -> np.ndarray:
    """BFS distance from ``source`` to every vertex (-1 if unreachable).

    Each level gathers the rows of the whole frontier in one
    ``neighborhoods()`` call.  The new vertices are deduplicated against
    ``levels`` itself, without a sort.
    """
    n = graph.n_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        _, gather = graph.neighborhoods(frontier)
        fresh = gather[levels[gather] < 0]
        # A vertex reached from several frontier vertices appears once
        # per edge.  Stamping every copy with its own slot leaves one
        # stamp per vertex, whichever copy NumPy writes last, so exactly
        # one copy reads its stamp back.
        stamps = -2 - np.arange(fresh.size)
        levels[fresh] = stamps
        fresh = fresh[levels[fresh] == stamps]
        levels[fresh] = depth
        frontier = fresh
    return levels


def is_connected(graph: Graph) -> bool:
    """Whether the graph has a single connected component."""
    return bool(np.all(_bfs_levels(graph, 0) >= 0))


def connected_components(graph: Graph) -> list[np.ndarray]:
    """Connected components as sorted vertex arrays, largest-root first."""
    n = graph.n_vertices
    assigned = np.full(n, -1, dtype=np.int64)
    components: list[np.ndarray] = []
    for start in range(n):
        if assigned[start] >= 0:
            continue
        levels = _bfs_levels(graph, start)
        members = np.flatnonzero(levels >= 0)
        assigned[members] = len(components)
        components.append(members)
    return components


def is_bipartite(graph: Graph) -> bool:
    """Whether the graph is 2-colourable (checked by BFS parity)."""
    n = graph.n_vertices
    color = np.full(n, -1, dtype=np.int8)
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                v = int(v)
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def eccentricity(graph: Graph, vertex: int) -> int:
    """Largest BFS distance from ``vertex``; requires connectivity."""
    levels = _bfs_levels(graph, vertex)
    if np.any(levels < 0):
        raise GraphPropertyError("eccentricity is undefined on a disconnected graph")
    return int(levels.max())


def diameter(graph: Graph) -> int:
    """Exact diameter of a connected graph: one BFS from every vertex."""
    best = 0
    for source in range(graph.n_vertices):
        best = max(best, eccentricity(graph, source))
    return best


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Map from degree value to the number of vertices with that degree."""
    values, counts = np.unique(graph.degrees, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}
