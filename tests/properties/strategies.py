"""Hypothesis strategies for graphs and process configurations."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.build import from_edges


@st.composite
def connected_small_graphs(draw, min_vertices: int = 3, max_vertices: int = 8) -> Graph:
    """Arbitrary connected simple graphs (a random spanning tree + extras)."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges: set[tuple[int, int]] = set()
    # Random spanning tree: attach each vertex to an earlier one.
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    # Sprinkle extra edges.
    n_extra = draw(st.integers(0, n))
    for _ in range(n_extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return from_edges(n, sorted(edges), name=f"hypothesis(n={n}, m={len(edges)})")


@st.composite
def small_regular_graphs(draw) -> Graph:
    """Connected regular graphs from the structured families (n <= 10)."""
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return generators.complete(draw(st.integers(3, 8)))
    if choice == 1:
        return generators.cycle(draw(st.integers(3, 10)))
    if choice == 2:
        return generators.petersen()
    if choice == 3:
        n = draw(st.sampled_from([6, 8, 10]))
        return generators.random_regular(n, 3, seed=draw(st.integers(0, 100)))
    offsets = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    return generators.circulant(draw(st.integers(7, 10)), offsets)


branching_factors = st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0])
seeds = st.integers(0, 2**31 - 1)


def int32_twin(graph: Graph) -> Graph:
    """``graph`` with ``int32`` indices, the storage a memory-mapped CSR uses."""
    return Graph.adopt_validated_csr(
        graph.indptr, graph.indices.astype(np.int32), name=graph.name
    )
