"""CSR index storage: int64 in memory; int32 (a memory-mapped CSR) stream-identical."""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.implicit import ImplicitTorus

from tests.properties.strategies import connected_small_graphs, int32_twin


class TestNarrowGraphs:
    def test_default_stays_int64(self):
        cycle = generators.cycle(8)
        graphs = (
            cycle,
            Graph(cycle.indptr, cycle.indices.astype(np.int32)),
            generators.hypercube(4),
            generators.torus((4, 5)),
            generators.circulant(9, (1, 2)),
            ImplicitTorus((4, 5)).materialize(),
        )
        for graph in graphs:
            assert graph.indices.dtype == np.dtype(np.int64)

    def test_opt_in_narrows_storage_not_outputs(self):
        wide = generators.torus((8, 8))
        narrow = int32_twin(wide)
        assert narrow.indices.dtype == np.dtype(np.int32)
        assert narrow == wide
        vertices = np.arange(64, dtype=np.int64)
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
        picks_wide = wide.sample_neighbors(vertices, 3, rng_a)
        picks_narrow = narrow.sample_neighbors(vertices, 3, rng_b)
        assert np.array_equal(picks_wide, picks_narrow)
        assert picks_narrow.dtype == np.dtype(np.int64)
        # Identical downstream draws: the uniform_draws stream is untouched.
        assert np.array_equal(rng_a.random(4), rng_b.random(4))

    def test_neighborhoods_outputs_are_int64(self):
        narrow = int32_twin(generators.torus((5, 5)))
        counts, flat = narrow.neighborhoods(np.array([0, 7], dtype=np.int64))
        assert counts.dtype == np.dtype(np.int64)
        assert flat.dtype == np.dtype(np.int64)


class TestHash:
    @settings(max_examples=25, deadline=None)
    @given(graph=connected_small_graphs())
    def test_int32_twin_hashes_as_the_graph_it_equals(self, graph):
        # ``==`` compares index values, so the hash must ignore the width.
        narrow = int32_twin(graph)
        assert narrow == graph
        assert hash(narrow) == hash(graph)
        assert len({graph, narrow}) == 1


class TestPickledDtype:
    @settings(max_examples=25, deadline=None)
    @given(graph=connected_small_graphs(), index_dtype=st.sampled_from(["int32", "int64"]))
    def test_pickle_keeps_arrays_and_index_dtype(self, graph, index_dtype):
        # A pooled call ships its graph inside the call's one pickle
        # (at the highest protocol), so the copy a worker rebuilds must
        # be the same frozen graph at the same storage width.
        if index_dtype == "int32":
            graph = int32_twin(graph)
        clone = pickle.loads(pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
        assert clone == graph
        assert clone.name == graph.name
        assert clone.indices.dtype == np.dtype(index_dtype)
        assert clone.indptr.dtype == np.dtype(np.int64)
        assert not clone.indices.flags.writeable
