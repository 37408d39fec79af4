"""Narrow (int32) CSR indices: opt-in, stream-identical, pool-safe."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs.base import INDEX_DTYPES, Graph, resolve_index_dtype

from tests.properties.strategies import connected_small_graphs


class TestResolveIndexDtype:
    def test_default_is_wide(self):
        assert resolve_index_dtype("int64", 100) == np.dtype(np.int64)

    def test_auto_narrows_when_ids_fit(self):
        assert resolve_index_dtype("auto", 100) == np.dtype(np.int32)
        assert resolve_index_dtype("auto", np.iinfo(np.int32).max + 1) == np.dtype(
            np.int32
        )
        assert resolve_index_dtype("auto", np.iinfo(np.int32).max + 2) == np.dtype(
            np.int64
        )

    def test_explicit_int32_validates_range(self):
        assert resolve_index_dtype("int32", 100) == np.dtype(np.int32)
        with pytest.raises(GraphConstructionError, match="int32"):
            resolve_index_dtype("int32", np.iinfo(np.int32).max + 2)

    def test_unknown_dtype_lists_choices(self):
        with pytest.raises(GraphConstructionError) as caught:
            resolve_index_dtype("int16", 100)
        for choice in INDEX_DTYPES:
            assert choice in str(caught.value)


class TestNarrowGraphs:
    def test_default_stays_int64(self):
        graph = generators.cycle(8)
        assert graph.indices.dtype == np.dtype(np.int64)

    def test_opt_in_narrows_storage_not_outputs(self):
        wide = generators.torus((8, 8))
        narrow = Graph(wide.indptr, wide.indices, name=wide.name, index_dtype="int32")
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

    def test_generators_accept_index_dtype(self):
        narrow = generators.hypercube(4, index_dtype="int32")
        assert narrow.indices.dtype == np.dtype(np.int32)
        assert narrow == generators.hypercube(4)
        narrow = generators.torus((4, 5), index_dtype="auto")
        assert narrow.indices.dtype == np.dtype(np.int32)
        assert narrow == generators.torus((4, 5))
        narrow = generators.circulant(9, (1, 2), index_dtype="int32")
        assert narrow == generators.circulant(9, (1, 2))

    def test_neighborhoods_outputs_are_int64(self):
        narrow = generators.torus((5, 5), index_dtype="int32")
        counts, flat = narrow.neighborhoods(np.array([0, 7], dtype=np.int64))
        assert counts.dtype == np.dtype(np.int64)
        assert flat.dtype == np.dtype(np.int64)


class TestPickledDtype:
    @settings(max_examples=25, deadline=None)
    @given(graph=connected_small_graphs(), index_dtype=st.sampled_from(["int32", "int64"]))
    def test_pickle_keeps_arrays_and_index_dtype(self, graph, index_dtype):
        # A pooled call ships its graph inside the call's one pickle
        # (at the highest protocol), so the copy a worker rebuilds must
        # be the same frozen graph at the same storage width.
        graph = Graph(graph.indptr, graph.indices, name=graph.name, index_dtype=index_dtype)
        clone = pickle.loads(pickle.dumps(graph, pickle.HIGHEST_PROTOCOL))
        assert clone == graph
        assert clone.name == graph.name
        assert clone.indices.dtype == np.dtype(index_dtype)
        assert clone.indptr.dtype == np.dtype(np.int64)
        assert not clone.indices.flags.writeable
