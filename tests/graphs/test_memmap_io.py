"""Memory-mapped CSR persistence: roundtrips, dtypes, and path pickling."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core.sparse import sparse_cobra_cover_times
from repro.errors import GraphConstructionError
from repro.graphs import generators
from repro.graphs import io as graph_io
from repro.graphs.io import (
    MemmapGraph,
    _memmap_index_dtype,
    load_graph_memmap,
    save_graph_memmap,
)


@pytest.fixture
def saved(tmp_path):
    graph = generators.random_regular(128, 6, seed=11)
    return graph, save_graph_memmap(graph, tmp_path / "expander")


class TestRoundtrip:
    def test_loads_equal_graph(self, saved):
        graph, directory = saved
        mapped = load_graph_memmap(directory)
        assert isinstance(mapped, MemmapGraph)
        assert mapped == graph
        assert mapped.name == graph.name
        assert np.array_equal(mapped.indptr, graph.indptr)
        assert np.array_equal(mapped.indices, graph.indices)

    def test_arrays_are_memory_mapped_and_frozen(self, saved):
        _, directory = saved
        mapped = load_graph_memmap(directory)
        assert isinstance(mapped.indices.base, np.memmap) or isinstance(
            mapped.indices, np.memmap
        )
        assert not mapped.indices.flags.writeable

    def test_auto_dtype_narrows_to_int32(self, saved):
        _, directory = saved
        assert load_graph_memmap(directory).indices.dtype == np.dtype(np.int32)

    def test_int32_exactly_when_every_id_fits(self):
        fits = np.iinfo(np.int32).max + 1
        assert _memmap_index_dtype(100) == np.dtype(np.int32)
        assert _memmap_index_dtype(fits) == np.dtype(np.int32)
        assert _memmap_index_dtype(fits + 1) == np.dtype(np.int64)

    def test_int64_when_ids_do_not_fit(self, monkeypatch, tmp_path):
        # Stand in for a graph with more than 2**31 vertices: the writer
        # keeps the wide layout and the loader adopts it unchanged.
        monkeypatch.setattr(graph_io, "_memmap_index_dtype", lambda n: np.dtype(np.int64))
        graph = generators.cycle(10)
        directory = save_graph_memmap(graph, tmp_path / "wide")
        header = json.loads((directory / "header.json").read_text())
        assert header["indices_dtype"] == np.dtype(np.int64).str
        mapped = load_graph_memmap(directory)
        assert mapped.indices.dtype == np.dtype(np.int64)
        assert mapped == graph
        assert hash(mapped) == hash(graph)

    def test_hashes_as_the_graph_it_equals(self, saved):
        # Equal graphs must hash equal, whatever width their indices have.
        graph, directory = saved
        mapped = load_graph_memmap(directory)
        assert mapped == graph
        assert hash(mapped) == hash(graph)
        assert mapped in {graph}

    def test_sampling_stream_matches_original(self, saved):
        graph, directory = saved
        mapped = load_graph_memmap(directory)
        vertices = np.arange(graph.n_vertices, dtype=np.int64)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        picks_a = graph.sample_neighbors(vertices, 2, rng_a)
        picks_b = mapped.sample_neighbors(vertices, 2, rng_b)
        assert np.array_equal(picks_a, picks_b)
        assert picks_b.dtype == np.dtype(np.int64)


class TestPathPickling:
    def test_pickles_as_path(self, saved):
        graph, directory = saved
        mapped = load_graph_memmap(directory)
        blob = pickle.dumps(mapped)
        assert len(blob) < 512
        clone = pickle.loads(blob)
        assert isinstance(clone, MemmapGraph)
        assert clone == graph

    def test_worker_pool_runs_through_memmap(self, saved):
        graph, directory = saved
        mapped = load_graph_memmap(directory)
        inline = sparse_cobra_cover_times(
            mapped, 0, n_replicas=8, seed=2, jobs=1, shard_size=2
        )
        pooled = sparse_cobra_cover_times(
            mapped, 0, n_replicas=8, seed=2, jobs=2, shard_size=2
        )
        direct = sparse_cobra_cover_times(
            graph, 0, n_replicas=8, seed=2, jobs=1, shard_size=2
        )
        assert np.array_equal(inline, pooled)
        assert np.array_equal(inline, direct)


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(GraphConstructionError, match="header.json"):
            load_graph_memmap(tmp_path / "nowhere")

    def test_corrupt_header(self, saved):
        _, directory = saved
        (directory / "header.json").write_text("not json")
        with pytest.raises(GraphConstructionError, match="header"):
            load_graph_memmap(directory)

    def test_version_mismatch(self, saved):
        _, directory = saved
        header = json.loads((directory / "header.json").read_text())
        header["format_version"] = 999
        (directory / "header.json").write_text(json.dumps(header))
        with pytest.raises(GraphConstructionError, match="version"):
            load_graph_memmap(directory)
