"""Graphs reach pool workers inside the pooled call's one pickle.

Under ``fork`` a worker could also read a graph its parent held when
the pool started, which would mask a graph that does not survive the
trip.  Forcing a ``spawn`` pool leaves the pickle as the only way in,
so equal bits at ``jobs=1`` and ``jobs=2`` show that CSR graphs (wide
and narrow), memory-mapped graphs and implicit graphs arrive intact,
and the graph a worker holds shows that each arrives in its own form.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.event import event_cobra_cover_times
from repro.core.sparse import sparse_cobra_cover_times
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.implicit import ImplicitGraph, ImplicitTorus
from repro.graphs.io import load_graph_memmap, save_graph_memmap
from repro.parallel import map_shards

from tests.properties.strategies import int32_twin


def _expander() -> Graph:
    return generators.random_regular(128, 8, seed=5)


def _narrow_expander() -> Graph:
    return int32_twin(_expander())


def _mapped_expander(directory: Path) -> Graph:
    return load_graph_memmap(save_graph_memmap(_expander(), directory / "expander"))


GRAPHS = {
    "csr": lambda directory: _expander(),
    "csr-int32": lambda directory: _narrow_expander(),
    "memmap": _mapped_expander,
    "implicit": lambda directory: ImplicitTorus((5, 5, 5)),
}
ENGINES = {
    "batch-cobra": batch_cobra_cover_times,
    "batch-bips": batch_bips_infection_times,
    "sparse-cobra": sparse_cobra_cover_times,
    "event-cobra": event_cobra_cover_times,
}


def _spawn_pools(monkeypatch) -> None:
    monkeypatch.setattr(parallel, "_pool_context", lambda: multiprocessing.get_context("spawn"))


def _is_mapped(array: np.ndarray) -> bool:
    while isinstance(array, np.ndarray) and not isinstance(array, np.memmap):
        array = array.base
    return isinstance(array, np.memmap)


def _graph_form(graph: Graph, vertex: int) -> tuple[str, str | None, bool, int]:
    """What a worker holds: class, index dtype, file mapping, one degree."""
    if isinstance(graph, ImplicitGraph):
        return type(graph).__name__, None, False, graph.degree(vertex)
    indices = graph.indices
    return type(graph).__name__, str(indices.dtype), _is_mapped(indices), graph.degree(vertex)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("graph_name", GRAPHS)
def test_spawn_pools_return_the_inline_bits(monkeypatch, tmp_path, graph_name, engine):
    _spawn_pools(monkeypatch)
    graph, run = GRAPHS[graph_name](tmp_path), ENGINES[engine]
    inline = run(graph, 0, n_replicas=16, seed=3, shard_size=4, jobs=1)
    pooled = run(graph, 0, n_replicas=16, seed=3, shard_size=4, jobs=2)
    assert np.array_equal(inline, pooled)


@pytest.mark.parametrize("graph_name", GRAPHS)
def test_spawn_workers_receive_the_graph_in_its_own_form(monkeypatch, tmp_path, graph_name):
    # A memory-mapped graph must reopen its files rather than arrive as
    # copied arrays, a narrow CSR graph must keep its int32 indices and
    # an implicit graph must not be materialised on the way.
    _spawn_pools(monkeypatch)
    graph = GRAPHS[graph_name](tmp_path)
    pooled = map_shards(_graph_form, graph, [(0,), (1,)], jobs=2)
    assert pooled == [_graph_form(graph, 0), _graph_form(graph, 1)]
    assert pooled[0][2] == (graph_name == "memmap")
