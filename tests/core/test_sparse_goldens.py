"""Bit-identity of the sparse-frontier engines against captured goldens.

``tests/data/sparse_goldens.npz`` holds the outputs of
``sparse_cobra_cover_times`` and ``sparse_bips_infection_times`` (16
replicas in two shards of 8, seed 2016, start/source vertex 0) on three
graphs, one per neighbour-sampling path of ``Graph.sample_neighbors``:

* ``q8`` — the 8-regular hypercube CSR graph: power-of-two degree, so
  picks are bit-sliced out of 64-bit words;
* ``torus9`` — ``ImplicitTorus((9, 9, 9))``: degree 6, the generator's
  bounded-integer path, with frontiers dense enough that the kernels'
  mark-array dedupe runs;
* ``grid7x9`` — the open 7×9 grid: irregular, the float-scaling path.

Each at ``branching`` 1.0, 1.5 and 2.0.  BIPS at ``branching=1.0`` on
the torus is left out: it takes thousands of rounds with a
near-complete armed set, seconds per call.

Both sparse kernels return the batch engines' bits
(``tests/core/test_sparse.py``); these goldens pin the shared streams
themselves.  The BIPS keys were re-captured once, when both BIPS round
kernels moved to infected-neighbour counts (one uniform per armed
vertex); the COBRA keys are unchanged since their capture.  The CI
``spawn`` job runs this file too, so they also hold in workers that
receive the graph by pickle or shared memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.graphs import generators
from repro.graphs.implicit import ImplicitTorus

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "sparse_goldens.npz"

#: The exact configuration the goldens were captured with.
GRAPHS = {
    "q8": lambda: generators.hypercube(8),
    "torus9": lambda: ImplicitTorus((9, 9, 9)),
    "grid7x9": lambda: generators.grid((7, 9)),
}
KWARGS = dict(n_replicas=16, seed=2016, shard_size=8)
ENGINES = {"cobra": sparse_cobra_cover_times, "bips": sparse_bips_infection_times}
CASES = [
    (process, graph_name, branching)
    for graph_name in GRAPHS
    for branching in (1.0, 1.5, 2.0)
    for process in ENGINES
    if (process, graph_name, branching) != ("bips", "torus9", 1.0)
]


@pytest.fixture(scope="module")
def goldens():
    return np.load(GOLDENS)


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


def test_goldens_cover_every_case(goldens):
    expected = {f"{process}_{name}_k{branching}" for process, name, branching in CASES}
    assert set(goldens.files) == expected


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "process, graph_name, branching",
    CASES,
    ids=[f"{process}-{name}-k{branching}" for process, name, branching in CASES],
)
def test_sparse_engine_matches_goldens(goldens, graphs, process, graph_name, branching, jobs):
    times = ENGINES[process](graphs[graph_name], 0, branching=branching, jobs=jobs, **KWARGS)
    assert np.array_equal(times, goldens[f"{process}_{graph_name}_k{branching}"])
