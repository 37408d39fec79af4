"""Bit-identity of the batch engines against captured goldens.

``tests/data/batch_goldens.npz`` holds the outputs of all four
``batch_*`` entry points (random 4-regular graph on 64 vertices,
``branching=1.5`` so the fractional ``rho`` path is exercised, 48
replicas in three shards of 16, seed 123).  The kernels must reproduce
them bit for bit at every ``jobs`` count — this is the regression net
under any kernel refactor.  The ``bips_*`` keys were re-captured once,
when the BIPS kernel moved to infected-neighbour counts (one uniform
per armed vertex); the ``cobra_*`` keys are unchanged since their
capture.  The graph's edges are pinned beside them in
``tests/data/batch_goldens_graph.npz``, so the goldens do not depend on
the random-graph generator.

The CI ``spawn`` job runs this file under
``multiprocessing.set_start_method("spawn")``, so the goldens are also
asserted where graphs travel by pickle/shared memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.graphs import from_edges

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDENS = DATA / "batch_goldens.npz"
#: Edges of the random 4-regular graph on 64 vertices the goldens ran on.
GRAPH_EDGES = DATA / "batch_goldens_graph.npz"

#: The exact configuration the goldens were captured with.
BRANCHING = 1.5
KWARGS = dict(n_replicas=48, seed=123, shard_size=16)


@pytest.fixture(scope="module")
def goldens():
    return np.load(GOLDENS)


@pytest.fixture(scope="module")
def graph():
    with np.load(GRAPH_EDGES) as data:
        return from_edges(64, data["edges"].tolist())


def _assert_traces_match(traces, goldens, prefix):
    assert np.array_equal(traces.completion_times, goldens[f"{prefix}_completion"])
    assert np.array_equal(traces.active_counts, goldens[f"{prefix}_active"])
    assert np.array_equal(traces.newly_counts, goldens[f"{prefix}_newly"])
    assert np.array_equal(traces.transmissions, goldens[f"{prefix}_transmissions"])


@pytest.mark.parametrize("jobs", [1, 4])
class TestGoldenParity:
    def test_cobra_cover_times(self, goldens, graph, jobs):
        times = batch_cobra_cover_times(graph, 0, branching=BRANCHING, jobs=jobs, **KWARGS)
        assert np.array_equal(times, goldens["cobra_times"])

    def test_cobra_traces(self, goldens, graph, jobs):
        traces = batch_cobra_traces(graph, 0, branching=BRANCHING, jobs=jobs, **KWARGS)
        _assert_traces_match(traces, goldens, "cobra")

    def test_bips_infection_times(self, goldens, graph, jobs):
        times = batch_bips_infection_times(graph, 0, branching=BRANCHING, jobs=jobs, **KWARGS)
        assert np.array_equal(times, goldens["bips_times"])

    def test_bips_traces(self, goldens, graph, jobs):
        traces = batch_bips_traces(graph, 0, branching=BRANCHING, jobs=jobs, **KWARGS)
        _assert_traces_match(traces, goldens, "bips")


def test_default_jobs_matches_goldens(goldens, graph):
    # ``jobs=None`` (whatever the process default) must still be
    # bit-identical: sharding never depends on the worker count.
    times = batch_cobra_cover_times(graph, 0, branching=BRANCHING, **KWARGS)
    assert np.array_equal(times, goldens["cobra_times"])


def test_times_and_traces_engines_share_streams(graph):
    # Recording consumes no randomness, so the trace engines stay
    # bit-identical to the times engines.
    times = batch_bips_infection_times(graph, 0, branching=BRANCHING, **KWARGS)
    traces = batch_bips_traces(graph, 0, branching=BRANCHING, **KWARGS)
    assert np.array_equal(traces.completion_times, times)
