"""Every engine returns the same bits on an implicit graph as on its CSR twin.

An implicit graph draws a neighbour with the CSR fast path's draw and
reads the drawn position through ``neighbor_at``, so any engine run
twice from one seed, once per representation, must agree bit for bit.
``ImplicitComplete`` is the case with the most at stake: E1 and E7
measure ``K_n`` up to n = 8192 on it, where the CSR twin holds 537 MB
of indices.  ``K_9`` and ``K_257`` (degrees 8 and 256) sample on
``uniform_draws``' bit-sliced path, ``K_64`` on the bounded-integer
path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.event import event_bips_infection_times, event_cobra_cover_times
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.errors import GraphPropertyError
from repro.experiments import e1_cover_expanders, e7_baselines, run_experiment
from repro.experiments.microscale import micro_workload
from repro.graphs import generators
from repro.graphs.implicit import (
    ImplicitCirculant,
    ImplicitComplete,
    ImplicitHypercube,
    ImplicitTorus,
)

COMPLETE_SIZES = [9, 64, 257]


def _both(engine, n, **kwargs):
    return engine(ImplicitComplete(n), 0, **kwargs), engine(generators.complete(n), 0, **kwargs)


@pytest.mark.parametrize("branching", [2.0, 1.5])
@pytest.mark.parametrize("n", COMPLETE_SIZES)
def test_batch_cobra_on_complete_graph(n, branching):
    implicit, concrete = _both(
        batch_cobra_cover_times, n, branching=branching, n_replicas=24, seed=n, shard_size=8
    )
    assert np.array_equal(implicit, concrete)


@pytest.mark.parametrize("branching", [2.0, 1.0])
@pytest.mark.parametrize("n", COMPLETE_SIZES)
def test_sparse_cobra_on_complete_graph(n, branching):
    # k = 1 is the single-token walk kernel, whose blocks the CSR twin
    # draws in one call per block at n = 9 and 257 and the implicit
    # graph round by round.
    implicit, concrete = _both(
        sparse_cobra_cover_times, n, branching=branching, n_replicas=24, seed=n, shard_size=8
    )
    assert np.array_equal(implicit, concrete)


@pytest.mark.parametrize("n", COMPLETE_SIZES)
def test_event_cobra_on_complete_graph(n):
    implicit, concrete = _both(event_cobra_cover_times, n, n_replicas=4, seed=n)
    assert np.array_equal(implicit, concrete)


@pytest.mark.parametrize("engine", [batch_bips_infection_times, sparse_bips_infection_times])
@pytest.mark.parametrize("n", [9, 64])
def test_bips_on_complete_graph(n, engine):
    # BIPS counts infected neighbours over whole rows, which the
    # implicit graph computes as the CSR graph reads them.
    implicit, concrete = _both(engine, n, branching=1.5, n_replicas=16, seed=n)
    assert np.array_equal(implicit, concrete)


#: Implicit graphs and their materialised twins for the event engine.
EVENT_PAIRS = {
    "torus-5x5x5": (lambda: ImplicitTorus((5, 5, 5)), lambda: generators.torus((5, 5, 5))),
    "hypercube-5": (lambda: ImplicitHypercube(5), lambda: generators.hypercube(5)),
    "circulant-11": (
        lambda: ImplicitCirculant(11, (1, 3, 4)),
        lambda: generators.circulant(11, (1, 3, 4)),
    ),
    "complete-16": (lambda: ImplicitComplete(16), lambda: generators.complete(16)),
}


class TestEventEngine:
    """The event engine draws contacts and flips rows through the graph."""

    @pytest.mark.parametrize("branching", [2.0, 1.5, 1.0])
    @pytest.mark.parametrize("name", list(EVENT_PAIRS))
    def test_cobra_equals_materialised_twin(self, name, branching):
        implicit, concrete = (build() for build in EVENT_PAIRS[name])
        kwargs = dict(branching=branching, n_replicas=6, seed=11, shard_size=3)
        assert np.array_equal(
            event_cobra_cover_times(implicit, 0, **kwargs),
            event_cobra_cover_times(concrete, 0, **kwargs),
        )

    @pytest.mark.parametrize("recovery_rate", [0.0, 0.05])
    @pytest.mark.parametrize("branching", [2.0, 1.5])
    @pytest.mark.parametrize("name", list(EVENT_PAIRS))
    def test_bips_equals_materialised_twin(self, name, branching, recovery_rate):
        implicit, concrete = (build() for build in EVENT_PAIRS[name])
        kwargs = dict(
            branching=branching,
            recovery_rate=recovery_rate,
            transmission_rate=2.0,
            n_replicas=6,
            seed=13,
            max_time=100.0,
            raise_on_timeout=False,
        )
        implicit_times = event_bips_infection_times(implicit, 0, **kwargs)
        assert np.array_equal(implicit_times, event_bips_infection_times(concrete, 0, **kwargs))
        assert np.any(implicit_times > 0)

    def test_edge_rates_need_the_csr_arrays(self):
        with pytest.raises(GraphPropertyError, match="materialize"):
            event_cobra_cover_times(
                ImplicitTorus((5, 5)), 0, edge_rate_overrides=[(0, 1, 2.0)], n_replicas=1
            )


def test_complete_graph_cover_holds_no_rows():
    # complete(8192) alone holds 537 MB of indices; the implicit graph
    # and a four-replica cover ensemble on it hold the ensemble state.
    tracemalloc.start()
    try:
        times = batch_cobra_cover_times(ImplicitComplete(8192), 0, n_replicas=4, seed=3, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(times > 0)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("engine", ["batch", "sparse", "event"])
def test_e1_complete_table_equals_csr_twin(monkeypatch, engine):
    table = "complete graph (r = n-1 endpoint)"
    workload = micro_workload("E1").with_overrides({"engine": engine})
    implicit = run_experiment("E1", workload=workload, seed=2)
    monkeypatch.setattr(e1_cover_expanders, "ImplicitComplete", generators.complete)
    concrete = run_experiment("E1", workload=workload, seed=2)
    assert implicit.tables[table].rows == concrete.tables[table].rows
    assert implicit.findings == concrete.findings


def test_e7_complete_table_equals_csr_twin(monkeypatch):
    implicit = run_experiment("E7", workload=micro_workload("E7"), seed=2)
    monkeypatch.setattr(e7_baselines, "ImplicitComplete", generators.complete)
    concrete = run_experiment("E7", workload=micro_workload("E7"), seed=2)
    assert implicit.tables["complete graphs"].rows == concrete.tables["complete graphs"].rows
    assert implicit.findings == concrete.findings
