"""The switch from sparse rounds to the dense loop keeps every bit.

A times-mode shard of the paper's laws opens in sparse rounds and
converts its live replicas' state once, before the first round whose
frontier fills :data:`repro.core.batch._SWITCH`'s share of its live
cells, then finishes in the dense loop.  Both phases draw in ascending
(replica, vertex) order from the shard's stream, so the output must not
depend on the round of the switch.  These tests patch that module
constant to land the switch on every round ``t = 1 .. T`` of a run
(``_Switch(math.inf, at_round=t)``) and compare each output with the
run held in the dense loop from round 1 (``_DENSE``), the run held in
its sparse rounds to the end (``_SPARSE``) and the captured goldens.
The patched value is read in the parent at call time and ships in the
shard context, so it reaches spawn-started workers too.
"""

from __future__ import annotations

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import batch
from repro.core.batch import (
    _DENSE,
    _SPARSE,
    _Switch,
    batch_bips_infection_times,
    batch_cobra_cover_times,
)
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.graphs import from_edges, generators
from repro.graphs.implicit import ImplicitComplete, ImplicitTorus

DATA = Path(__file__).resolve().parent.parent / "data"

GRAPHS = {
    "petersen": generators.petersen,
    "c9": lambda: generators.cycle(9),
    "rr64-4": lambda: generators.random_regular(64, 4, seed=7),
    "implicit-torus5": lambda: ImplicitTorus((5, 5, 5)),
    "implicit-k16": lambda: ImplicitComplete(16),
    "grid7x9": lambda: generators.grid((7, 9)),
    "ba60-2": lambda: generators.barabasi_albert(60, 2, seed=3),
}

#: (process, branching, include_start_in_cover); the start counts in
#: COBRA's cover only.
CONFIGS = [
    ("cobra", 2.0, False),
    ("cobra", 2.0, True),
    ("cobra", 1.5, False),
    ("cobra", 1.5, True),
    ("bips", 2.0, False),
    ("bips", 1.5, False),
]
CONFIG_IDS = [
    f"{process}-k{branching}" + ("-with-start" if start else "")
    for process, branching, start in CONFIGS
]


def _switched(switch, engine, *args, **kwargs):
    """One engine call whose shards all run under ``switch``."""
    with mock.patch.object(batch, "_SWITCH", switch):
        return engine(*args, **kwargs)


def _at(round_index: int) -> _Switch:
    """A switch due before ``round_index`` whatever the frontier."""
    return _Switch(math.inf, at_round=round_index)


def _run(process, include_start, switch, graph, **kwargs):
    kwargs = dict(raise_on_timeout=False, **kwargs)
    if process == "cobra":
        kwargs["include_start_in_cover"] = include_start
        return _switched(switch, batch_cobra_cover_times, graph, 0, **kwargs)
    return _switched(switch, batch_bips_infection_times, graph, 0, **kwargs)


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


@pytest.mark.parametrize("process, branching, include_start", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_switch_at_every_round(graphs, graph_name, process, branching, include_start):
    # 12 replicas in shards of 6: as t moves over the run, replicas
    # finish before the switch, in its round and after it.
    graph = graphs[graph_name]
    kwargs = dict(branching=branching, n_replicas=12, seed=29, shard_size=6)
    dense = _run(process, include_start, _DENSE, graph, **kwargs)
    assert np.all(dense > 0)
    assert np.array_equal(_run(process, include_start, _SPARSE, graph, **kwargs), dense)
    last = int(dense.max())
    straddled = 0
    for round_index in range(1, last + 2):
        switched = _run(process, include_start, _at(round_index), graph, **kwargs)
        assert np.array_equal(switched, dense), round_index
        straddled += bool(
            (dense < round_index).any()
            and (dense == round_index).any()
            and (dense > round_index).any()
        )
    assert straddled


@pytest.mark.parametrize("process, branching, include_start", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("graph_name", ["c9", "grid7x9", "implicit-torus5"])
def test_round_caps_on_either_side_of_the_switch(
    graphs, graph_name, process, branching, include_start
):
    # The switch sits at the median finish; caps one round before it,
    # at it and after it time replicas out in the sparse rounds, on the
    # switch round and in the dense loop.
    graph = graphs[graph_name]
    kwargs = dict(branching=branching, n_replicas=12, seed=31, shard_size=6)
    uncapped = _run(process, include_start, _DENSE, graph, **kwargs)
    switch_round = int(np.median(uncapped))
    caps = sorted(
        {switch_round - 2, switch_round - 1, switch_round, switch_round + 1, int(uncapped.max())}
        - {0, -1}
    )
    timed_out = 0
    for cap in caps:
        dense = _run(process, include_start, _DENSE, graph, max_rounds=cap, **kwargs)
        for switch in (_at(switch_round), _SPARSE):
            capped = _run(process, include_start, switch, graph, max_rounds=cap, **kwargs)
            assert np.array_equal(capped, dense), (cap, switch)
        timed_out += bool((dense == -1).any())
    assert timed_out


@pytest.mark.parametrize(
    "process, branching, include_start",
    [("cobra", 1.5, True), ("bips", 1.5, False)],
    ids=["cobra-k1.5-with-start", "bips-k1.5"],
)
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_pooled_shards_switch_alike(graphs, graph_name, process, branching, include_start):
    # jobs=2 runs the two shards in a pool; the switch lands on a few
    # rounds across the run, as every call costs a pool start.
    graph = graphs[graph_name]
    kwargs = dict(branching=branching, n_replicas=12, seed=37, shard_size=6)
    dense = _run(process, include_start, _DENSE, graph, jobs=1, **kwargs)
    last = int(dense.max())
    for switch in (_SPARSE, _at(2), _at(max(last // 2, 1)), _at(last)):
        pooled = _run(process, include_start, switch, graph, jobs=2, **kwargs)
        assert np.array_equal(pooled, dense), switch


@pytest.mark.parametrize("process", ["cobra", "bips"])
def test_the_paper_switch_matches_the_dense_loop(process):
    # The module's own fraction, on graphs where it falls mid-run.
    kwargs = dict(branching=2.0, n_replicas=24, seed=41, shard_size=8)
    engines = {
        "cobra": (batch_cobra_cover_times, sparse_cobra_cover_times),
        "bips": (batch_bips_infection_times, sparse_bips_infection_times),
    }[process]
    for graph in (generators.random_regular(2048, 8, seed=2), ImplicitTorus((15, 15, 15))):
        dense = _switched(_DENSE, engines[0], graph, 0, **kwargs)
        for engine in engines:
            assert np.array_equal(engine(graph, 0, **kwargs), dense)


class TestGoldens:
    """The captured goldens hold wherever the switch lands."""

    def test_batch_goldens(self):
        with np.load(DATA / "batch_goldens_graph.npz") as data:
            graph = from_edges(64, data["edges"].tolist())
        goldens = np.load(DATA / "batch_goldens.npz")
        kwargs = dict(branching=1.5, n_replicas=48, seed=123, shard_size=16)
        for process, engine in (
            ("cobra", batch_cobra_cover_times),
            ("bips", batch_bips_infection_times),
        ):
            expected = goldens[f"{process}_times"]
            last = int(expected.max())
            for switch in (_DENSE, _SPARSE, *(_at(t) for t in range(1, last + 1))):
                times = _switched(switch, engine, graph, 0, **kwargs)
                assert np.array_equal(times, expected), (process, switch)

    @pytest.mark.parametrize("branching", [1.5, 2.0])
    @pytest.mark.parametrize("graph_name", ["q8", "grid7x9"])
    def test_sparse_goldens(self, graph_name, branching):
        graph = {"q8": generators.hypercube(8), "grid7x9": generators.grid((7, 9))}[graph_name]
        goldens = np.load(DATA / "sparse_goldens.npz")
        kwargs = dict(branching=branching, n_replicas=16, seed=2016, shard_size=8)
        for process, engine in (
            ("cobra", sparse_cobra_cover_times),
            ("bips", sparse_bips_infection_times),
        ):
            expected = goldens[f"{process}_{graph_name}_k{branching}"]
            last = int(expected.max())
            for switch in (_DENSE, _SPARSE, *(_at(t) for t in range(1, last + 1))):
                times = _switched(switch, engine, graph, 0, **kwargs)
                assert np.array_equal(times, expected), (process, switch)


def test_sparse_entry_stays_sparse_when_the_dense_state_does_not_fit(monkeypatch, graphs):
    # With a budget too small for the dense state, the sparse entry
    # points never switch; the batch entry points raise instead.
    graph = graphs["rr64-4"]
    kwargs = dict(n_replicas=8, seed=5)
    expected = _switched(_SPARSE, sparse_bips_infection_times, graph, 0, **kwargs)
    monkeypatch.setenv("REPRO_DENSE_STATE_LIMIT_BYTES", "1024")
    seen = []
    original = batch._bips_shard

    def spy(context, *task):
        seen.append(context[-1])
        return original(context, *task)

    monkeypatch.setattr(batch, "_bips_shard", spy)
    with mock.patch.object(batch, "_SWITCH", _DENSE):
        times = sparse_bips_infection_times(graph, 0, jobs=1, **kwargs)
    assert np.array_equal(times, expected)
    assert seen and all(switch == _SPARSE for switch in seen)
