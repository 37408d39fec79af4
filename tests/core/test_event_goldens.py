"""Bit-identity of the asynchronous event engines against captured goldens.

``tests/data/event_goldens.npz`` holds the outputs of
``event_cobra_cover_times`` and ``event_bips_infection_times`` (16
replicas in two shards of 8, seed 2016, start/source vertex 0) on:

* ``q6`` — the 6-regular hypercube, and ``grid7x9`` — the open 7×9
  grid (irregular degrees), each at ``branching`` 1.5 and 2.0, with
  uniform contacts at unit rate;
* ``c65`` — the circulant C65(1, 2) with two edge-rate overrides at
  ``transmission_rate=2.0``: the weighted contact sampler and the
  infected-mass-by-weight path;
* ``petersen`` — BIPS with ``recovery_rate=0.1``: the recovery clocks;
* ``k5`` — COBRA with ``max_time=2.0`` and ``raise_on_timeout=False``:
  a row where some replicas time out (``-1.0``) and some cover.

Continuous times are floats, so only an unchanged draw order reproduces
them exactly.  The CI ``spawn`` job runs this file too, so they also
hold in workers that receive the graph by pickle or shared memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.event import event_bips_infection_times, event_cobra_cover_times
from repro.graphs import generators

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "event_goldens.npz"

#: The exact configuration the goldens were captured with.
GRAPHS = {
    "q6": lambda: generators.hypercube(6),
    "grid7x9": lambda: generators.grid((7, 9)),
    "c65": lambda: generators.circulant(65, (1, 2)),
    "petersen": generators.petersen,
    "k5": lambda: generators.complete(5),
}
KWARGS = dict(n_replicas=16, seed=2016, shard_size=8)
ENGINES = {"cobra": event_cobra_cover_times, "bips": event_bips_infection_times}
WEIGHTED = dict(transmission_rate=2.0, edge_rate_overrides=((0, 1, 4.0), (1, 2, 0.25)))
CASES = {
    **{
        f"{process}_{graph_name}_k{branching}": (process, graph_name, {"branching": branching})
        for graph_name in ("q6", "grid7x9")
        for branching in (1.5, 2.0)
        for process in ENGINES
    },
    "cobra_c65_weighted": ("cobra", "c65", WEIGHTED),
    "bips_c65_weighted": ("bips", "c65", WEIGHTED),
    "bips_petersen_recovery": ("bips", "petersen", {"recovery_rate": 0.1}),
    "cobra_k5_timeout": ("cobra", "k5", {"max_time": 2.0, "raise_on_timeout": False}),
}


@pytest.fixture(scope="module")
def goldens():
    return np.load(GOLDENS)


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


def test_goldens_cover_every_case(goldens):
    assert set(goldens.files) == set(CASES)


def test_timeout_row_mixes_outcomes(goldens):
    times = goldens["cobra_k5_timeout"]
    assert (times == -1.0).any() and (times > 0).any()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_event_engine_matches_goldens(goldens, graphs, case, jobs):
    process, graph_name, options = CASES[case]
    times = ENGINES[process](graphs[graph_name], 0, jobs=jobs, **KWARGS, **options)
    assert np.array_equal(times, goldens[case])
