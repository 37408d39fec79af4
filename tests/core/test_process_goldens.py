"""Bit-identity of the process classes against captured goldens.

``tests/data/process_goldens.npz`` holds, for every case below and
seeds 0–7 (``seed=s`` passed to the process, start/source/initial
vertex 0), the :func:`~repro.core.runner.run_process` outcome with
``record_trace=True`` and ``max_rounds=MAX_ROUNDS``:

* ``cases`` — the case names, in capture order;
* ``times`` — ``(cases, seeds)`` completion times, ``-1`` when none;
* ``rounds`` — ``(cases, seeds)`` rounds run;
* ``active``, ``cumulative`` and ``transmissions`` — the per-round
  active counts, cumulative counts and messages, concatenated over
  cases, then seeds, then rounds;
* ``first_hits_<case>`` — for every ``CobraProcess`` case, the final
  :meth:`first_hit_times` of each seed, concatenated over seeds.

The cases are ``CobraProcess`` and ``BipsProcess`` at ``branching``
1.5 and 2, each also with ``loss_probability=0.2``, and ``SisProcess``
at 1.5 and 2; push, pull and push–pull; one and four random walkers;
``CobraProcess`` with ``include_start_in_cover=True``; and the dynamic
COBRA and BIPS classes at ``branching=2`` on ``static_provider`` — all
on ``petersen()`` and ``random_regular(64, 4, seed=7)`` — then the
dynamic classes on ``EvolvingRegularGraph(64, 4, period=p, seed=p)``
for ``p`` = 1 and 3.  Fractional branching exercises the per-vertex
extra-draw coins, and loss the thinning draws; every case pins the
order in which the process consumes its generator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.dynamic import (
    DynamicBipsProcess,
    DynamicCobraProcess,
    EvolvingRegularGraph,
    static_provider,
)
from repro.core.pull import PullProcess
from repro.core.push import PushProcess
from repro.core.pushpull import PushPullProcess
from repro.core.randomwalk import RandomWalkProcess
from repro.core.runner import run_process
from repro.core.sis import SisProcess
from repro.graphs import generators

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "process_goldens.npz"

#: The exact configuration the goldens were captured with.
GRAPHS = {
    "petersen": generators.petersen,
    "rr64": lambda: generators.random_regular(64, 4, seed=7),
}
PROCESSES = {"cobra": CobraProcess, "bips": BipsProcess, "sis": SisProcess}
SEEDS = range(8)
MAX_ROUNDS = 64


def _on_graph(cls, **options):
    return lambda graph, seed: cls(graph, 0, seed=seed, **options)


def _on_static_provider(cls):
    return lambda graph, seed: cls(static_provider(graph), 0, branching=2.0, seed=seed)


def _on_evolving(cls, period):
    def build(graph, seed):
        provider = EvolvingRegularGraph(64, 4, period=period, seed=period)
        return cls(provider, 0, branching=2.0, seed=seed)

    return build


#: ``name -> (graph name or None, build(graph, seed))``, in capture order.
CASES = {
    f"{process}_{graph_name}_k{branching}" + (f"_loss{loss}" if loss else ""): (
        graph_name,
        _on_graph(
            PROCESSES[process],
            branching=branching,
            **({"loss_probability": loss} if loss else {}),
        ),
    )
    for graph_name in GRAPHS
    for process in PROCESSES
    for branching in (1.5, 2.0)
    for loss in ((0.0,) if process == "sis" else (0.0, 0.2))
}
#: The cases captured after the first twenty, per graph: ``(name, suffix, build)``.
PER_GRAPH = (
    ("push", "", _on_graph(PushProcess)),
    ("pull", "", _on_graph(PullProcess)),
    ("pushpull", "", _on_graph(PushPullProcess)),
    ("walk", "_w1", _on_graph(RandomWalkProcess)),
    ("walk", "_w4", _on_graph(RandomWalkProcess, n_walkers=4)),
    (
        "cobra",
        "_k2.0_startcovered",
        _on_graph(CobraProcess, branching=2.0, include_start_in_cover=True),
    ),
    ("dyncobra", "_k2.0", _on_static_provider(DynamicCobraProcess)),
    ("dynbips", "_k2.0", _on_static_provider(DynamicBipsProcess)),
)
CASES.update(
    {
        f"{name}_{graph_name}{suffix}": (graph_name, build)
        for graph_name in GRAPHS
        for name, suffix, build in PER_GRAPH
    }
)
CASES.update(
    {
        f"{name}_evolving_p{period}_k2.0": (None, _on_evolving(cls, period))
        for period in (1, 3)
        for name, cls in (("dyncobra", DynamicCobraProcess), ("dynbips", DynamicBipsProcess))
    }
)

#: The cases whose final first-hit times are pinned.
FIRST_HIT_CASES = [case for case in CASES if case.startswith("cobra_")]
PER_ROUND = ("active", "cumulative", "transmissions")


def run_case(graphs, case):
    """The case's arrays over ``SEEDS``, keyed as in the goldens file."""
    graph_name, build = CASES[case]
    graph = graphs[graph_name] if graph_name else None
    runs = {"times": [], "rounds": [], **{key: [] for key in PER_ROUND}, "first_hits": []}
    for seed in SEEDS:
        process = build(graph, seed)
        result = run_process(process, max_rounds=MAX_ROUNDS, record_trace=True)
        runs["times"].append(result.completion_time if result.completed else -1)
        runs["rounds"].append(result.rounds_run)
        runs["active"].append(result.trace.active_counts())
        runs["cumulative"].append(result.trace.cumulative_counts())
        runs["transmissions"].append(result.trace.transmissions())
        if case in FIRST_HIT_CASES:
            runs["first_hits"].append(process.first_hit_times())
    arrays = {
        "times": np.array(runs["times"]),
        "rounds": np.array(runs["rounds"]),
        **{key: np.concatenate(runs[key]) for key in PER_ROUND},
    }
    if case in FIRST_HIT_CASES:
        arrays["first_hits"] = np.concatenate(runs["first_hits"])
    return arrays


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDENS) as data:
        return dict(data)


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


def test_goldens_cover_every_case(goldens):
    assert list(goldens["cases"]) == list(CASES)
    prefix = "first_hits_"
    pinned = [key.removeprefix(prefix) for key in goldens if key.startswith(prefix)]
    assert sorted(pinned) == sorted(FIRST_HIT_CASES)


def test_goldens_include_unfinished_runs(goldens):
    # Lossy COBRA and SIS die out, and lossy BIPS and the walks can
    # reach the cap: the traces pin unfinished runs too.
    assert (goldens["times"] == -1).any() and (goldens["times"] > 0).any()


@pytest.mark.parametrize("case", list(CASES))
def test_process_matches_goldens(goldens, graphs, case):
    index = list(CASES).index(case)
    offsets = np.concatenate([[0], np.cumsum(goldens["rounds"].sum(axis=1))])
    window = slice(offsets[index], offsets[index + 1])
    arrays = run_case(graphs, case)
    assert np.array_equal(arrays["times"], goldens["times"][index])
    assert np.array_equal(arrays["rounds"], goldens["rounds"][index])
    for key in PER_ROUND:
        assert np.array_equal(arrays[key], goldens[key][window]), key
    if case in FIRST_HIT_CASES:
        assert np.array_equal(arrays["first_hits"], goldens[f"first_hits_{case}"])


if __name__ == "__main__":
    # Re-capture (only for a deliberate change of the processes' laws).
    built = {name: factory() for name, factory in GRAPHS.items()}
    rows = {case: run_case(built, case) for case in CASES}
    np.savez_compressed(
        GOLDENS,
        cases=np.array(list(CASES)),
        times=np.array([row["times"] for row in rows.values()], dtype=np.int16),
        rounds=np.array([row["rounds"] for row in rows.values()], dtype=np.int16),
        **{
            key: np.concatenate([row[key] for row in rows.values()]).astype(np.int16)
            for key in PER_ROUND
        },
        **{
            f"first_hits_{case}": rows[case]["first_hits"].astype(np.int16)
            for case in FIRST_HIT_CASES
        },
    )
