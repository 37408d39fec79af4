"""Bit-identity of the process classes against captured goldens.

``tests/data/process_goldens.npz`` holds, for every case below and
seeds 0–7 (``seed=s`` passed to the process, start/source/initial
vertex 0), the :func:`~repro.core.runner.run_process` outcome with
``record_trace=True`` and ``max_rounds=MAX_ROUNDS``:

* ``cases`` — the case names, in capture order;
* ``times`` — ``(cases, seeds)`` completion times, ``-1`` when none;
* ``rounds`` — ``(cases, seeds)`` rounds run;
* ``active`` and ``transmissions`` — the per-round active counts and
  messages, concatenated over cases, then seeds, then rounds.

The cases are ``CobraProcess`` and ``BipsProcess`` at ``branching``
1.5 and 2, each also with ``loss_probability=0.2``, and ``SisProcess``
at 1.5 and 2, on ``petersen()`` and ``random_regular(64, 4, seed=7)``.
Fractional branching exercises the per-vertex extra-draw coins, and
loss the thinning draws; every case pins the order in which the
process consumes its generator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
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
CASES = {
    f"{process}_{graph_name}_k{branching}" + (f"_loss{loss}" if loss else ""): (
        process,
        graph_name,
        {"branching": branching, **({"loss_probability": loss} if loss else {})},
    )
    for graph_name in GRAPHS
    for process in PROCESSES
    for branching in (1.5, 2.0)
    for loss in ((0.0,) if process == "sis" else (0.0, 0.2))
}


def run_case(graph, case):
    """``(times, rounds, active, transmissions)`` of one case over ``SEEDS``."""
    process, _, options = CASES[case]
    times, rounds, active, transmissions = [], [], [], []
    for seed in SEEDS:
        result = run_process(
            PROCESSES[process](graph, 0, seed=seed, **options),
            max_rounds=MAX_ROUNDS,
            record_trace=True,
        )
        times.append(result.completion_time if result.completed else -1)
        rounds.append(result.rounds_run)
        active.append(result.trace.active_counts())
        transmissions.append(result.trace.transmissions())
    return (
        np.array(times),
        np.array(rounds),
        np.concatenate(active),
        np.concatenate(transmissions),
    )


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDENS) as data:
        return dict(data)


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


def test_goldens_cover_every_case(goldens):
    assert list(goldens["cases"]) == list(CASES)


def test_goldens_include_unfinished_runs(goldens):
    # Lossy COBRA and SIS die out, and lossy BIPS can reach the cap: the
    # traces pin unfinished runs too.
    assert (goldens["times"] == -1).any() and (goldens["times"] > 0).any()


@pytest.mark.parametrize("case", list(CASES))
def test_process_matches_goldens(goldens, graphs, case):
    index = list(CASES).index(case)
    offsets = np.concatenate([[0], np.cumsum(goldens["rounds"].sum(axis=1))])
    window = slice(offsets[index], offsets[index + 1])
    times, rounds, active, transmissions = run_case(graphs[CASES[case][1]], case)
    assert np.array_equal(times, goldens["times"][index])
    assert np.array_equal(rounds, goldens["rounds"][index])
    assert np.array_equal(active, goldens["active"][window])
    assert np.array_equal(transmissions, goldens["transmissions"][window])


if __name__ == "__main__":
    # Re-capture (only for a deliberate change of the processes' laws).
    built = {name: factory() for name, factory in GRAPHS.items()}
    rows = [run_case(built[CASES[case][1]], case) for case in CASES]
    np.savez_compressed(
        GOLDENS,
        cases=np.array(list(CASES)),
        times=np.array([row[0] for row in rows], dtype=np.int16),
        rounds=np.array([row[1] for row in rows], dtype=np.int16),
        active=np.concatenate([row[2] for row in rows]).astype(np.int16),
        transmissions=np.concatenate([row[3] for row in rows]).astype(np.int16),
    )
