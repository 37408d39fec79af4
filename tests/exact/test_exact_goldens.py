"""The exact engines against outputs pinned from the fold-by-fold engines.

``tests/data/exact_goldens.npz`` was captured from the engines that built
every step row one neighbour draw at a time, before the closed-form
step matrices replaced them.  It holds:

* sampled step-matrix entries of ``ExactCobra`` and ``ExactBips``
  (source 0) on ``petersen()``, ``complete(7)``, ``cycle(9)`` and
  ``path(6)``, with replacement at k ∈ {1, 1.5, 2, 3} and loss ∈ {0, 0.3}
  (keys ending ``_wr``).  Rows and columns are every ``s``-th mask,
  ``s = 7`` on the two small graphs and 17 (``cycle(9)``) or 31
  (Petersen) on the larger ones, so the file stays under 200 KB;
  ``rows_<graph>`` and ``columns_<graph>`` hold the masks.  The file
  also holds rows sampled without replacement (keys ending ``_wor``), a
  sampling the engines do not offer: those arrays are not read;
* both duality sides of E4's 24 exact cases at ``t_max = 12`` (the
  random 3-regular graph's edges are stored, so the case does not
  depend on the random-graph generator) and E13's 18 lossy cases at
  ``t_max = 10``;
* the K7 cover-time pmf to ``t = 60`` and its tail.

The new engines compute the same laws by subset transforms, so they
agree to rounding, not bit for bit: every value must match within
``1e-13`` absolute.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.cover_exact import ExactCobraCover
from repro.exact.duality import duality_series
from repro.graphs import from_edges, generators

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "exact_goldens.npz"
TOLERANCE = 1e-13

GRAPHS = {
    "petersen": generators.petersen,
    "k7": lambda: generators.complete(7),
    "c9": lambda: generators.cycle(9),
    "p6": lambda: generators.path(6),
}
#: (graph, branching, loss) of the pinned step rows.
STEP_CONFIGS = [
    (graph, k, loss) for graph in GRAPHS for k in (1.0, 1.5, 2.0, 3.0) for loss in (0.0, 0.3)
]


@pytest.fixture(scope="module")
def goldens():
    with np.load(GOLDENS) as data:
        return dict(data)


@pytest.mark.parametrize(
    ("graph_name", "branching", "loss"),
    STEP_CONFIGS,
    # The "True" names sampling with replacement, as the "_wr" keys do.
    ids=[f"{graph}-{k}-{loss}-True" for graph, k, loss in STEP_CONFIGS],
)
def test_step_rows(goldens, graph_name, branching, loss):
    graph = GRAPHS[graph_name]()
    options = dict(branching=branching, loss_probability=loss)
    engines = {"cobra": ExactCobra(graph, **options), "bips": ExactBips(graph, 0, **options)}
    rows, columns = goldens[f"rows_{graph_name}"], goldens[f"columns_{graph_name}"]
    for name, engine in engines.items():
        pinned = goldens[f"{name}_{graph_name}_k{branching:g}_loss{loss:g}_wr"]
        sampled = np.array([engine.step_distribution(int(mask))[columns] for mask in rows])
        assert np.abs(sampled - pinned).max() < TOLERANCE, name


def _e4_cases(goldens):
    random_regular = from_edges(10, goldens["e4_random_regular_edges"].tolist())
    graphs = [
        (generators.petersen(), [0], 7),
        (generators.petersen(), [0, 3, 8], 5),
        (generators.complete(7), [1], 4),
        (generators.cycle(9), [0, 2], 6),
        (random_regular, [0], 9),
        (generators.path(6), [0], 5),
    ]
    return [
        (graph, start, source, k, 0.0)
        for graph, start, source in graphs
        for k in (1.0, 1.5, 2.0, 3.0)
    ]


def _e13_cases():
    graphs = [
        (generators.petersen(), [0], 7),
        (generators.complete(6), [1, 2], 4),
        (generators.cycle(9), [0], 5),
    ]
    return [
        (graph, start, source, k, loss)
        for graph, start, source in graphs
        for k in (1.5, 2.0)
        for loss in (0.1, 0.3, 0.6)
    ]


@pytest.mark.parametrize(("experiment", "t_max"), [("e4", 12), ("e13", 10)])
def test_duality_sides(goldens, experiment, t_max):
    cases = _e4_cases(goldens) if experiment == "e4" else _e13_cases()
    pinned_cobra = goldens[f"{experiment}_cobra_side"]
    pinned_bips = goldens[f"{experiment}_bips_side"]
    assert len(cases) == len(pinned_cobra)
    for index, (graph, start, source, k, loss) in enumerate(cases):
        cobra_side, bips_side = duality_series(
            graph, start, source, t_max, branching=k, loss_probability=loss
        )
        assert np.abs(cobra_side - pinned_cobra[index]).max() < TOLERANCE
        assert np.abs(bips_side - pinned_bips[index]).max() < TOLERANCE


def test_k7_cover_law(goldens):
    pmf, tail = ExactCobraCover(generators.complete(7)).cover_time_distribution(
        0, t_max=60, tolerance=0.0
    )
    assert np.abs(pmf - goldens["k7_cover_pmf"]).max() < TOLERANCE
    assert abs(tail - float(goldens["k7_cover_tail"])) < TOLERANCE
