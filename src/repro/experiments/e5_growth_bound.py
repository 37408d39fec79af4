"""E5 — Lemma 1 / Corollary 1: the one-step expected-growth lower bound.

The lemma asserts, for BIPS with `k = 2` on a connected regular graph,

``E(|A_{t+1}| | A_t = A) >= |A| (1 + (1-λ²)(1 - |A|/n))``  for every A,

and Corollary 1 scales the gain by ``ρ`` for branching ``1 + ρ``.
Both sides are *deterministic* functions of the state, so the check is
noise-free: we compute the exact conditional expectation (paper
Eq. (3)) and the bound for many infected sets — exhaustively on small
graphs, stratified-random on larger ones — and report the minimum
exact/bound ratio, which the lemma predicts to be ``>= 1``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.graphs.base import Graph
from repro.graphs.spectral import lambda_second
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.families import GraphCase
from repro.scenarios.workloads import E5Workload
from repro.theory.growth import growth_bound_ratio, minimum_growth_ratio

SPEC = ExperimentSpec(
    experiment_id="E5",
    title="One-step growth lower bound for BIPS",
    claim=(
        "E(|A_{t+1}| | A_t = A) >= |A| (1 + rho (1-lambda^2)(1 - |A|/n)) for every "
        "infected set A on every connected regular graph (rho = 1 for k = 2)"
    ),
    paper_reference="Lemma 1 and Corollary 1",
    version="2",
)

#: Workload type this experiment runs from.
WORKLOAD = E5Workload

#: The quick and full workloads.  Seeded generators name a
#: ``seed_offset``: a case is built with seed ``seed + seed_offset``.
PRESETS = {
    "quick": E5Workload(
        sampled_sets=200,
        cases=(
            GraphCase("petersen (exhaustive)", "petersen"),
            GraphCase("cycle C9 (exhaustive)", "cycle", (9,)),
            GraphCase("complete K8 (exhaustive)", "complete", (8,)),
            GraphCase("random 4-regular n=64", "random_regular", (64, 4), seed_offset=0),
            GraphCase("random 8-regular n=128", "random_regular", (128, 8), seed_offset=1),
            GraphCase("circulant n=64 {1,2,5}", "circulant", (64, (1, 2, 5))),
            GraphCase("torus 5x5", "torus", ((5, 5),)),
        ),
    ),
    "full": E5Workload(
        sampled_sets=1000,
        cases=(
            GraphCase("petersen (exhaustive)", "petersen"),
            GraphCase("cycle C9 (exhaustive)", "cycle", (9,)),
            GraphCase("cycle C11 (exhaustive)", "cycle", (11,)),
            GraphCase("complete K8 (exhaustive)", "complete", (8,)),
            GraphCase("complete K12 (exhaustive)", "complete", (12,)),
            GraphCase("random 4-regular n=64", "random_regular", (64, 4), seed_offset=0),
            GraphCase("random 8-regular n=128", "random_regular", (128, 8), seed_offset=1),
            GraphCase("random 16-regular n=256", "random_regular", (256, 16), seed_offset=2),
            GraphCase("circulant n=64 {1,2,5}", "circulant", (64, (1, 2, 5))),
            GraphCase("torus 5x5", "torus", ((5, 5),)),
            GraphCase("torus 3x3x3", "torus", ((3, 3, 3),)),
        ),
    ),
}


def preset(mode: str) -> E5Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def _exhaustive_minimum(graph: Graph, source: int, lam: float, branching: float) -> float:
    """Minimum ratio over *all* source-containing infected sets."""
    n = graph.n_vertices
    worst = np.inf
    for mask_bits in range(1 << n):
        if not (mask_bits >> source) & 1:
            continue
        mask = np.array([(mask_bits >> u) & 1 == 1 for u in range(n)])
        worst = min(worst, growth_bound_ratio(graph, mask, source, lam, branching=branching))
    return float(worst)


def run(workload: E5Workload, seed: int = 0) -> ExperimentResult:
    """Run E5 and return its table and findings."""
    label = workload_label(PRESETS, workload)
    sampled_sets = workload.sampled_sets
    cases: list[tuple[str, Graph]] = [
        (case.label, case.build(seed)) for case in workload.cases
    ]

    table = Table(["graph", "branching", "lambda", "states checked", "min exact/bound"])
    overall_worst = np.inf
    branchings = workload.branchings
    for case_label, graph in cases:
        lam = lambda_second(graph)
        source = 0
        exhaustive = graph.n_vertices <= workload.exhaustive_limit
        for branching in branchings:
            if exhaustive:
                states = (1 << graph.n_vertices) // 2
                worst = _exhaustive_minimum(graph, source, lam, branching)
            else:
                states = sampled_sets
                worst = minimum_growth_ratio(
                    graph,
                    source,
                    lam,
                    branching=branching,
                    n_random_sets=sampled_sets,
                    seed=(seed, graph.n_vertices, int(branching * 100)),
                )
            overall_worst = min(overall_worst, worst)
            table.add_row([case_label, branching, lam, states, worst])

    holds = overall_worst >= 1.0 - 1e-9
    findings = [
        (
            f"minimum exact/bound ratio over all graphs, branchings and states: "
            f"{overall_worst:.6f} — the bound {'HOLDS' if holds else 'FAILS'} "
            f"(Lemma 1 predicts >= 1)"
        ),
        "equality is approached at |A| = n (both sides equal n), so ratios near 1 are expected",
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={"growth-bound ratios": table},
        findings=findings,
    )
