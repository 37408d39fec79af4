"""E4 — Theorem 4: the COBRA/BIPS duality, exact and Monte-Carlo.

Two tiers of verification:

* **Exact** (small graphs): evolve the full subset distributions of
  both processes and compare ``P̂(Hit_C(v) > t)`` with
  ``P(C ∩ A_t = ∅)`` for every ``t`` up to a horizon.  A correct
  implementation leaves only float rounding (``~1e-12``).  Run for
  integer and fractional branching, on regular graphs (the paper's
  setting) and an irregular one (the identity holds there too — the
  proof never uses regularity; reported as an observation).
* **Monte-Carlo** (a 200-vertex expander, beyond exact reach): estimate
  both sides by simulation and check agreement within Wilson 95%
  intervals.  One batch ensemble per side runs to the last checkpoint
  and every checkpoint is read off it, so the checkpoints share their
  trials; the ensembles shard over ``--jobs`` like the exact cases.
"""

from __future__ import annotations

from repro.analysis.tables import Table
from repro.exact.duality import duality_gaps, duality_monte_carlo
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.graphs.base import Graph
from repro.graphs.generators import complete, cycle, path, petersen, random_regular
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E4Workload

SPEC = ExperimentSpec(
    experiment_id="E4",
    title="COBRA <-> BIPS duality",
    claim=(
        "P(Hit_C(v) > t | C_0 = C) for COBRA equals P(C cap A_t = empty | A_0 = {v}) "
        "for BIPS, for every C, v, t and branching factor k"
    ),
    paper_reference="Theorem 4",
    # v4: the Monte-Carlo tier runs one batch ensemble per side (same
    # law, new draws).
    version="5",
)

#: Workload type this experiment runs from.
WORKLOAD = E4Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E4Workload(trials=2000, exact_t_max=12),
    "full": E4Workload(trials=20000, exact_t_max=12),
}


def preset(mode: str) -> E4Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def _exact_cases(seed: int) -> list[tuple[str, Graph, list[int], int]]:
    """(label, graph, start set C, source v) tuples for the exact tier."""
    return [
        ("petersen, C={0}", petersen(), [0], 7),
        ("petersen, |C|=3", petersen(), [0, 3, 8], 5),
        ("complete K7", complete(7), [1], 4),
        ("cycle C9", cycle(9), [0, 2], 6),
        ("random 3-regular n=10", random_regular(10, 3, seed=seed), [0], 9),
        ("path n=6 (irregular)", path(6), [0], 5),
    ]


def run(workload: E4Workload, seed: int = 0) -> ExperimentResult:
    """Run E4 and return its tables and findings."""
    label = workload_label(PRESETS, workload)
    trials, exact_t_max = workload.trials, workload.exact_t_max

    exact = Table(["case", "branching k", "t_max", "max |LHS - RHS|"], float_format="%.2e")
    rows, cases = [], []
    for case_label, graph, start, source in _exact_cases(seed):
        for branching in (1.0, 1.5, 2.0, 3.0):
            rows.append([case_label, branching, exact_t_max])
            cases.append((graph, start, source, branching, 0.0))
    gaps = duality_gaps(cases, exact_t_max)
    for row, gap in zip(rows, gaps):
        exact.add_row([*row, gap])
    worst_gap = max(gaps)

    mc_graph = random_regular(workload.mc_n, workload.mc_degree, seed=seed + 17)
    start, source = 0, workload.mc_source
    monte_carlo = Table(
        ["t", "COBRA P(Hit>t)", "BIPS P(u not in A_t)", "|diff|", "CI overlap"]
    )
    points = duality_monte_carlo(
        mc_graph, start, source, workload.mc_checkpoints, trials=trials, seed=seed
    )
    all_overlap = True
    for point in points:
        all_overlap = all_overlap and point.intervals_overlap
        monte_carlo.add_row(
            [
                point.t,
                point.cobra_estimate,
                point.bips_estimate,
                point.difference,
                point.intervals_overlap,
            ]
        )

    findings = [
        f"exact duality gap over all cases and branchings: {worst_gap:.2e} (float noise)",
        "the identity also holds exactly on an irregular graph (path n=6) — the paper "
        "proves it for regular graphs but the argument never uses regularity",
        (
            f"Monte-Carlo estimates on a {workload.mc_n}-vertex "
            f"{workload.mc_degree}-regular expander "
            + ("agree within 95% Wilson intervals at every t" if all_overlap else "DISAGREE")
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={"exact verification": exact, "monte-carlo verification": monte_carlo},
        findings=findings,
    )
