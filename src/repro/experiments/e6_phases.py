"""E6 — Lemmas 2-4: the three-phase growth of the BIPS infected set.

The proof of Theorem 2 decomposes a BIPS run into a small-set phase
(to ``m = K log n/(1-λ)²``), a mid phase (to ``9n/10``) and an endgame
(to ``n``), with explicit round budgets per phase.  We record infected-
set trajectories on an expander ladder, measure where each trajectory
actually crosses the thresholds, and compare against the budgets.

Two honest caveats are built into the report: (a) the paper's constant
``K = 4000`` makes the boundary exceed `n` at simulation scale, so the
threshold uses ``K = 1`` — the *shape* of the decomposition is what is
being checked; (b) the budgets use the paper's loose explicit
constants, so measured durations should sit well below them (the check
is that they do, and that durations scale like ``log n``).
"""

from __future__ import annotations

from repro.analysis.fitting import fit_log_linear
from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.core.batch import batch_bips_traces
from repro.core.runner import default_max_rounds
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap
from repro.analysis.phases import split_phases
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E6Workload
from repro.theory.bounds import (
    lemma2_round_budget,
    lemma3_round_budget,
    lemma4_round_budget,
    phase_boundary_size,
)

SPEC = ExperimentSpec(
    experiment_id="E6",
    title="Three-phase growth of the BIPS infection",
    claim=(
        "The infected set crosses m = K log n/(1-lambda)^2 within "
        "13m/(1-lambda) + 24C log n/(1-lambda)^2 rounds, reaches 9n/10 within "
        "23 log n/(1-lambda) more, and covers within 8 log n/(1-lambda) more, w.h.p."
    ),
    paper_reference="Lemmas 2, 3, 4 (proof of Theorem 2)",
    # v2: trajectories come from the batched trace engine (same
    # distribution, different same-seed draws).
    version="4",
)

#: Workload type this experiment runs from.
WORKLOAD = E6Workload

#: The quick and full workloads.  Both keep the default boundary
#: constant K = 1, scaled down from the paper's 4000.
PRESETS = {
    "quick": E6Workload(sizes=(512, 1024, 2048, 4096), trajectories=10, degree=8),
    "full": E6Workload(sizes=(512, 1024, 2048, 4096, 8192), trajectories=30, degree=8),
}


def preset(mode: str) -> E6Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E6Workload, seed: int = 0) -> ExperimentResult:
    """Run E6 and return its tables and findings."""
    label = workload_label(PRESETS, workload)
    sizes, trajectories = workload.sizes, workload.trajectories

    table = Table(
        [
            "n",
            "lambda",
            "boundary m",
            "small mean",
            "small budget",
            "mid mean",
            "mid budget",
            "endgame mean",
            "endgame budget",
        ]
    )
    ns: list[float] = []
    mid_means: list[float] = []
    end_means: list[float] = []
    within_budget = True
    for offset, n in enumerate(sizes):
        graph, lam = expander_with_gap(n, workload.degree, seed=seed + offset)
        boundary = phase_boundary_size(n, lam, constant=workload.boundary_constant)
        small_rounds: list[int] = []
        mid_rounds: list[int] = []
        endgame_rounds: list[int] = []
        cap = default_max_rounds(graph)
        # One batched-trace call evolves every trajectory of this cell
        # simultaneously; ``active_trajectory`` recovers the per-round
        # ``|A_t|`` curve (round 0 included) each lemma check needs.
        traces = batch_bips_traces(
            graph,
            0,
            branching=workload.branching,
            n_replicas=trajectories,
            seed=(seed, n, 6),
            max_rounds=cap,
        )
        for replica in range(trajectories):
            trajectory = traces.active_trajectory(replica)
            breakdown = split_phases(trajectory, n, boundary)
            if (
                breakdown.small_phase_rounds is None
                or breakdown.mid_phase_rounds is None
                or breakdown.endgame_rounds is None
            ):
                raise RuntimeError(f"BIPS trajectory on n={n} did not complete all phases")
            small_rounds.append(breakdown.small_phase_rounds)
            mid_rounds.append(breakdown.mid_phase_rounds)
            endgame_rounds.append(breakdown.endgame_rounds)
        small_budget = lemma2_round_budget(boundary, n, lam)
        mid_budget = lemma3_round_budget(n, lam)
        endgame_budget = lemma4_round_budget(n, lam)
        small_stats = summarize(small_rounds)
        mid_stats = summarize(mid_rounds)
        endgame_stats = summarize(endgame_rounds)
        within_budget = within_budget and (
            small_stats.maximum <= small_budget
            and mid_stats.maximum <= mid_budget
            and endgame_stats.maximum <= endgame_budget
        )
        table.add_row(
            [
                n,
                lam,
                boundary,
                small_stats.mean,
                small_budget,
                mid_stats.mean,
                mid_budget,
                endgame_stats.mean,
                endgame_budget,
            ]
        )
        ns.append(float(n))
        mid_means.append(mid_stats.mean)
        end_means.append(endgame_stats.mean)

    mid_fit = fit_log_linear(ns, mid_means)
    end_fit = fit_log_linear(ns, end_means)
    findings = [
        (
            "every measured phase duration (max over trajectories) sits below its "
            f"lemma budget: {'yes' if within_budget else 'NO'}"
        ),
        (
            f"mid-phase duration grows like log n (slope {mid_fit.slope:.2f}, "
            f"R^2 = {mid_fit.r_squared:.3f}); endgame likewise "
            f"(slope {end_fit.slope:.2f}, R^2 = {end_fit.r_squared:.3f})"
        ),
        (
            f"the boundary uses K = {workload.boundary_constant} instead of the paper's 4000 "
            "(with K = 4000 the boundary exceeds n at simulation scale)"
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={"phase durations vs budgets": table},
        findings=findings,
    )
