"""E10 — ablation: what the *persistent* source buys BIPS.

BIPS differs from plain SIS refresh dynamics in exactly one clause: the
source never loses its infection.  The paper leans on this for
Theorem 2 (w.h.p. full infection) and motivates it epidemiologically
(persistently infected BVDV carriers).  The ablation runs both
processes from a single initially infected vertex with identical
sampling:

* plain SIS — the empty set is absorbing, and from a single vertex the
  process dies out with substantial probability before taking off
  (if all ~k·d samples pointing back at the seed miss, the epidemic is
  gone); once it takes off it reaches the all-infected state, which is
  absorbing for SIS too;
* BIPS — extinction is impossible, and full infection arrives in
  ``O(log n)`` rounds on the expander, every run.

Both run on the batch count kernel
(:func:`~repro.core.batch.batch_bips_infection_times`), whose law value
is the one difference: plain SIS is ``BipsLaw(persistent_source=False)``,
which arms the seed like any vertex, forces nothing infected, and
reports a replica whose infected set empties as extinct (with the round
it emptied), never as a timeout.  :class:`~repro.core.sis.SisProcess`
is the per-replica oracle the tests compare that law with.
"""

from __future__ import annotations

from repro.analysis.stats import proportion_ci, summarize
from repro.analysis.tables import Table
from repro.core.batch import BipsLaw, batch_bips_infection_times
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E10Workload

SPEC = ExperimentSpec(
    experiment_id="E10",
    title="Persistent source ablation (BIPS vs plain SIS)",
    claim=(
        "With the persistent source, full infection happens w.h.p.; without it the "
        "same dynamics die out with constant probability from a single seed"
    ),
    paper_reference="Section 1 (BIPS definition and BVDV motivation)",
    version="3",
)

#: Workload type this experiment runs from.
WORKLOAD = E10Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E10Workload(n=256, r=6, sis_trials=300, bips_trials=50),
    "full": E10Workload(n=256, r=6, sis_trials=2000, bips_trials=200),
}


#: Plain SIS: BIPS's round rule without the persistent source.
SIS = BipsLaw(persistent_source=False)


def preset(mode: str) -> E10Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E10Workload, seed: int = 0) -> ExperimentResult:
    """Run E10 and return its tables and findings."""
    label = workload_label(PRESETS, workload)
    sis_trials, bips_trials = workload.sis_trials, workload.bips_trials
    round_cap = workload.round_cap

    graph, lam = expander_with_gap(workload.n, workload.r, seed=seed)

    outcomes = Table(
        ["process", "branching", "trials", "extinct", "full infection", "timeout"]
    )
    details = Table(
        ["process", "branching", "P(extinct)", "95% CI", "mean t_extinct", "mean t_full"]
    )
    sis_extinction_probability: dict[float, float] = {}
    for branching in (1.0, 2.0):
        sis = batch_bips_infection_times(
            graph,
            0,
            branching=branching,
            n_replicas=sis_trials,
            seed=(seed, int(branching), 101),
            max_rounds=round_cap,
            raise_on_timeout=False,
            law=SIS,
        )
        extinction_times, completion_times = sis.extinction_times, sis.goal_times
        extinct, full, timeouts = extinction_times.size, completion_times.size, sis.timeouts
        probability = extinct / sis_trials
        sis_extinction_probability[branching] = probability
        ci = proportion_ci(extinct, sis_trials)
        outcomes.add_row(["SIS (no source)", branching, sis_trials, extinct, full, timeouts])
        details.add_row(
            [
                "SIS (no source)",
                branching,
                probability,
                f"[{ci[0]:.3f}, {ci[1]:.3f}]",
                summarize(extinction_times).mean if extinct else None,
                summarize(completion_times).mean if full else None,
            ]
        )

    bips_times = batch_bips_infection_times(
        graph,
        0,
        branching=2.0,
        n_replicas=bips_trials,
        seed=(seed, 3, 102),
        max_rounds=round_cap,
    )
    bips_stats = summarize(bips_times)
    outcomes.add_row(["BIPS (persistent)", 2.0, bips_trials, 0, bips_trials, 0])
    details.add_row(["BIPS (persistent)", 2.0, 0.0, "[0, 0]", None, bips_stats.mean])

    findings = [
        (
            f"plain SIS (k=2) from one seed dies out in "
            f"{100 * sis_extinction_probability[2.0]:.1f}% of runs; BIPS never does "
            f"({bips_trials}/{bips_trials} full infections, mean {bips_stats.mean:.1f} rounds)"
        ),
        (
            f"with k=1 the SIS dynamics are critical-or-below and died out in "
            f"{100 * sis_extinction_probability[1.0]:.1f}% of runs within the cap"
        ),
        "runs of SIS that escape extinction reach the (absorbing) all-infected state — "
        "the persistent source removes the early-extinction risk without changing the speed",
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict(), "lambda": lam},
        tables={"outcomes": outcomes, "details": details},
        findings=findings,
    )
