"""E13 — extension: COBRA and BIPS under independent message loss.

Real gossip deployments drop messages.  The extension thins every
push/contact independently with probability ``p`` and asks two
questions the paper's machinery answers:

* **Does the duality survive?**  Yes, exactly: thinning the choice
  sets preserves the two properties the Theorem 4 proof needs
  (identical per-vertex choice-set laws, independence across
  vertices).  Verified to float precision by the exact engines.
* **What does loss cost?**  An effective branching reduction: COBRA
  with branching `k` and loss `p` pushes `(1−p)k` surviving messages
  per token on average, so by the Theorem 3 lens the process stays
  logarithmic while ``(1−p)k > 1`` — but unlike the lossless process
  it can *die* (all messages of all tokens lost in one round), which
  the experiment quantifies alongside the slowdown.

The ensembles run on the batch round kernels with a law value each:
lossy COBRA is ``CobraLaw(loss=p)`` on the pick kernel (one thinning
coin per pick; a replica whose picks are all lost is reported as
extinct, not as a timeout), and lossy BIPS is ``BipsLaw(loss=p,
reach_all=True)`` on the count kernel (``q → (1 − p)·q`` in its
threshold table, and the goal read from the ever-infected set).
:class:`~repro.core.cobra.CobraProcess` and
:class:`~repro.core.bips.BipsProcess` are the per-replica oracles the
tests compare those laws with.
"""

from __future__ import annotations

from repro.analysis.stats import proportion_ci, summarize
from repro.analysis.tables import Table
from repro.core.batch import (
    BatchOutcome,
    BipsLaw,
    CobraLaw,
    batch_bips_infection_times,
    batch_cobra_cover_times,
)
from repro.exact.duality import duality_gaps
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap
from repro.graphs.base import Graph
from repro.graphs.generators import complete, cycle, petersen
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E13Workload

SPEC = ExperimentSpec(
    experiment_id="E13",
    title="Message loss (extension): lossy COBRA/BIPS and their duality",
    claim=(
        "independent per-message loss preserves the COBRA<->BIPS duality exactly, "
        "and costs an effective branching reduction k -> (1-p)k plus a death "
        "probability for COBRA"
    ),
    paper_reference="extension of Theorems 3 and 4 (choice-set thinning)",
    version="4",
)

#: Workload type this experiment runs from.
WORKLOAD = E13Workload

#: The quick and full workloads.  The loss rates are supercritical:
#: the effective branching (1-p)k stays above 1.  The (1-p)k = 1
#: threshold for k = 2 sits at p = 1/2, and the critical sweep crosses it.
PRESETS = {
    "quick": E13Workload(
        n=1024,
        r=8,
        loss_rates=(0.0, 0.1, 0.25, 0.4),
        critical_sweep=(0.40, 0.45, 0.50, 0.55, 0.60),
        samples=200,
    ),
    "full": E13Workload(
        n=1024,
        r=8,
        loss_rates=(0.0, 0.1, 0.25, 0.4),
        critical_sweep=(0.40, 0.45, 0.50, 0.55, 0.60),
        samples=1000,
    ),
}


def preset(mode: str) -> E13Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def _lossy_cobra(
    graph: Graph, loss: float, samples: int, seed: tuple, round_cap: int
) -> BatchOutcome:
    """``samples`` k = 2 COBRA runs under per-message ``loss``; timeouts stay ``-1``."""
    return batch_cobra_cover_times(
        graph,
        0,
        branching=2.0,
        n_replicas=samples,
        seed=seed,
        max_rounds=round_cap,
        raise_on_timeout=False,
        law=CobraLaw(loss=loss),
    )


def run(workload: E13Workload, seed: int = 0) -> ExperimentResult:
    """Run E13 and return its tables and findings."""
    run_mode = workload_label(PRESETS, workload)
    samples = workload.samples
    graph_n, round_cap = workload.n, workload.round_cap

    # --- exact lossy duality --------------------------------------------
    exact = Table(
        ["graph", "branching", "loss p", "max |LHS - RHS|"], float_format="%.2e"
    )
    rows, cases = [], []
    for label, graph, start, source in (
        ("petersen", petersen(), [0], 7),
        ("K6", complete(6), [1, 2], 4),
        ("C9", cycle(9), [0], 5),
    ):
        for branching in (1.5, 2.0):
            for loss in (0.1, 0.3, 0.6):
                rows.append([label, branching, loss])
                cases.append((graph, start, source, branching, loss))
    gaps = duality_gaps(cases, workload.exact_t_max)
    for row, gap in zip(rows, gaps):
        exact.add_row([*row, gap])
    worst_gap = max(gaps)

    # --- cost of loss on an expander -------------------------------------
    graph, lam = expander_with_gap(graph_n, workload.r, seed=seed)
    cost = Table(
        [
            "loss p",
            "effective k",
            "COBRA mean cov",
            "COBRA died",
            "P(death) 95% CI",
            "BIPS mean reach-all",
        ]
    )
    cobra_means: dict[float, float] = {}
    for loss in workload.loss_rates:
        cobra = _lossy_cobra(graph, loss, samples, (seed, int(loss * 100), 131), round_cap)
        cover_times = cobra.goal_times
        deaths = int(cobra.extinct.sum())
        # BIPS under loss: the full state is no longer absorbing (a
        # saturated vertex keeps its infection only w.p. 1 - p^k), so
        # simultaneous full infection effectively never occurs at
        # moderate p.  The meaningful coverage metric — and the dual of
        # COBRA's cover — is the first round by which every vertex has
        # been infected at least once.  A replica still short of it at
        # the round cap raises InfectionTimeoutError.
        reach_all = batch_bips_infection_times(
            graph,
            0,
            branching=2.0,
            n_replicas=max(samples // 4, 25),
            seed=(seed, int(loss * 100), 132),
            max_rounds=round_cap,
            law=BipsLaw(loss=loss, reach_all=True),
        )
        ci = proportion_ci(deaths, samples)
        cover_mean = summarize(cover_times).mean if cover_times.size else float("nan")
        cobra_means[loss] = cover_mean
        cost.add_row(
            [
                loss,
                2.0 * (1.0 - loss),
                cover_mean,
                f"{deaths}/{samples}",
                f"[{ci[0]:.3f}, {ci[1]:.3f}]",
                summarize(reach_all.completion_times).mean,
            ]
        )

    # --- the criticality transition at (1-p)k = 1 -------------------------
    transition = Table(
        ["loss p", "effective k", "covered", "died", "P(cover)"]
    )
    for loss in workload.critical_sweep:
        cobra = _lossy_cobra(graph, loss, samples, (seed, int(loss * 1000), 133), round_cap)
        covered, died = cobra.goal_times.size, int(cobra.extinct.sum())
        transition.add_row(
            [loss, 2.0 * (1.0 - loss), covered, died, covered / samples]
        )

    slowdown = cobra_means[workload.loss_rates[-1]] / cobra_means[0.0]
    cover_probabilities = dict(
        zip(transition.column("loss p"), transition.column("P(cover)"))
    )
    findings = [
        f"the duality holds exactly under loss: worst gap {worst_gap:.2e} "
        "across graphs, branchings and loss rates (float noise)",
        (
            f"loss is an effective branching reduction: at p = {workload.loss_rates[-1]} "
            f"(effective k = {2 * (1 - workload.loss_rates[-1]):.1f}) mean cover is "
            f"x{slowdown:.1f} the lossless time, mirroring Theorem 3's 1/rho slope"
        ),
        (
            f"a phase transition sits at (1-p)k = 1 (p = 0.5 for k = 2): cover "
            f"probability drops from {cover_probabilities[workload.critical_sweep[0]]:.2f} "
            f"at p = {workload.critical_sweep[0]:.2f} to "
            f"{cover_probabilities[workload.critical_sweep[-1]]:.2f} at "
            f"p = {workload.critical_sweep[-1]:.2f} — below threshold the token "
            "population dies before covering, Theorem 3's rho > 0 condition seen "
            "from the other side"
        ),
        "loss destroys BIPS's absorbing full state (a saturated vertex keeps its "
        "infection only w.p. 1 - p^k), so the reach-every-vertex time replaces "
        "infec(v) as the coverage metric — and it stays logarithmic",
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=run_mode,
        seed=seed,
        parameters={"workload": workload.to_dict(), "lambda": lam},
        tables={
            "exact lossy duality": exact,
            "cost of loss": cost,
            "criticality transition": transition,
        },
        findings=findings,
    )
