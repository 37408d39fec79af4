"""E2 — Theorem 2: BIPS infects expanders in O(log n), same order as COBRA.

Workload: the same expander ladder as E1 at one degree.  We measure
BIPS (`k = 2`) infection times and COBRA cover times side by side:
Theorem 2 gives the same ``O(log n / (1-λ)³)`` bound for BIPS, and the
duality (Theorem 4) makes the two processes' completion times the same
order — the measured ratio should be a stable constant across `n`,
and both series should fit ``a + b log n`` with high ``R²``.
"""

from __future__ import annotations

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.fitting import fit_log_linear
from repro.analysis.tables import Table
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import (
    family_with_gap,
    measure_bips_infection,
    measure_cobra_cover,
)
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.families import GraphFamily
from repro.scenarios.workloads import E2Workload
from repro.theory.bounds import cover_time_bound

SPEC = ExperimentSpec(
    experiment_id="E2",
    title="BIPS infection time vs COBRA cover time",
    claim=(
        "With k=2 the BIPS infection time is O(log n / (1-lambda)^3) w.h.p., "
        "the same order as the COBRA cover time"
    ),
    paper_reference="Theorem 2 (and Theorem 4 for the order equivalence)",
    # v2: ensembles ride the vectorised batch engine (same distribution,
    # different same-seed draws), invalidating cached v1 results.
    version="4",
)

#: Workload type this experiment runs from.
WORKLOAD = E2Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E2Workload(
        sizes=(256, 512, 1024, 2048),
        samples=12,
        family=GraphFamily("random_regular", {"degree": 8}),
    ),
    "full": E2Workload(
        sizes=(256, 512, 1024, 2048, 4096, 8192),
        samples=30,
        family=GraphFamily("random_regular", {"degree": 8}),
    ),
}


def preset(mode: str) -> E2Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E2Workload, seed: int = 0) -> ExperimentResult:
    """Run E2 and return its tables, figure, and findings."""
    label = workload_label(PRESETS, workload)
    sizes, samples = workload.sizes, workload.samples

    table = Table(
        ["n", "lambda", "mean infec", "mean cov", "infec/cov", "T bound"]
    )
    ns: list[float] = []
    infection_means: list[float] = []
    cover_means: list[float] = []
    ratios: list[float] = []
    for offset, n in enumerate(sizes):
        graph, lam = family_with_gap(workload.family, n, seed=seed + offset)
        bips = measure_bips_infection(
            graph,
            n_samples=samples,
            seed=(seed, n, 1),
            engine=workload.engine,
            transmission_rate=workload.transmission_rate,
            recovery_rate=workload.recovery_rate,
            edge_rate_overrides=workload.edge_rate_overrides,
        )
        cobra = measure_cobra_cover(
            graph,
            n_samples=samples,
            seed=(seed, n, 2),
            engine=workload.engine,
            transmission_rate=workload.transmission_rate,
            edge_rate_overrides=workload.edge_rate_overrides,
        )
        ratio = bips.stats.mean / cobra.stats.mean
        # Bipartite family members (e.g. hypercubes) have lambda = 1,
        # where Theorem 1's bound is vacuous.
        bound = cover_time_bound(n, lam) if lam < 1.0 else float("inf")
        table.add_row(
            [n, lam, bips.stats.mean, cobra.stats.mean, ratio, bound]
        )
        ns.append(float(n))
        infection_means.append(bips.stats.mean)
        cover_means.append(cobra.stats.mean)
        ratios.append(ratio)

    bips_fit = fit_log_linear(ns, infection_means)
    cobra_fit = fit_log_linear(ns, cover_means)
    fits = Table(["process", "slope b", "intercept a", "R^2"])
    fits.add_row(["BIPS k=2", bips_fit.slope, bips_fit.intercept, bips_fit.r_squared])
    fits.add_row(["COBRA k=2", cobra_fit.slope, cobra_fit.intercept, cobra_fit.r_squared])

    figure = ascii_plot(
        {"BIPS infec": (ns, infection_means), "COBRA cov": (ns, cover_means)},
        log_x=True,
        title=f"E2: completion time vs n (log x), {workload.family.label()} graphs",
        x_label="n",
        y_label="rounds",
    )
    ratio_spread = max(ratios) / min(ratios)
    findings = [
        f"BIPS infection time is linear in log n (R^2 = {bips_fit.r_squared:.4f})",
        (
            f"infec/cov ratio stays within a factor {ratio_spread:.2f} across the ladder "
            f"(mean ratio {sum(ratios) / len(ratios):.2f}) — same order, as the duality implies"
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={"BIPS vs COBRA": table, "log-n fits": fits},
        figures={"completion vs n": figure},
        findings=findings,
    )
