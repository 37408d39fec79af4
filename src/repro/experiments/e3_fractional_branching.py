"""E3 — Theorem 3: any constant branching surplus ρ > 0 gives O(log n).

Workload: COBRA with fractional branching factor ``1 + ρ`` on a fixed-
degree expander ladder, for several constants ``ρ``.  Theorem 3 says
every constant ``ρ > 0`` yields ``O(log n)`` cover on expanders; the
experiment checks (a) the log-n shape per ``ρ`` and (b) how the fitted
slope grows as ``ρ`` shrinks — Corollary 1's per-round growth factor
``1 + ρ(1-λ²)(1-|A|/n)`` suggests roughly ``slope ∝ 1/ρ``.
``ρ = 0`` (plain random walk) is excluded: its cover time is
``Ω(n log n)`` and is measured in E7 instead.
"""

from __future__ import annotations

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.fitting import fit_linear, fit_log_linear
from repro.analysis.tables import Table
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap, measure_cobra_cover
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E3Workload

SPEC = ExperimentSpec(
    experiment_id="E3",
    title="Fractional branching factor 1 + rho",
    claim=(
        "COBRA with branching factor 1 + rho covers expanders in O(log n) rounds "
        "for every constant rho > 0"
    ),
    paper_reference="Theorem 3 (via Corollary 1)",
    # v2: the batch-kernel rewrite changed this experiment's same-seed
    # draws (distribution unchanged), invalidating cached v1 results.
    version="3",
)

#: Workload type this experiment runs from.
WORKLOAD = E3Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E3Workload(
        sizes=(256, 512, 1024, 2048), rhos=(0.1, 0.25, 0.5, 1.0), samples=10, degree=8
    ),
    "full": E3Workload(
        sizes=(256, 512, 1024, 2048, 4096),
        rhos=(0.05, 0.1, 0.25, 0.5, 1.0),
        samples=25,
        degree=8,
    ),
}


def preset(mode: str) -> E3Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E3Workload, seed: int = 0) -> ExperimentResult:
    """Run E3 and return its tables, figure, and findings."""
    label = workload_label(PRESETS, workload)
    sizes, rhos, samples = workload.sizes, workload.rhos, workload.samples

    graphs = []
    for offset, n in enumerate(sizes):
        graphs.append((n,) + expander_with_gap(n, workload.degree, seed=seed + offset))

    measurements = Table(["rho", "n", "lambda", "mean cov", "median", "max"])
    fits = Table(["rho", "slope b", "intercept a", "R^2"])
    series: dict[str, tuple[list[float], list[float]]] = {}
    slopes: list[float] = []
    for rho in rhos:
        xs: list[float] = []
        ys: list[float] = []
        for n, graph, lam in graphs:
            # The vectorised batch engine covers the fractional regime,
            # so the whole rho-ladder rides the fast path.
            result = measure_cobra_cover(
                graph,
                branching=1.0 + rho,
                n_samples=samples,
                seed=(seed, n, int(rho * 1000)),
                engine="batch",
            )
            measurements.add_row(
                [rho, n, lam, result.stats.mean, result.stats.median, result.stats.maximum]
            )
            xs.append(float(n))
            ys.append(result.stats.mean)
        fit = fit_log_linear(xs, ys)
        fits.add_row([rho, fit.slope, fit.intercept, fit.r_squared])
        slopes.append(fit.slope)
        series[f"rho={rho}"] = (xs, ys)

    min_r2 = min(float(row[3]) for row in fits.rows)
    # Does slope scale like 1/rho?  Fit slope against 1/rho.
    inverse_rhos = [1.0 / rho for rho in rhos]
    slope_fit = fit_linear(inverse_rhos, slopes)

    figure = ascii_plot(
        series,
        log_x=True,
        title=f"E3: COBRA(1+rho) mean cover time vs n (log x), random {workload.degree}-regular",
        x_label="n",
        y_label="rounds",
    )
    findings = [
        f"every rho in {rhos} shows log-n cover scaling (worst R^2 = {min_r2:.4f})",
        (
            f"the fitted log-n slope grows with 1/rho "
            f"(slope ~ {slope_fit.slope:.2f}/rho + {slope_fit.intercept:.2f}, "
            f"R^2 = {slope_fit.r_squared:.3f}), matching Corollary 1's rho-scaled growth"
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={"cover times": measurements, "log-n fits per rho": fits},
        figures={"cover vs n per rho": figure},
        findings=findings,
    )
