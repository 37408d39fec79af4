"""E1 — Theorem 1: COBRA covers expanders in O(log n), degree-free.

Workload: connected random `r`-regular graphs over a ladder of sizes
`n` and a spread of degrees `r`.  For every ``(n, r)`` cell we measure
an ensemble of COBRA (`k = 2`) cover times from a fixed start vertex,
then (a) fit ``cov = a + b log n`` per degree and report ``R²`` — the
linear-in-``log n`` shape *is* Theorem 1's content on expanders — and
(b) compare the fitted slopes across degrees, which Theorem 1 predicts
to be comparable for every `3 <= r <= n-1` (the bound is independent
of `r`).
"""

from __future__ import annotations

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.fitting import fit_log_linear
from repro.analysis.tables import Table
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap, measure_cobra_cover
from repro.graphs.implicit import ImplicitComplete
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E1Workload
from repro.theory.bounds import cover_time_bound, spectral_condition_holds

SPEC = ExperimentSpec(
    experiment_id="E1",
    title="COBRA cover time on regular expanders",
    claim=(
        "With k=2, COV(G) = O(log n / (1-lambda)^3) — O(log n) on expanders — "
        "independent of the degree r for 3 <= r <= n-1"
    ),
    paper_reference="Theorem 1",
    # v2: ensembles ride the vectorised batch engine (same distribution,
    # different same-seed draws), invalidating cached v1 results.
    version="3",
)

#: Workload type this experiment runs from.
WORKLOAD = E1Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E1Workload(sizes=(256, 512, 1024, 2048), degrees=(3, 8, 32), samples=12),
    "full": E1Workload(
        sizes=(256, 512, 1024, 2048, 4096, 8192), degrees=(3, 8, 32, 64), samples=30
    ),
}


def preset(mode: str) -> E1Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E1Workload, seed: int = 0) -> ExperimentResult:
    """Run E1 and return its tables, figure, and findings."""
    label = workload_label(PRESETS, workload)
    sizes, degrees, samples = workload.sizes, workload.degrees, workload.samples

    measurements = Table(
        ["n", "r", "lambda", "condition", "mean cov", "median", "max", "T = log n/(1-l)^3"]
    )
    series: dict[str, tuple[list[float], list[float]]] = {}
    fits = Table(["r", "slope b", "intercept a", "R^2"])
    slopes: list[float] = []

    graph_seed = seed
    for r in degrees:
        xs: list[float] = []
        ys: list[float] = []
        for n in sizes:
            graph, lam = expander_with_gap(n, r, seed=graph_seed)
            graph_seed += 1
            result = measure_cobra_cover(
                graph,
                n_samples=samples,
                seed=(seed, n, r),
                branching=workload.branching,
                engine=workload.engine,
                transmission_rate=workload.transmission_rate,
            )
            measurements.add_row(
                [
                    n,
                    r,
                    lam,
                    spectral_condition_holds(n, lam),
                    result.stats.mean,
                    result.stats.median,
                    result.stats.maximum,
                    cover_time_bound(n, lam),
                ]
            )
            xs.append(float(n))
            ys.append(result.stats.mean)
        fit = fit_log_linear(xs, ys)
        fits.add_row([r, fit.slope, fit.intercept, fit.r_squared])
        slopes.append(fit.slope)
        series[f"r={r}"] = (xs, ys)

    # The complete graph is the r = n-1 endpoint of the degree range.  Its
    # implicit form draws every neighbour in closed form, with the CSR
    # graph's bits, instead of storing n(n-1) indices.
    complete_rows = Table(["n", "lambda", "mean cov", "mean cov / log2(n)"])
    import math

    for n in sizes:
        graph = ImplicitComplete(n)
        result = measure_cobra_cover(
            graph,
            n_samples=samples,
            seed=(seed, n, 999_983),
            branching=workload.branching,
            engine=workload.engine,
            transmission_rate=workload.transmission_rate,
        )
        complete_rows.add_row(
            [n, 1.0 / (n - 1), result.stats.mean, result.stats.mean / math.log2(n)]
        )

    slope_spread = max(slopes) / min(slopes) if min(slopes) > 0 else float("inf")
    min_r2 = min(float(row[3]) for row in fits.rows)
    figure = ascii_plot(
        series,
        log_x=True,
        title="E1: COBRA k=2 mean cover time vs n (log x) on random r-regular graphs",
        x_label="n",
        y_label="rounds",
    )

    findings = [
        f"cover time is linear in log n: worst per-degree fit R^2 = {min_r2:.4f}",
        (
            f"degree independence: fitted log-n slopes across r = {degrees} "
            f"differ by a factor of {slope_spread:.2f} "
            f"(Theorem 1 predicts comparable slopes for all r)"
        ),
        "measured cover times sit far below the explicit bound T (paper constants are loose)",
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={
            "cover times": measurements,
            "log-n fits per degree": fits,
            "complete graph (r = n-1 endpoint)": complete_rows,
        },
        figures={"cover vs n": figure},
        findings=findings,
    )
