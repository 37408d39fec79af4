"""E7 — §1 comparisons: complete graphs, grids/tori, and k = 1 walks.

Three claims from the paper's introduction (results of Dutta et al.
that motivate Theorem 1, plus the k = 1 lower bound):

* on the complete graph ``K_n`` COBRA covers in ``O(log n)`` rounds;
* on the `d`-dimensional grid it covers in ``Õ(n^{1/d})`` — measured
  here on tori with odd sides, the regular non-bipartite grid
  analogue (see DESIGN.md's substitution table);
* with ``k = 1`` (a single random walk) cover needs ``Ω(n log n)``
  rounds on *any* graph, so branching is necessary for ``O(log n)``.

The walks run as single-token COBRA on the sparse engine, with the
start counted as visited at round 0 (the random-walk cover law; see
:func:`~repro.experiments.sweep.measure_random_walk_cover`).  Their
expanders come from :func:`~repro.experiments.sweep.expander`, the
graphs :func:`~repro.experiments.sweep.expander_with_gap` builds,
because no row reports ``λ``.
"""

from __future__ import annotations

import math

from repro.analysis.fitting import fit_log_linear, fit_power_law
from repro.analysis.tables import Table
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import (
    expander,
    measure_cobra_cover,
    measure_random_walk_cover,
)
from repro.graphs.generators import torus
from repro.graphs.implicit import ImplicitComplete
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E7Workload

SPEC = ExperimentSpec(
    experiment_id="E7",
    title="Complete graphs, tori, and the k=1 baseline",
    claim=(
        "COBRA k=2 covers K_n in O(log n) and d-dimensional grids in ~n^(1/d); "
        "k=1 (a single random walk) needs Omega(n log n) on any graph"
    ),
    paper_reference="Section 1 (results (i)-(iii) of Dutta et al., and the k=1 remark)",
    # v2: the COBRA ensembles ride the batch engine default (same
    # distribution, different same-seed draws).  v4: the k=1 walks run
    # as single-token COBRA on the sparse engine (same law, new draws).
    version="4",
)

#: Workload type this experiment runs from.
WORKLOAD = E7Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E7Workload(
        complete_sizes=(64, 256, 1024, 4096),
        torus2d_sides=(15, 21, 31, 45),
        torus3d_sides=(5, 7, 9),
        walk_sizes=(128, 256, 512, 1024),
        samples=10,
    ),
    "full": E7Workload(
        # The complete-graph ladder stops at 4096: the log-n shape is
        # already unambiguous there.
        complete_sizes=(64, 256, 1024, 2048, 4096),
        torus2d_sides=(15, 21, 31, 45, 63),
        torus3d_sides=(5, 7, 9, 11),
        walk_sizes=(128, 256, 512, 1024, 2048),
        samples=25,
    ),
}


def preset(mode: str) -> E7Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def run(workload: E7Workload, seed: int = 0) -> ExperimentResult:
    """Run E7 and return its tables and findings."""
    label = workload_label(PRESETS, workload)
    samples = workload.samples

    # --- complete graphs -------------------------------------------------
    complete_table = Table(["n", "mean cov", "cov / log2 n"])
    complete_ns: list[float] = []
    complete_means: list[float] = []
    for n in workload.complete_sizes:
        result = measure_cobra_cover(ImplicitComplete(n), n_samples=samples, seed=(seed, n, 71))
        complete_table.add_row([n, result.stats.mean, result.stats.mean / math.log2(n)])
        complete_ns.append(float(n))
        complete_means.append(result.stats.mean)
    complete_fit = fit_log_linear(complete_ns, complete_means)

    # --- tori (grid analogue) --------------------------------------------
    torus_table = Table(["dim", "side", "n", "mean cov", "n^(1/d)"])
    torus_fits = Table(["dim", "power-law exponent", "R^2", "theory 1/d"])
    exponents: dict[int, float] = {}
    for dim, sides in ((2, workload.torus2d_sides), (3, workload.torus3d_sides)):
        ns: list[float] = []
        means: list[float] = []
        for side in sides:
            graph = torus((side,) * dim)
            n = graph.n_vertices
            result = measure_cobra_cover(graph, n_samples=samples, seed=(seed, n, 72))
            torus_table.add_row([dim, side, n, result.stats.mean, n ** (1.0 / dim)])
            ns.append(float(n))
            means.append(result.stats.mean)
        fit = fit_power_law(ns, means)
        exponents[dim] = fit.slope
        torus_fits.add_row([dim, fit.slope, fit.r_squared, 1.0 / dim])

    # --- k = 1: a single random walk --------------------------------------
    walk_table = Table(
        ["n", "RW mean cover", "n ln n", "COBRA k=2 mean cov", "speedup"]
    )
    walk_ns: list[float] = []
    walk_means: list[float] = []
    for offset, n in enumerate(workload.walk_sizes):
        graph = expander(n, workload.walk_degree, seed=seed + 100 + offset)
        walk = measure_random_walk_cover(graph, n_samples=samples, seed=(seed, n, 73))
        cobra = measure_cobra_cover(graph, n_samples=samples, seed=(seed, n, 74))
        walk_table.add_row(
            [
                n,
                walk.stats.mean,
                n * math.log(n),
                cobra.stats.mean,
                walk.stats.mean / cobra.stats.mean,
            ]
        )
        walk_ns.append(float(n))
        walk_means.append(walk.stats.mean)
    walk_fit = fit_power_law(walk_ns, walk_means)

    findings = [
        (
            f"K_n: cover is linear in log n (slope {complete_fit.slope:.2f}, "
            f"R^2 = {complete_fit.r_squared:.4f})"
        ),
        (
            f"tori: power-law exponents {exponents[2]:.2f} (2-D) and {exponents[3]:.2f} (3-D) "
            f"vs the predicted 1/d = 0.50 and 0.33 (log factors push them slightly above)"
        ),
        (
            f"k=1 walk cover grows like n^{walk_fit.slope:.2f} (superlinear in n, "
            f"consistent with Omega(n log n)), while COBRA k=2 stays logarithmic — "
            f"branching is what buys the exponential speedup"
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict()},
        tables={
            "complete graphs": complete_table,
            "tori": torus_table,
            "torus power-law fits": torus_fits,
            "random walk vs COBRA": walk_table,
        },
        findings=findings,
    )
