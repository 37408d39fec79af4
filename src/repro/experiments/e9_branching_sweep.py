"""E9 — the motivation: speed vs per-round transmission budget.

The paper motivates COBRA as propagating fast *with a limited number of
transmissions per vertex per step*.  This experiment puts the branching
factor sweep (including the fractional regime of Theorem 3) and the
classical push and push–pull baselines on a common axis: rounds to
cover vs total messages and peak per-round messages.

The COBRA rows' message counts come from
:func:`~repro.core.batch.batch_cobra_traces`.  The ``k = 1`` row's
single token sends one message per round, so its totals are its cover
times: that row reads them from the sparse engine's walk kernel
(:func:`~repro.core.sparse.sparse_cobra_cover_times`), which returns
the dense kernel's times for the same seed.

Expected shape: ``k = 1`` is catastrophically slow (E7's walk); any
``k >= 1 + ρ`` is logarithmic, with diminishing speed returns and
linearly growing message cost as `k` rises; push/push–pull match the
round count but commit every informed vertex (resp. every vertex) to
transmit every round.
"""

from __future__ import annotations

import numpy as np

from repro._rng import spawn_generators
from repro.analysis.stats import summarize
from repro.analysis.tables import Table
from repro.core.batch import batch_cobra_traces
from repro.core.metrics import summarize_trace
from repro.core.pull import PullProcess
from repro.core.push import PushProcess
from repro.core.pushpull import PushPullProcess
from repro.core.process import SpreadingProcess
from repro.core.runner import default_max_rounds, run_process
from repro.core.sparse import sparse_cobra_cover_times
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import expander_with_gap
from repro.scenarios.base import preset_workload, workload_label
from repro.scenarios.workloads import E9Workload

SPEC = ExperimentSpec(
    experiment_id="E9",
    title="Branching factor vs transmission budget",
    claim=(
        "COBRA trades per-round transmission budget against speed: small k already "
        "achieves logarithmic cover, unlike k=1; push/push-pull need every (informed) "
        "vertex transmitting every round"
    ),
    paper_reference="Section 1 (motivation) and Theorems 1, 3",
    # v2: the COBRA sweep's message accounting rides the batched trace
    # engine (same distribution, different same-seed draws).
    version="3",
)

#: Workload type this experiment runs from.
WORKLOAD = E9Workload

#: The quick and full workloads.
PRESETS = {
    "quick": E9Workload(
        n=1024, r=8, branchings=(1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0), samples=8
    ),
    "full": E9Workload(
        n=1024, r=8, branchings=(1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0), samples=20
    ),
}


def preset(mode: str) -> E9Workload:
    """The quick or full workload."""
    return preset_workload(PRESETS, mode)


def _measure_with_traces(
    build, n_samples: int, seed, max_rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(completion times, total messages, peak per-round messages).

    The sequential trace path, kept for the push/pull baselines (which
    have no batch engine); the COBRA sweep uses
    :func:`_measure_cobra_traces` instead.
    """
    times = np.empty(n_samples, dtype=np.int64)
    totals = np.empty(n_samples, dtype=np.int64)
    peaks = np.empty(n_samples, dtype=np.int64)
    for i, rng in enumerate(spawn_generators(seed, n_samples)):
        process: SpreadingProcess = build(rng)
        result = run_process(
            process, max_rounds=max_rounds, record_trace=True, raise_on_timeout=True
        )
        summary = summarize_trace(result.trace)
        times[i] = result.completion_time
        totals[i] = summary.total_transmissions
        peaks[i] = summary.peak_transmissions_per_round
    return times, totals, peaks


def _measure_cobra_traces(
    graph, branching: float, n_samples: int, seed, max_rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched equivalent of :func:`_measure_with_traces` for COBRA.

    One :func:`~repro.core.batch.batch_cobra_traces` call replaces
    ``n_samples`` stepped replicas: the per-round transmission counts
    come back as an ``(R, T)`` matrix whose row sums/maxima are the
    per-replica message totals and peaks.  At ``k = 1`` the totals are
    the cover times and every peak is 1 (see the module docstring).
    """
    if branching == 1.0:
        times = sparse_cobra_cover_times(
            graph,
            0,
            branching=branching,
            n_replicas=n_samples,
            seed=seed,
            max_rounds=max_rounds,
        )
        return times, times, np.ones_like(times)
    traces = batch_cobra_traces(
        graph,
        0,
        branching=branching,
        n_replicas=n_samples,
        seed=seed,
        max_rounds=max_rounds,
    )
    return (
        traces.completion_times,
        traces.total_transmissions(),
        traces.peak_transmissions(),
    )


def run(workload: E9Workload, seed: int = 0) -> ExperimentResult:
    """Run E9 and return its table and findings."""
    label = workload_label(PRESETS, workload)
    branchings, samples = workload.branchings, workload.samples
    graph_n = workload.n

    graph, lam = expander_with_gap(graph_n, workload.r, seed=seed)
    cap = default_max_rounds(graph)
    table = Table(
        [
            "protocol",
            "mean rounds",
            "mean total msgs",
            "msgs / vertex",
            "peak msgs / round",
            "peak / n",
        ]
    )

    cobra_rows: dict[float, tuple[float, float]] = {}
    for branching in branchings:
        times, totals, peaks = _measure_cobra_traces(
            graph,
            branching,
            samples,
            (seed, int(branching * 100), 91),
            cap,
        )
        time_stats, total_stats, peak_stats = (
            summarize(times),
            summarize(totals),
            summarize(peaks),
        )
        table.add_row(
            [
                f"COBRA k={branching}",
                time_stats.mean,
                total_stats.mean,
                total_stats.mean / graph_n,
                peak_stats.mean,
                peak_stats.mean / graph_n,
            ]
        )
        cobra_rows[branching] = (time_stats.mean, total_stats.mean)

    for protocol, build in (
        ("push", lambda rng: PushProcess(graph, 0, seed=rng)),
        ("pull", lambda rng: PullProcess(graph, 0, seed=rng)),
        ("push-pull", lambda rng: PushPullProcess(graph, 0, seed=rng)),
    ):
        times, totals, peaks = _measure_with_traces(
            build, samples, (seed, hashd(protocol), 92), cap
        )
        time_stats, total_stats, peak_stats = (
            summarize(times),
            summarize(totals),
            summarize(peaks),
        )
        table.add_row(
            [
                protocol,
                time_stats.mean,
                total_stats.mean,
                total_stats.mean / graph_n,
                peak_stats.mean,
                peak_stats.mean / graph_n,
            ]
        )

    # The headline comparison uses k=1 vs k=2 when the sweep includes
    # them (the presets do); bespoke branching grids fall back to their
    # slowest and fastest sweep points.
    low_k = 1.0 if 1.0 in cobra_rows else min(cobra_rows)
    high_k = 2.0 if 2.0 in cobra_rows else max(cobra_rows)
    k1_rounds = cobra_rows[low_k][0]
    k2_rounds = cobra_rows[high_k][0]
    findings = [
        (
            f"k={low_k:g} needs {k1_rounds:.0f} rounds vs {k2_rounds:.0f} for k={high_k:g} "
            f"on the same graph "
            f"(x{k1_rounds / k2_rounds:.0f} speedup from a single extra push)"
        ),
        "beyond k=2 the round count improves only marginally while message cost grows ~ k",
        (
            "push/push-pull match COBRA's round count but their peak per-round load is ~n "
            "messages; COBRA's transmitting set is only the token holders"
        ),
    ]
    return ExperimentResult(
        spec=SPEC,
        mode=label,
        seed=seed,
        parameters={"workload": workload.to_dict(), "lambda": lam},
        tables={"protocol comparison": table},
        findings=findings,
    )


def hashd(label: str) -> int:
    """Small deterministic integer id for a label (seed component)."""
    return sum(ord(ch) * (i + 1) for i, ch in enumerate(label)) % 100_000
