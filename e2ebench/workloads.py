"""The three workloads: inputs built from a seed, operations, and checks.

Every workload is a list of operations.  An operation is one
experiment run or one ``measure_*`` call; it returns the program's
output, which the runner checks and digests outside the clock.
``prepare`` imports the program and builds the inputs (the prebuilt
graphs); everything it does is set-up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import outputs

# -- paper-quick ---------------------------------------------------------------

#: Quick-preset overrides that fit the suite into one benchmark run (the
#: full quick preset takes about a minute on a 2-core machine, most of it
#: complete(4096) in E7).  Each experiment keeps its graph families,
#: engines and exact tiers; ladder tops, horizons and replica counts
#: shrink.  E1, E3 and E12 get more replicas (and E7 a longer 3-D torus
#: ladder) than the preset so that their shape checks hold at any seed.
PAPER_OVERRIDES: dict[str, dict[str, Any]] = {
    "E1": {"sizes": (256, 512, 1024), "samples": 24},
    "E3": {"samples": 24},
    "E4": {"trials": 200, "exact_t_max": 4},
    "E7": {
        "complete_sizes": (64, 256, 1024),
        "torus2d_sides": (15, 21, 31),
        "torus3d_sides": (5, 7, 9, 11, 13),
        "walk_sizes": (128, 256, 512),
    },
    "E11": {
        "tail_n": 512,
        "tail_samples": 300,
        "ladder": (256, 512, 1024),
        "ladder_samples": 30,
    },
    "E12": {"sizes": (64, 128, 256, 512), "samples": 10},
    "E13": {"n": 256, "samples": 20, "exact_t_max": 6},
}
PAPER_JOBS = 2

# -- dense-frontier -------------------------------------------------------------

EXPANDER_SIZES = (2048, 4096, 8192)
EXPANDER_DEGREE = 8
DENSE_REPLICAS = 256
#: The smaller tori of the e2-torus-implicit-1m scenario (n = 21^3, 31^3),
#: with that scenario's replica count.
TORUS_SIDES = (21, 31)
TORUS_REPLICAS = 2
DENSE_JOBS = 2
#: The jobs=1 vs jobs=2 probe: two 32-replica shards on the smallest expander.
PROBE_REPLICAS = 64

# -- sparse-frontier ------------------------------------------------------------

#: Eight calls of sixteen single-token replicas.  A call runs until its
#: slowest replica covers, so the pass time follows the calls' maxima;
#: eight independent maxima keep it within a few per cent across seeds.
SPARSE_N = 2048
SPARSE_OPERATIONS = 8
SPARSE_REPLICAS = 16
SPARSE_JOBS = 1


@dataclass
class Operation:
    """One timed call into the program plus how to judge its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], tuple[str, list[float]]]
    #: Replica-rounds of the output, or ``None`` to count them with hooks.
    replica_rounds: Callable[[Any], int] | None
    #: Span layer of the operation in traced passes.
    layer: str = "workload"


@dataclass
class Prepared:
    """A workload's operations, ready to time."""

    operations: list[Operation]
    #: Post-run checks outside the timed region (failure messages).
    probe: Callable[[], list[str]] | None = None


def _sum_times(times: np.ndarray) -> int:
    return int(times[times > 0].sum())


def _ensemble_operation(
    name: str,
    measure: Callable[..., Any],
    graph,
    *,
    n_samples: int,
    eccentricity: int,
    branching: float,
    expander: bool,
    **kwargs: Any,
) -> Operation:
    def run():
        return measure(graph, n_samples=n_samples, branching=branching, **kwargs).times

    check = functools.partial(
        outputs.check_ensemble,
        n=graph.n_vertices,
        n_samples=n_samples,
        eccentricity=eccentricity,
        branching=branching,
        expander=expander,
    )
    return Operation(name, run, check, outputs.times_digest, _sum_times)


def _expander(n: int, seed: int):
    from repro.graphs.generators import random_regular

    return random_regular(n, EXPANDER_DEGREE, seed=np.random.default_rng([seed, n]))


def prepare_paper_quick(seed: int) -> Prepared:
    from repro.experiments import experiment_ids, get_experiment, run_experiment
    from repro.parallel import set_default_jobs

    set_default_jobs(PAPER_JOBS)
    operations = []
    for experiment_id in experiment_ids():
        workload = get_experiment(experiment_id).preset("quick")
        workload = workload.with_overrides(PAPER_OVERRIDES.get(experiment_id, {}))
        operations.append(
            Operation(
                experiment_id,
                functools.partial(run_experiment, experiment_id, workload=workload, seed=seed),
                functools.partial(outputs.check_experiment, experiment_id),
                functools.partial(outputs.experiment_digest, experiment_id),
                None,
                layer="experiments",
            )
        )
    return Prepared(operations)


def prepare_dense_frontier(seed: int) -> Prepared:
    from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover
    from repro.graphs.implicit import ImplicitTorus
    from repro.graphs.properties import eccentricity
    from repro.parallel import set_default_jobs

    set_default_jobs(DENSE_JOBS)
    operations = []
    expanders = {n: _expander(n, seed) for n in EXPANDER_SIZES}
    for n, graph in expanders.items():
        ecc = eccentricity(graph, 0)
        for process, measure, stream in (
            ("cobra", measure_cobra_cover, 1),
            ("bips", measure_bips_infection, 2),
        ):
            operations.append(
                _ensemble_operation(
                    f"{process}-k2-rr{n}",
                    measure,
                    graph,
                    n_samples=DENSE_REPLICAS,
                    eccentricity=ecc,
                    branching=2.0,
                    expander=True,
                    seed=(seed, n, stream),
                    jobs=DENSE_JOBS,
                )
            )
    for side in TORUS_SIDES:
        graph = ImplicitTorus((side, side, side))
        ecc = eccentricity(graph, 0)
        for process, measure, stream in (
            ("cobra", measure_cobra_cover, 3),
            ("bips", measure_bips_infection, 4),
        ):
            operations.append(
                _ensemble_operation(
                    f"{process}-k2-torus{side}",
                    measure,
                    graph,
                    n_samples=TORUS_REPLICAS,
                    eccentricity=ecc,
                    branching=2.0,
                    expander=False,
                    seed=(seed, graph.n_vertices, stream),
                    jobs=DENSE_JOBS,
                    engine="sparse",
                )
            )

    def probe() -> list[str]:
        graph = expanders[EXPANDER_SIZES[0]]
        failures = []
        for process, measure in (("cobra", measure_cobra_cover), ("bips", measure_bips_infection)):
            serial, pooled = (
                measure(graph, n_samples=PROBE_REPLICAS, seed=(seed, 0, 5), jobs=jobs).times
                for jobs in (1, 2)
            )
            if not np.array_equal(serial, pooled):
                failures.append(f"{process}: jobs=1 and jobs=2 returned different arrays")
        return failures

    return Prepared(operations, probe)


def prepare_sparse_frontier(seed: int) -> Prepared:
    from repro.experiments.sweep import measure_cobra_cover
    from repro.graphs.properties import eccentricity
    from repro.parallel import set_default_jobs

    set_default_jobs(SPARSE_JOBS)
    graph = _expander(SPARSE_N, seed)
    ecc = eccentricity(graph, 0)
    operations = [
        _ensemble_operation(
            f"walk-k1-rr{SPARSE_N}-{index}",
            measure_cobra_cover,
            graph,
            n_samples=SPARSE_REPLICAS,
            eccentricity=ecc,
            branching=1.0,
            expander=True,
            seed=(seed, index, 6),
            jobs=SPARSE_JOBS,
            engine="sparse",
        )
        for index in range(SPARSE_OPERATIONS)
    ]
    return Prepared(operations)


PREPARE: dict[str, Callable[[int], Prepared]] = {
    "paper-quick": prepare_paper_quick,
    "dense-frontier": prepare_dense_frontier,
    "sparse-frontier": prepare_sparse_frontier,
}
