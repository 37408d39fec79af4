"""Shared measurement helpers for the experiment modules.

Each helper runs an ensemble of independently seeded replicas of one
process configuration and returns both the raw completion times and a
:class:`~repro.analysis.stats.SummaryStats`.  Graph-building helpers
bundle the expander construction with its spectral-gap measurement so
experiments report ``λ`` alongside every row; :func:`expander` builds
the same graph for callers that do not report it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, derive_seed_sequence
from repro.analysis.stats import SummaryStats, summarize
from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.event import event_bips_infection_times, event_cobra_cover_times
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.errors import ExperimentError
from repro.graphs.base import Graph
from repro.graphs.generators import random_regular
from repro.graphs.spectral import lambda_second
from repro.scenarios.workloads import ENGINE_CHOICES


@dataclass(frozen=True)
class EnsembleMeasurement:
    """Raw completion times and their summary for one configuration."""

    times: np.ndarray
    stats: SummaryStats

    @property
    def mean(self) -> float:
        """Mean completion time."""
        return self.stats.mean


def _validate_engine(engine: str, rate_options=None) -> None:
    if engine not in ENGINE_CHOICES:
        raise ExperimentError(
            f"engine must be one of {', '.join(repr(e) for e in ENGINE_CHOICES)}, "
            f"got {engine!r}"
        )
    if engine != "event" and rate_options:
        names = ", ".join(sorted(rate_options))
        raise ExperimentError(
            f"{names} only apply to the continuous-time engine; pass "
            f"engine='event' (got engine={engine!r})"
        )


def _event_max_time(max_rounds: int | None, transmission_rate: float) -> float | None:
    """``max_rounds`` converted to the event engine's time horizon.

    One round corresponds to the mean firing interval
    ``1 / transmission_rate``, so round-based callers keep their
    timeout semantics.
    """
    if max_rounds is None:
        return None
    return max_rounds / transmission_rate


def measure_cobra_cover(
    graph: Graph,
    *,
    start: int = 0,
    branching: float = 2.0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
    engine: str = "batch",
    transmission_rate: float = 1.0,
    edge_rate_overrides=None,
) -> EnsembleMeasurement:
    """Ensemble of COBRA cover times on ``graph``.

    ``engine`` is one of
    :data:`~repro.scenarios.workloads.ENGINE_CHOICES`.  ``"batch"``
    (the default) and ``"sparse"`` run the one synchronous-round kernel,
    for any real branching factor including the fractional ``1 + ρ`` of
    Theorem 3: each shard opens in sparse rounds, whose cost tracks the
    active frontier, and finishes in the vectorised dense loop once the
    frontier fills 1/128 of its live cells (at ``k = 1`` the walk steps
    in blocks throughout).  They return the same bits for a fixed seed
    and differ only in memory policy: ``"batch"``
    (:func:`~repro.core.batch.batch_cobra_cover_times`) raises up front
    when the dense state could not fit, while ``"sparse"``
    (:func:`~repro.core.sparse.sparse_cobra_cover_times`) then keeps its
    shards sparse to the end — the choice for million-vertex graphs on
    a small machine.  ``"event"`` runs the
    continuous-time Gillespie kernel
    (:func:`~repro.core.event.event_cobra_cover_times`), a different
    law on the same time scale, and the only engine accepting the rate
    options ``transmission_rate`` and ``edge_rate_overrides``
    (``(u, v, rate)`` triples); ``max_rounds`` maps onto its time
    horizon one round per mean firing interval.  ``jobs`` shards the
    replicas over worker processes with seed-stable results in every
    engine.
    """
    rate_options = {}
    if transmission_rate != 1.0:
        rate_options["transmission_rate"] = transmission_rate
    if edge_rate_overrides:
        rate_options["edge_rate_overrides"] = edge_rate_overrides
    _validate_engine(engine, rate_options)
    if engine == "event":
        times = event_cobra_cover_times(
            graph,
            start,
            branching=branching,
            transmission_rate=transmission_rate,
            edge_rate_overrides=edge_rate_overrides,
            n_replicas=n_samples,
            seed=seed,
            max_time=_event_max_time(max_rounds, transmission_rate),
            jobs=jobs,
        )
        return EnsembleMeasurement(times=times, stats=summarize(times))
    if engine == "sparse":
        times = sparse_cobra_cover_times(
            graph,
            start,
            branching=branching,
            n_replicas=n_samples,
            seed=seed,
            max_rounds=max_rounds,
            jobs=jobs,
        )
        return EnsembleMeasurement(times=times, stats=summarize(times))
    times = batch_cobra_cover_times(
        graph,
        start,
        branching=branching,
        n_replicas=n_samples,
        seed=seed,
        max_rounds=max_rounds,
        jobs=jobs,
    )
    return EnsembleMeasurement(times=times, stats=summarize(times))


def measure_bips_infection(
    graph: Graph,
    *,
    source: int = 0,
    branching: float = 2.0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
    engine: str = "batch",
    transmission_rate: float = 1.0,
    recovery_rate: float = 0.0,
    edge_rate_overrides=None,
) -> EnsembleMeasurement:
    """Ensemble of BIPS infection times on ``graph``.

    Supports the same ``engine`` / ``jobs`` / rate options (and the
    same ``"batch"`` default) as :func:`measure_cobra_cover`: ``"batch"``
    and ``"sparse"`` run the one round kernel, sparse while the infected
    pairs fill less than 1/128 of a shard's live cells and dense after,
    and differ only in what they do when the dense state could not fit
    (raise, or stay sparse).  It adds
    ``recovery_rate``: with ``engine="event"``, infected non-source
    vertices additionally recover spontaneously at that rate
    (:func:`~repro.core.event.event_bips_infection_times`).
    """
    rate_options = {}
    if transmission_rate != 1.0:
        rate_options["transmission_rate"] = transmission_rate
    if recovery_rate != 0.0:
        rate_options["recovery_rate"] = recovery_rate
    if edge_rate_overrides:
        rate_options["edge_rate_overrides"] = edge_rate_overrides
    _validate_engine(engine, rate_options)
    if engine == "event":
        times = event_bips_infection_times(
            graph,
            source,
            branching=branching,
            transmission_rate=transmission_rate,
            recovery_rate=recovery_rate,
            edge_rate_overrides=edge_rate_overrides,
            n_replicas=n_samples,
            seed=seed,
            max_time=_event_max_time(max_rounds, transmission_rate),
            jobs=jobs,
        )
        return EnsembleMeasurement(times=times, stats=summarize(times))
    if engine == "sparse":
        times = sparse_bips_infection_times(
            graph,
            source,
            branching=branching,
            n_replicas=n_samples,
            seed=seed,
            max_rounds=max_rounds,
            jobs=jobs,
        )
        return EnsembleMeasurement(times=times, stats=summarize(times))
    times = batch_bips_infection_times(
        graph,
        source,
        branching=branching,
        n_replicas=n_samples,
        seed=seed,
        max_rounds=max_rounds,
        jobs=jobs,
    )
    return EnsembleMeasurement(times=times, stats=summarize(times))


def measure_random_walk_cover(
    graph: Graph,
    *,
    start: int = 0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
) -> EnsembleMeasurement:
    """Ensemble of simple-random-walk cover times on ``graph``.

    The start vertex counts as visited at round 0, the random-walk
    convention of :class:`~repro.core.randomwalk.RandomWalkProcess`.
    A COBRA token with ``k = 1`` moves to one uniform neighbour per
    round, so the walk runs as single-token COBRA on the sparse engine
    (:func:`~repro.core.sparse.sparse_cobra_cover_times` with
    ``include_start_in_cover=True``).  Its walk kernel steps every
    replica's token a block of rounds at a time, with one draw call per
    block and one gather per round; ``jobs`` shards the replicas with
    seed-stable results.
    """
    times = sparse_cobra_cover_times(
        graph,
        start,
        branching=1.0,
        n_replicas=n_samples,
        seed=seed,
        max_rounds=max_rounds,
        include_start_in_cover=True,
        jobs=jobs,
    )
    return EnsembleMeasurement(times=times, stats=summarize(times))


def expander(n: int, r: int, seed: SeedLike = None) -> Graph:
    """The connected random `r`-regular graph of :func:`expander_with_gap`.

    For callers that do not report ``λ``: the same graph for the same
    ``(n, r, seed)``, without the eigensolve.
    """
    return random_regular(n, r, seed=np.random.default_rng(derive_seed_sequence(seed)))


def expander_with_gap(n: int, r: int, seed: SeedLike = None) -> tuple[Graph, float]:
    """A connected random `r`-regular graph together with its measured ``λ``."""
    graph = expander(n, r, seed)
    return graph, lambda_second(graph)


def family_with_gap(family, n: int, seed: SeedLike = None) -> tuple[Graph, float]:
    """A size-``n`` member of a declarative graph family plus its ``λ``.

    ``family`` is a :class:`~repro.scenarios.families.GraphFamily` (or
    anything its ``from_value`` accepts).  For the ``random_regular``
    kind this is bit-identical to :func:`expander_with_gap` at the same
    ``(n, degree, seed)`` — the scenario layer's preset path and the
    legacy helper build the same graphs.  Bipartite family members
    (hypercubes, even-sided tori) report ``λ = 1``; callers guarding a
    ``1/(1-λ)`` bound should check for that.
    """
    from repro.scenarios.families import GraphFamily  # deferred: import cycle

    graph = GraphFamily.from_value(family).build(n, seed=seed)
    return graph, lambda_second(graph)
