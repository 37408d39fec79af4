"""Machine-precision verification of the paper's Theorem 4 (duality).

Theorem 4: for every connected graph, ``C ⊆ V``, ``v ∈ V``, ``t >= 0``,

``P̂(Hit_C(v) > t | C_0 = C)  =  P(C ∩ A_t = ∅ | A_0 = {v})``

where the left side is a COBRA process started from ``C`` and the right
a BIPS process with persistent source ``v``, both with the same
branching factor ``k``.

The paper states the theorem for regular graphs (the setting of its
main results), but the proof uses only that each vertex's random
``k``-set of neighbours has the same law in both processes and is
independent across vertices — properties that hold for arbitrary
graphs.  The verification functions below therefore accept any graph
without isolated vertices, and the test suite confirms the identity on
irregular graphs too (documented as an observation, not a claim of the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._rng import SeedLike
from repro.core.batch import _watched_ensemble
from repro.core.process import resolve_vertex, resolve_vertex_set
from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.subsets import mask_from_vertices, masks_disjoint_from
from repro.graphs.base import Graph
from repro.parallel import map_shards


def duality_series(
    graph: Graph,
    start: int | Iterable[int],
    source: int,
    t_max: int,
    *,
    branching: float = 2.0,
    loss_probability: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the duality identity for ``t = 0 .. t_max``.

    Returns ``(cobra_side, bips_side)``: the COBRA hitting tails
    ``P̂(Hit_C(v) > t)`` and the BIPS disjointness probabilities
    ``P(C ∩ A_t = ∅)``.  The identity also holds with independent
    per-message loss: the proof only needs the per-vertex choice-set
    laws of the two processes to coincide.
    """
    source = resolve_vertex(graph, source, role="source")
    start_vertices = resolve_vertex_set(graph, start, role="start")
    start_mask = mask_from_vertices(start_vertices.tolist())

    cobra = ExactCobra(graph, branching=branching, loss_probability=loss_probability)
    cobra_side = cobra.hitting_survival_series(start_vertices.tolist(), source, t_max)

    bips = ExactBips(graph, source, branching=branching, loss_probability=loss_probability)
    selector = masks_disjoint_from(start_mask, graph.n_vertices)
    bips_side = np.empty(t_max + 1, dtype=np.float64)
    current = bips.initial_distribution()
    bips_side[0] = float(current[selector].sum())
    for t in range(1, t_max + 1):
        current = bips.evolve(current, 1)
        bips_side[t] = float(current[selector].sum())
    return cobra_side, bips_side


def duality_gap(
    graph: Graph,
    start: int | Iterable[int],
    source: int,
    t_max: int,
    *,
    branching: float = 2.0,
    loss_probability: float = 0.0,
) -> float:
    """Largest absolute deviation between the two sides over ``t <= t_max``.

    For a correct implementation this is float rounding noise
    (``~1e-12``); the E4 experiment reports it as the reproduction's
    duality check.
    """
    cobra_side, bips_side = duality_series(
        graph, start, source, t_max, branching=branching, loss_probability=loss_probability
    )
    return float(np.max(np.abs(cobra_side - bips_side)))


def duality_gaps(
    cases: Sequence[tuple[Graph, int | Iterable[int], int, float, float]],
    t_max: int,
    *,
    jobs: int | None = None,
) -> list[float]:
    """:func:`duality_gap` over ``t <= t_max`` for each case, in case order.

    A case is ``(graph, start, source, branching, loss_probability)``.
    Each is an independent exact computation, so the cases are
    spread over ``jobs`` workers (``None`` = the process-wide default)
    by :func:`repro.parallel.map_shards`; every gap is the same float
    at any ``jobs``.
    """
    return map_shards(_duality_gap_case, t_max, cases, jobs=jobs)


def _duality_gap_case(
    t_max: int,
    graph: Graph,
    start: int | Iterable[int],
    source: int,
    branching: float,
    loss_probability: float,
) -> float:
    """Worker kernel of :func:`duality_gaps`: the gap of one case."""
    return duality_gap(
        graph,
        start,
        source,
        t_max,
        branching=branching,
        loss_probability=loss_probability,
    )


@dataclass(frozen=True)
class MonteCarloDualityPoint:
    """Both duality sides at one horizon, estimated by simulation.

    ``cobra_estimate`` is the empirical ``P̂(Hit_C(v) > t)``;
    ``bips_estimate`` the empirical ``P(C ∩ A_t = ∅)``; the Wilson 95%
    intervals are attached, and ``intervals_overlap`` is the agreement
    criterion used by experiment E4.
    """

    t: int
    cobra_estimate: float
    bips_estimate: float
    cobra_interval: tuple[float, float]
    bips_interval: tuple[float, float]

    @property
    def difference(self) -> float:
        """Absolute difference of the two point estimates."""
        return abs(self.cobra_estimate - self.bips_estimate)

    @property
    def intervals_overlap(self) -> bool:
        """Whether the two 95% intervals intersect."""
        return (
            self.cobra_interval[0] <= self.bips_interval[1]
            and self.bips_interval[0] <= self.cobra_interval[1]
        )


def duality_monte_carlo(
    graph: Graph,
    start: int | Iterable[int],
    source: int,
    horizons: Sequence[int],
    *,
    branching: float = 2.0,
    trials: int = 2000,
    seed: SeedLike = None,
) -> list[MonteCarloDualityPoint]:
    """Estimate both duality sides by simulation on graphs of any size.

    Runs one ensemble per side to the largest horizon and reads every
    horizon off it, so the horizons share their ``trials`` replicas:
    ``trials`` COBRA processes from ``start`` (has ``source`` been
    active in some round ``1..t``?) and ``trials`` BIPS processes with
    persistent source ``source`` (does ``A_t`` meet the start set?).
    ``t = 0`` is the indicator ``source ∉ start`` on both sides.  The
    ensembles run on the dense batch kernels, sharded over the default
    ``jobs`` with the same estimates at any ``jobs``.  Unlike the exact
    engines this scales to arbitrary `n`; agreement is judged by
    Wilson-interval overlap.
    """
    from repro.analysis.stats import proportion_ci

    source = resolve_vertex(graph, source, role="source")
    start_vertices = resolve_vertex_set(graph, start, role="start")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    horizons = [int(t) for t in horizons]
    if any(t < 0 for t in horizons):
        raise ValueError(f"horizons must be non-negative, got {horizons}")
    rounds = max(horizons, default=0)
    source_in_start = bool(np.any(start_vertices == source))
    if rounds > 0:
        component = _seed_component(seed)
        _, source_active = _watched_ensemble(
            "cobra", graph, start_vertices, np.array([source]),
            branching=branching, n_replicas=trials, rounds=rounds, seed=(component, 1),
        )
        bips_times, meets_start = _watched_ensemble(
            "bips", graph, source, start_vertices,
            branching=branching, n_replicas=trials, rounds=rounds, seed=(component, 2),
        )
        # A replica that covered has hit the source on the way, so the
        # running OR needs no completion fix-up.
        hit = np.logical_or.accumulate(source_active, axis=1)
        # Lossless full infection is absorbing: a replica that completed
        # meets the start set in every later round.
        meets_start |= (bips_times[:, None] > 0) & (
            bips_times[:, None] <= np.arange(1, rounds + 1)
        )
    points: list[MonteCarloDualityPoint] = []
    for t in horizons:
        if t == 0:
            cobra_misses = bips_misses = 0 if source_in_start else trials
        else:
            # Hit_C(v) = 0 when v is in C, whatever the tokens do later.
            cobra_misses = 0 if source_in_start else int(np.count_nonzero(~hit[:, t - 1]))
            bips_misses = int(np.count_nonzero(~meets_start[:, t - 1]))
        points.append(
            MonteCarloDualityPoint(
                t=t,
                cobra_estimate=cobra_misses / trials,
                bips_estimate=bips_misses / trials,
                cobra_interval=proportion_ci(cobra_misses, trials),
                bips_interval=proportion_ci(bips_misses, trials),
            )
        )
    return points


def _seed_component(seed: SeedLike) -> int:
    """Reduce a SeedLike to an integer usable inside composite seeds."""
    if seed is None:
        return 0
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    # Fall back to a stable hash of the seed sequence's entropy.
    from repro._rng import derive_seed_sequence

    entropy = derive_seed_sequence(seed).entropy
    if isinstance(entropy, (int, np.integer)):
        return int(entropy) % (2**31)
    if entropy is None:
        return 0
    return int(sum(int(part) for part in np.ravel(entropy)) % (2**31))
