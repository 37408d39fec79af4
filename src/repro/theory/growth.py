"""Exact one-step conditional expectations for BIPS (paper Eq. (3)).

The proof of Lemma 1 starts from the exact identity

``E(|A_{t+1}| | A_t = A) = 1 + Σ_{u ∈ Γ(A) \\ {v}} (1 - (1 - d_A(u)/r)^k)``

(vertices outside the inclusive neighbourhood ``Γ(A)`` contribute 0).
Computing this exactly for arbitrary infected sets lets experiment E5
verify Lemma 1 / Corollary 1 *state by state*, with no Monte-Carlo
noise: the lemma asserts the exact expectation dominates the spectral
lower bound for every infected set on every regular graph.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.core.process import resolve_vertex, resolve_vertex_set, validate_branching
from repro.graphs.base import Graph
from repro.theory.bounds import fractional_growth_bound, growth_lower_bound


def infected_neighbor_counts(graph: Graph, infected_mask: np.ndarray) -> np.ndarray:
    """``d_A(u)``: number of infected neighbours, for every vertex ``u``."""
    infected_mask = np.asarray(infected_mask, dtype=bool)
    if infected_mask.shape != (graph.n_vertices,):
        raise ValueError(
            f"infected_mask must have shape ({graph.n_vertices},), "
            f"got {infected_mask.shape}"
        )
    neighbor_is_infected = infected_mask[graph.indices].astype(np.int64)
    return np.add.reduceat(neighbor_is_infected, graph.indptr[:-1])


def expected_next_infected_size(
    graph: Graph,
    infected: int | Iterable[int] | np.ndarray,
    source: int,
    *,
    branching: float = 2.0,
) -> float:
    """Exact ``E(|A_{t+1}| | A_t)`` for BIPS (paper Eq. (3), generalised).

    Parameters
    ----------
    graph:
        Any graph without isolated vertices.
    infected:
        The current infected set ``A_t`` (vertex, iterable, or boolean
        mask).  Must contain the source.
    source:
        The persistent source ``v``.
    branching:
        Sampling factor ``k`` (real ``>= 1``; fractional parts follow
        Corollary 1's one-plus-coin-flip semantics).
    """
    source = resolve_vertex(graph, source, role="source")
    mask = _as_mask(graph, infected)
    if not mask[source]:
        raise ValueError("the infected set must contain the source")
    mandatory, rho = validate_branching(branching)
    counts = infected_neighbor_counts(graph, mask).astype(np.float64)
    degrees = graph.degrees.astype(np.float64)
    hit_fraction = counts / degrees
    miss = (1.0 - hit_fraction) ** mandatory
    if rho > 0.0:
        miss = miss * (1.0 - rho * hit_fraction)
    probabilities = 1.0 - miss
    probabilities[source] = 1.0
    return float(probabilities.sum())


def growth_bound_ratio(
    graph: Graph,
    infected: int | Iterable[int] | np.ndarray,
    source: int,
    lam: float,
    *,
    branching: float = 2.0,
) -> float:
    """Exact expectation divided by the Lemma 1 / Corollary 1 bound.

    A value ``>= 1`` confirms the lemma for this state; experiment E5
    reports the minimum over many states.
    """
    mask = _as_mask(graph, infected)
    size = int(mask.sum())
    n = graph.n_vertices
    mandatory, rho = validate_branching(branching)
    if mandatory >= 2:
        bound = growth_lower_bound(size, n, lam)
    else:
        bound = fractional_growth_bound(size, n, lam, rho)
    exact = expected_next_infected_size(graph, mask, source, branching=branching)
    return exact / bound


def minimum_growth_ratio(
    graph: Graph,
    source: int,
    lam: float,
    *,
    branching: float = 2.0,
    n_random_sets: int = 200,
    seed: SeedLike = None,
) -> float:
    """Minimum bound ratio over random infected sets of every size.

    Samples ``n_random_sets`` uniformly random source-containing
    infected sets (sizes stratified from 1 to `n`) and returns the
    smallest exact-to-bound ratio observed.  Lemma 1 predicts the
    result is ``>= 1`` for ``k = 2`` on regular graphs.
    """
    source = resolve_vertex(graph, source, role="source")
    rng = ensure_generator(seed)
    n = graph.n_vertices
    others = np.array([u for u in range(n) if u != source], dtype=np.int64)
    worst = np.inf
    for i in range(n_random_sets):
        extra = int(round(i * (n - 1) / max(n_random_sets - 1, 1)))
        members = rng.choice(others, size=extra, replace=False) if extra else np.empty(0, int)
        mask = np.zeros(n, dtype=bool)
        mask[source] = True
        mask[members] = True
        worst = min(worst, growth_bound_ratio(graph, mask, source, lam, branching=branching))
    return float(worst)


def _as_mask(graph: Graph, infected: int | Iterable[int] | np.ndarray) -> np.ndarray:
    if isinstance(infected, np.ndarray) and infected.dtype == bool:
        if infected.shape != (graph.n_vertices,):
            raise ValueError(
                f"infected mask must have shape ({graph.n_vertices},), "
                f"got {infected.shape}"
            )
        return infected.copy()
    vertices = resolve_vertex_set(graph, infected, role="infected")
    mask = np.zeros(graph.n_vertices, dtype=bool)
    mask[vertices] = True
    return mask
