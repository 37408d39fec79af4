"""Exact cover-time law of COBRA on tiny graphs.

The cover time depends on the pair ``(C_t, covered set)``, so its state
space is pairs ``(A, V)`` with ``A ⊆ V`` — up to ``3^n`` states, which
is tractable for `n` up to ~8.  The engine evolves a sparse dictionary
of state probabilities, absorbing mass whose covered set reaches `V`;
the absorbed-by-round sequence is the exact pmf of ``cov``.

This closes the loop the duality cannot: Theorem 4 gives exact
*hitting-tail* identities per target vertex, but the cover time is the
maximum of dependent hitting times, for which no closed form exists —
here it is computed exactly and used to validate the Monte-Carlo
cover-time machinery end-to-end.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.process import resolve_vertex_set, validate_branching
from repro.errors import ExactEngineError
from repro.exact.cobra_exact import ExactCobra
from repro.exact.subsets import mask_from_vertices
from repro.graphs.base import Graph

#: Pair-state enumeration is 3^n-ish; keep n small.
MAX_COVER_EXACT_VERTICES = 8


class ExactCobraCover:
    """Exact distribution of the COBRA cover time on a small graph.

    Parameters
    ----------
    graph:
        A connected graph with at most
        :data:`MAX_COVER_EXACT_VERTICES` vertices.
    branching:
        Branching factor (real ``>= 1``).
    include_start_in_cover:
        Paper semantics (default false): the start set does not count
        as covered at round 0.
    replacement:
        Neighbour sampling with (default) or without replacement.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        branching: float = 2.0,
        include_start_in_cover: bool = False,
        replacement: bool = True,
    ) -> None:
        if graph.n_vertices > MAX_COVER_EXACT_VERTICES:
            raise ExactEngineError(
                f"exact cover law enumerates ~3^n pair states; n={graph.n_vertices} "
                f"exceeds the limit of {MAX_COVER_EXACT_VERTICES} vertices"
            )
        validate_branching(branching)
        self._graph = graph
        self._n = graph.n_vertices
        self._full = (1 << self._n) - 1
        self._include_start = include_start_in_cover
        self._engine = ExactCobra(graph, branching=branching, replacement=replacement)
        self._successor_cache: dict[int, list[tuple[int, float]]] = {}

    def _successors(self, active: int) -> list[tuple[int, float]]:
        """``(next_active, probability)`` pairs of one step from ``active``.

        The support of the engine's cached row, as plain Python ints and
        floats, so the per-state loop below pays NumPy indexing once per
        mask instead of once per state per round.
        """
        cached = self._successor_cache.get(active)
        if cached is None:
            row = self._engine.step_distribution(active)
            cached = [(int(mask), float(row[mask])) for mask in np.flatnonzero(row > 0.0)]
            self._successor_cache[active] = cached
        return cached

    def cover_time_distribution(
        self, start: int | Iterable[int], *, t_max: int = 200, tolerance: float = 1e-12
    ) -> tuple[np.ndarray, float]:
        """``(pmf, tail)`` of ``cov`` from ``C_0 = start``.

        ``pmf[t] = P(cov = t)`` for ``t = 0 .. t_max``; ``tail`` is the
        unabsorbed mass beyond ``t_max``.  Evolution stops early once
        the tail drops below ``tolerance``.
        """
        start_vertices = resolve_vertex_set(self._graph, start, role="start")
        start_mask = mask_from_vertices(start_vertices.tolist())
        covered0 = start_mask if self._include_start else 0

        pmf = np.zeros(t_max + 1, dtype=np.float64)
        states: dict[tuple[int, int], float] = {}
        if covered0 == self._full:
            pmf[0] = 1.0
            return pmf, 0.0
        states[(start_mask, covered0)] = 1.0

        remaining = 1.0
        for t in range(1, t_max + 1):
            next_states: dict[tuple[int, int], float] = {}
            absorbed = 0.0
            for (active, covered), probability in states.items():
                for next_active, step_probability in self._successors(active):
                    mass = probability * step_probability
                    next_covered = covered | next_active
                    if next_covered == self._full:
                        absorbed += mass
                    else:
                        key = (next_active, next_covered)
                        next_states[key] = next_states.get(key, 0.0) + mass
            pmf[t] = absorbed
            remaining -= absorbed
            states = next_states
            if remaining < tolerance:
                break
        return pmf, max(remaining, 0.0)

    def expected_cover_time(
        self, start: int | Iterable[int], *, t_max: int = 500, tolerance: float = 1e-10
    ) -> float:
        """``E[cov]`` from the exact pmf (requires the tail to vanish)."""
        pmf, tail = self.cover_time_distribution(
            start, t_max=t_max, tolerance=tolerance
        )
        if tail > 100 * tolerance:
            raise ExactEngineError(
                f"cover-time tail {tail:.2e} has not converged within {t_max} rounds"
            )
        return float(np.dot(np.arange(pmf.size), pmf)) + tail * t_max

    def survival_series(
        self, start: int | Iterable[int], t_max: int
    ) -> np.ndarray:
        """``P(cov > t)`` for ``t = 0 .. t_max``."""
        pmf, tail = self.cover_time_distribution(start, t_max=t_max, tolerance=0.0)
        return 1.0 - np.cumsum(pmf)
