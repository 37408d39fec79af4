"""Exact cover-time law of COBRA on small graphs.

The cover time depends on the pair (covered set ``V``, active set
``A``), so the engine evolves a dense ``2^n × 2^n`` array indexed
``[V, A]``.  One round is one product with the COBRA step matrix, which
moves ``A`` to ``A'``, then ``n`` in-place bit folds that move each
entry to ``V | A'``.  Mass reaching ``V = full`` is absorbed; the
absorbed-by-round sequence is the exact pmf of ``cov``, and the summed
unabsorbed mass is its tail.  The array is as large as the step
matrix, so the engine shares its limit,
:data:`~repro.exact.subsets.MATRIX_LIMIT` vertices.

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
from repro.exact.subsets import MATRIX_LIMIT, mask_from_vertices
from repro.graphs.base import Graph

#: The (covered, active) array is as large as the materialised step matrix.
MAX_COVER_EXACT_VERTICES = MATRIX_LIMIT


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
    """

    def __init__(
        self,
        graph: Graph,
        *,
        branching: float = 2.0,
        include_start_in_cover: bool = False,
    ) -> None:
        if graph.n_vertices > MAX_COVER_EXACT_VERTICES:
            raise ExactEngineError(
                f"exact cover law evolves a 2^n x 2^n (covered, active) array; "
                f"n={graph.n_vertices} exceeds the limit of "
                f"{MAX_COVER_EXACT_VERTICES} vertices"
            )
        validate_branching(branching)
        self._graph = graph
        self._n = graph.n_vertices
        self._full = (1 << self._n) - 1
        self._include_start = include_start_in_cover
        self._engine = ExactCobra(graph, branching=branching)

    def _cover_law(
        self, start: int | Iterable[int], t_max: int, tolerance: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(pmf, survival)``: ``P(cov = t)`` and ``P(cov > t)``.

        ``pmf`` covers ``t = 0 .. t_max`` and ``survival`` the rounds
        evolved: evolution stops after the first round whose unabsorbed
        mass is below ``tolerance``.
        """
        start_vertices = resolve_vertex_set(self._graph, start, role="start")
        start_mask = mask_from_vertices(start_vertices.tolist())
        covered0 = start_mask if self._include_start else 0

        pmf = np.zeros(t_max + 1, dtype=np.float64)
        survival = np.zeros(t_max + 1, dtype=np.float64)
        if covered0 == self._full:
            pmf[0] = 1.0
            return pmf, survival
        size = self._full + 1
        matrix = self._engine._step_matrix()
        state = np.zeros((size, size), dtype=np.float64)
        state[covered0, start_mask] = 1.0
        survival[0] = 1.0
        for t in range(1, t_max + 1):
            live = np.flatnonzero(state.any(axis=1))
            stepped = np.zeros_like(state)
            stepped[live] = state[live] @ matrix
            for bit in range(self._n):
                # Cover the active set's bit: [V, A'] -> [V | bit, A'].
                low = 1 << bit
                view = stepped.reshape(-1, 2, low, size // (2 * low), 2, low)
                view[:, 1, :, :, 1, :] += view[:, 0, :, :, 1, :]
                view[:, 0, :, :, 1, :] = 0.0
            pmf[t] = stepped[self._full].sum()
            stepped[self._full] = 0.0
            state = stepped
            survival[t] = state.sum()
            if survival[t] < tolerance:
                return pmf, survival[: t + 1]
        return pmf, survival

    def cover_time_distribution(
        self, start: int | Iterable[int], *, t_max: int = 200, tolerance: float = 1e-12
    ) -> tuple[np.ndarray, float]:
        """``(pmf, tail)`` of ``cov`` from ``C_0 = start``.

        ``pmf[t] = P(cov = t)`` for ``t = 0 .. t_max``; ``tail`` is the
        unabsorbed mass after the last evolved round.  Evolution stops
        early once the tail drops below ``tolerance``.
        """
        pmf, survival = self._cover_law(start, t_max, tolerance)
        return pmf, float(survival[-1])

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
        """``P(cov > t)`` for ``t = 0 .. t_max``, summed from the unabsorbed state."""
        return self._cover_law(start, t_max, 0.0)[1]
