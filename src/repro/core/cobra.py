"""The COBRA (COalescing-BRAnching) random walk of Dutta et al. / the paper.

Process definition (paper §1):  given the active set ``C_t``, every
vertex ``v ∈ C_t`` independently chooses ``k`` neighbours uniformly at
random **with replacement**, and ``C_{t+1}`` is exactly the set of
chosen vertices.  Duplicated choices coalesce; an active vertex leaves
the active set unless some vertex (possibly itself) chooses it.

Cover semantics follow the paper's definition
``cov(u) = min{T : ⋃_{t=1..T} C_t = V}`` — the initial set ``C_0`` does
*not* count as covered unless re-chosen.  Pass
``include_start_in_cover=True`` for the more permissive convention.

Fractional branching (Theorem 3): ``branching = 1 + ρ`` makes every
active vertex push once, plus a second time with probability ``ρ``.
Any real ``branching >= 1`` is supported.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.core.process import (
    RoundRecord,
    SpreadingProcess,
    resolve_vertex_set,
    validate_branching,
    validate_loss,
)
from repro.graphs.base import Graph


class CobraProcess(SpreadingProcess):
    """A COBRA process on a graph.

    Parameters
    ----------
    graph:
        The underlying connected graph.
    start:
        Initial active set ``C_0``: a vertex or an iterable of vertices.
    branching:
        Branching factor ``k`` (any real ``>= 1``; the paper's main
        setting is ``2``).
    seed:
        Randomness source (int, ``SeedSequence``, ``Generator`` or
        ``None``).
    include_start_in_cover:
        When true, count ``C_0`` as covered at round 0 instead of the
        paper's union-from-round-1 convention.
    loss_probability:
        Independent per-message loss (extension): each push is dropped
        with this probability.  A round in which every message of
        every token is lost kills the process (``is_extinct``); the
        duality with equally-lossy BIPS still holds exactly.
    """

    def __init__(
        self,
        graph: Graph,
        start: int | Iterable[int],
        *,
        branching: float = 2.0,
        seed: SeedLike = None,
        include_start_in_cover: bool = False,
        loss_probability: float = 0.0,
    ) -> None:
        self._mandatory, self._rho = validate_branching(branching)
        self._loss = validate_loss(loss_probability)
        self._branching = float(branching)
        super().__init__(
            graph,
            resolve_vertex_set(graph, start, role="start"),
            seed=seed,
            initial_covered=include_start_in_cover,
        )

    @property
    def branching(self) -> float:
        """The branching factor ``k`` (possibly fractional)."""
        return self._branching

    @property
    def loss_probability(self) -> float:
        """Per-message loss probability (0 = the paper's lossless setting)."""
        return self._loss

    @property
    def is_extinct(self) -> bool:
        """Whether every token died to message loss (lossy runs only)."""
        return self._round_index > 0 and self._active_count == 0

    @property
    def cover_time(self) -> int | None:
        """Alias for :attr:`completion_time` using the paper's name."""
        return self._completion_time

    def _draw_choices(self, active_vertices: np.ndarray) -> np.ndarray:
        """All neighbour choices made this round, flattened."""
        graph = self._graph
        rng = self._rng
        if self._rho <= 0.0:
            return graph.sample_neighbors(active_vertices, self._mandatory, rng).ravel()
        # Fractional branching: a coin per active vertex decides whether
        # it pushes k or k+1 times this round.
        extra_mask = rng.random(active_vertices.size) < self._rho
        parts = [
            graph.sample_neighbors(sources, draws, rng).ravel()
            for sources, draws in (
                (active_vertices[~extra_mask], self._mandatory),
                (active_vertices[extra_mask], self._mandatory + 1),
            )
            if sources.size
        ]
        return np.concatenate(parts)

    def step(self) -> RoundRecord:
        """Advance ``C_t -> C_{t+1}``: branch, push, coalesce.

        With message loss the chosen set is thinned after sampling; an
        all-lost round empties the active set (the process dies and
        subsequent steps record an unchanged empty state).
        """
        active_vertices = np.flatnonzero(self._active)
        if active_vertices.size == 0:
            if self._loss > 0.0:
                # A lossy run that died stays dead: absorbing state.
                return self._close_round(self._active, 0)
            # Unreachable for a correctly initialised lossless process
            # (every active vertex always produces at least one choice),
            # but a stale/foreign state should fail loudly rather than loop.
            raise RuntimeError("COBRA active set is empty; process state is invalid")
        chosen = self._draw_choices(active_vertices)
        transmissions = chosen.size
        if self._loss > 0.0:
            chosen = chosen[self._rng.random(chosen.size) >= self._loss]
        next_active = np.zeros(self._graph.n_vertices, dtype=bool)
        next_active[chosen] = True
        return self._close_round(next_active, transmissions)
