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
    track_first_hits:
        Record the round each vertex is first covered, enabling
        :meth:`first_hit_times` (see there for how start vertices
        report).
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
        track_first_hits: bool = True,
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__(graph, seed=seed)
        self._mandatory, self._rho = validate_branching(branching)
        self._loss = validate_loss(loss_probability)
        self._branching = float(branching)
        start_vertices = resolve_vertex_set(graph, start, role="start")
        n = graph.n_vertices
        self._active = np.zeros(n, dtype=bool)
        self._active[start_vertices] = True
        self._covered = np.zeros(n, dtype=bool)
        if include_start_in_cover:
            self._covered[start_vertices] = True
        self._covered_count = int(self._covered.sum())
        self._cover_time: int | None = self._round_index if self._covered_count == n else None
        self._track_first_hits = track_first_hits
        if track_first_hits:
            self._first_hit = np.full(n, -1, dtype=np.int64)
            self._first_hit[start_vertices] = 0
        else:
            self._first_hit = None

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

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
        return self._round_index > 0 and self.active_count == 0

    @property
    def active_mask(self) -> np.ndarray:
        return self._active.copy()

    @property
    def active_count(self) -> int:
        return int(self._active.sum())

    @property
    def cumulative_mask(self) -> np.ndarray:
        return self._covered.copy()

    @property
    def cumulative_count(self) -> int:
        return self._covered_count

    @property
    def is_complete(self) -> bool:
        """Whether every vertex has been covered."""
        return self._covered_count == self._graph.n_vertices

    @property
    def completion_time(self) -> int | None:
        """The cover time ``cov`` if coverage is complete, else ``None``."""
        return self._cover_time

    @property
    def cover_time(self) -> int | None:
        """Alias for :attr:`completion_time` using the paper's name."""
        return self._cover_time

    def first_hit_times(self) -> np.ndarray:
        """Per-vertex round of first coverage (-1 if not covered yet).

        For a vertex outside ``C_0`` this is its first activation round,
        which realises the paper's hitting time ``Hit_{C_0}(v)`` for
        this run.  A start vertex reports 0 until a token first revisits
        it.  Under the paper's cover convention the start set is not
        covered at round 0, so that revisit covers it and its round
        replaces the 0 (``Hit_{C_0}(v) = 0`` for ``v ∈ C_0`` whatever
        this reports); with ``include_start_in_cover=True`` start
        vertices keep 0.
        """
        if self._first_hit is None:
            raise RuntimeError("first-hit tracking was disabled for this process")
        return self._first_hit.copy()

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _draw_choices(self, active_vertices: np.ndarray) -> tuple[np.ndarray, int]:
        """All neighbour choices made this round, flattened, plus count."""
        graph = self._graph
        rng = self._rng
        if self._rho <= 0.0:
            chosen = graph.sample_neighbors(active_vertices, self._mandatory, rng).ravel()
            return chosen, chosen.size
        # Fractional branching: a coin per active vertex decides whether
        # it pushes k or k+1 times this round.
        extra_mask = rng.random(active_vertices.size) < self._rho
        base_sources = active_vertices[~extra_mask]
        extra_sources = active_vertices[extra_mask]
        parts: list[np.ndarray] = []
        if base_sources.size:
            parts.append(graph.sample_neighbors(base_sources, self._mandatory, rng).ravel())
        if extra_sources.size:
            parts.append(graph.sample_neighbors(extra_sources, self._mandatory + 1, rng).ravel())
        chosen = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return chosen, chosen.size

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
                self._round_index += 1
                return RoundRecord(
                    round_index=self._round_index,
                    active_count=0,
                    cumulative_count=self._covered_count,
                    newly_reached=0,
                    transmissions=0,
                )
            # Unreachable for a correctly initialised lossless process
            # (every active vertex always produces at least one choice),
            # but a stale/foreign state should fail loudly rather than loop.
            raise RuntimeError("COBRA active set is empty; process state is invalid")
        chosen, transmissions = self._draw_choices(active_vertices)
        if self._loss > 0.0 and chosen.size:
            chosen = chosen[self._rng.random(chosen.size) >= self._loss]
        next_active = np.zeros(self._graph.n_vertices, dtype=bool)
        next_active[chosen] = True
        self._active = next_active
        self._round_index += 1

        newly = next_active & ~self._covered
        newly_count = int(newly.sum())
        if newly_count:
            self._covered |= next_active
            self._covered_count += newly_count
        if self._first_hit is not None and newly_count:
            self._first_hit[newly] = self._round_index
        if self._cover_time is None and self._covered_count == self._graph.n_vertices:
            self._cover_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=int(next_active.sum()),
            cumulative_count=self._covered_count,
            newly_reached=newly_count,
            transmissions=transmissions,
        )
