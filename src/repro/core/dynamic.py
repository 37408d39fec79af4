"""COBRA and BIPS on evolving graphs (an extension beyond the paper).

The paper analyses a static graph; the natural follow-up question —
studied by the same authors in later work on COBRA in dynamic
networks — is whether the logarithmic cover time survives when the
graph is re-drawn while the process runs.  This module provides:

* :class:`EvolvingRegularGraph` — a graph *provider* that re-samples a
  connected random `r`-regular graph every ``period`` rounds (period 1
  = a fresh graph each round; larger periods interpolate towards the
  static case);
* :class:`DynamicCobraProcess` / :class:`DynamicBipsProcess` — the two
  processes with the underlying graph queried from a provider at every
  round.

A **provider** is any callable ``(round_index) -> Graph`` over a fixed
vertex set.  Providers must be deterministic per round index (calling
them twice with the same index must return the same snapshot); sources
of randomness belong inside the provider, seeded independently of the
process, so one graph trajectory can be replayed against many process
seeds.  Experiment E12 measures the cover-time scaling across
re-sampling periods.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.core.process import (
    RoundRecord,
    SpreadingProcess,
    resolve_vertex_set,
    validate_branching,
)
from repro.errors import ProcessError
from repro.graphs.base import Graph
from repro.graphs.generators import random_regular

#: A graph provider: maps the (1-based) round index to the snapshot in
#: force during that round.  Must be deterministic per index.
GraphProvider = Callable[[int], Graph]


class EvolvingRegularGraph:
    """Provider that re-samples a random `r`-regular graph periodically.

    Parameters
    ----------
    n, r:
        Vertex count and degree of every snapshot.
    period:
        Rounds between re-samples; ``1`` draws a fresh graph every
        round, large values approach the static case.
    seed:
        Seed of the snapshot sequence (independent of any process
        randomness).
    """

    def __init__(self, n: int, r: int, *, period: int = 1, seed: SeedLike = None) -> None:
        if period < 1:
            raise ProcessError(f"period must be >= 1, got {period}")
        self._n = n
        self._r = r
        self._period = period
        self._rng = ensure_generator(seed)
        self._current: Graph | None = None
        self._current_epoch = -1

    @property
    def n_vertices(self) -> int:
        """Vertex count of every snapshot."""
        return self._n

    @property
    def period(self) -> int:
        """Rounds between re-samples."""
        return self._period

    def __call__(self, round_index: int) -> Graph:
        """The snapshot in force during ``round_index`` (1-based).

        Round indices must be queried in non-decreasing order (the
        processes do); revisiting an older epoch is not supported.
        """
        epoch = (round_index - 1) // self._period
        if epoch < self._current_epoch:
            raise ProcessError(
                f"EvolvingRegularGraph cannot rewind to epoch {epoch} "
                f"(currently at {self._current_epoch})"
            )
        if epoch != self._current_epoch:
            self._current = random_regular(self._n, self._r, seed=self._rng)
            self._current_epoch = epoch
        assert self._current is not None
        return self._current


def static_provider(graph: Graph) -> GraphProvider:
    """Wrap a fixed graph as a provider (the degenerate dynamic case)."""
    return lambda round_index: graph


class _DynamicProcessBase(SpreadingProcess):
    """Shared plumbing: fetch and validate the per-round snapshot."""

    def __init__(self, provider: GraphProvider, *, seed: SeedLike = None) -> None:
        first = provider(1)
        super().__init__(first, seed=seed)
        self._provider = provider
        self._n = first.n_vertices

    @property
    def graph(self) -> Graph:
        """The most recently used snapshot."""
        return self._graph

    def _graph_for_round(self, round_index: int) -> Graph:
        graph = self._provider(round_index)
        if graph.n_vertices != self._n:
            raise ProcessError(
                f"provider changed the vertex set at round {round_index}: "
                f"got {graph.n_vertices}, expected {self._n}"
            )
        self._graph = graph
        return graph


class DynamicCobraProcess(_DynamicProcessBase):
    """COBRA where each round's pushes use that round's graph snapshot.

    Parameters
    ----------
    provider:
        Graph provider ``(round_index) -> Graph``.
    start:
        Initial active set (validated against snapshot 1's vertex set).
    branching:
        Branching factor (real ``>= 1``).
    seed:
        Randomness source for the process's own draws.
    include_start_in_cover:
        As in :class:`~repro.core.cobra.CobraProcess`.
    """

    def __init__(
        self,
        provider: GraphProvider,
        start: int | Iterable[int],
        *,
        branching: float = 2.0,
        seed: SeedLike = None,
        include_start_in_cover: bool = False,
    ) -> None:
        super().__init__(provider, seed=seed)
        self._mandatory, self._rho = validate_branching(branching)
        start_vertices = resolve_vertex_set(self._graph, start, role="start")
        self._active = np.zeros(self._n, dtype=bool)
        self._active[start_vertices] = True
        self._covered = np.zeros(self._n, dtype=bool)
        if include_start_in_cover:
            self._covered[start_vertices] = True
        self._cover_time: int | None = (
            0 if int(self._covered.sum()) == self._n else None
        )

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
        return int(self._covered.sum())

    @property
    def is_complete(self) -> bool:
        return self.cumulative_count == self._n

    @property
    def completion_time(self) -> int | None:
        return self._cover_time

    def step(self) -> RoundRecord:
        """One COBRA round on the current snapshot."""
        graph = self._graph_for_round(self._round_index + 1)
        active_vertices = np.flatnonzero(self._active)
        if active_vertices.size == 0:
            raise RuntimeError("COBRA active set is empty; process state is invalid")
        picks = graph.sample_neighbors(active_vertices, self._mandatory, self._rng)
        chosen = picks.ravel()
        transmissions = chosen.size
        if self._rho > 0.0:
            branch = self._rng.random(active_vertices.size) < self._rho
            sources = active_vertices[branch]
            if sources.size:
                extra = graph.sample_neighbors(sources, 1, self._rng).ravel()
                chosen = np.concatenate([chosen, extra])
                transmissions += extra.size
        next_active = np.zeros(self._n, dtype=bool)
        next_active[chosen] = True
        self._active = next_active
        self._round_index += 1
        newly = next_active & ~self._covered
        newly_count = int(newly.sum())
        if newly_count:
            self._covered |= next_active
        if self._cover_time is None and self.cumulative_count == self._n:
            self._cover_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=int(next_active.sum()),
            cumulative_count=self.cumulative_count,
            newly_reached=newly_count,
            transmissions=transmissions,
        )


class DynamicBipsProcess(_DynamicProcessBase):
    """BIPS where each round's contacts use that round's graph snapshot."""

    def __init__(
        self,
        provider: GraphProvider,
        source: int,
        *,
        branching: float = 2.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(provider, seed=seed)
        self._mandatory, self._rho = validate_branching(branching)
        source = int(source)
        if not 0 <= source < self._n:
            raise ProcessError(f"source {source} outside the dynamic vertex set")
        self._source = source
        self._infected = np.zeros(self._n, dtype=bool)
        self._infected[source] = True
        self._ever = self._infected.copy()
        self._infection_time: int | None = None
        self._all_vertices = np.arange(self._n, dtype=np.int64)

    @property
    def source(self) -> int:
        """The persistent source vertex."""
        return self._source

    @property
    def active_mask(self) -> np.ndarray:
        return self._infected.copy()

    @property
    def active_count(self) -> int:
        return int(self._infected.sum())

    @property
    def cumulative_mask(self) -> np.ndarray:
        return self._ever.copy()

    @property
    def cumulative_count(self) -> int:
        return int(self._ever.sum())

    @property
    def is_complete(self) -> bool:
        return self.active_count == self._n

    @property
    def completion_time(self) -> int | None:
        return self._infection_time

    def step(self) -> RoundRecord:
        """One BIPS round on the current snapshot."""
        graph = self._graph_for_round(self._round_index + 1)
        picks = graph.sample_neighbors(self._all_vertices, self._mandatory, self._rng)
        next_infected = self._infected[picks].any(axis=1)
        transmissions = picks.size - self._mandatory
        if self._rho > 0.0:
            coin = self._rng.random(self._n) < self._rho
            coin[self._source] = False
            sources = self._all_vertices[coin]
            if sources.size:
                extra = graph.sample_neighbors(sources, 1, self._rng).ravel()
                next_infected[sources] |= self._infected[extra]
                transmissions += extra.size
        next_infected[self._source] = True
        self._infected = next_infected
        self._round_index += 1
        newly = next_infected & ~self._ever
        newly_count = int(newly.sum())
        if newly_count:
            self._ever |= next_infected
        if self._infection_time is None and self.active_count == self._n:
            self._infection_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=self.active_count,
            cumulative_count=self.cumulative_count,
            newly_reached=newly_count,
            transmissions=transmissions,
        )
