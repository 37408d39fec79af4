"""Simple and multiple random walks, the `k = 1` end of the spectrum.

A COBRA process with branching factor 1 started from a single vertex
*is* a simple random walk, whose cover time on any graph is
``Ω(n log n)`` — the paper's argument for why some branching is
necessary for logarithmic cover time.  Running ``w`` independent
walkers gives the classical "multiple random walks" process of
Alon et al. / Elsässer & Sauerwald, included as a further baseline.

Cover semantics: walker start positions count as visited at round 0
(the standard random-walk convention; pass
``include_start_in_cover=False`` for the COBRA-style union-from-round-1
convention used when cross-checking against ``CobraProcess`` with
``branching=1``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.core.process import RoundRecord, SpreadingProcess, resolve_vertex_set
from repro.core.sparse import sorted_unique
from repro.errors import ProcessError
from repro.graphs.base import Graph


class RandomWalkProcess(SpreadingProcess):
    """One or more independent simple random walks covering a graph.

    Parameters
    ----------
    graph:
        The underlying connected graph.
    start:
        Starting vertex for every walker, or an iterable giving each
        walker's start (walkers may share a vertex).
    n_walkers:
        Number of walkers when ``start`` is a single vertex; ignored
        when ``start`` is an iterable (its length decides).
    seed:
        Randomness source.
    include_start_in_cover:
        Whether start positions count as visited at round 0
        (default true, the random-walk convention).
    """

    def __init__(
        self,
        graph: Graph,
        start: int | Iterable[int],
        *,
        n_walkers: int = 1,
        seed: SeedLike = None,
        include_start_in_cover: bool = True,
    ) -> None:
        super().__init__(graph, seed=seed)
        if isinstance(start, (int, np.integer)):
            if n_walkers < 1:
                raise ProcessError(f"n_walkers must be >= 1, got {n_walkers}")
            starts = np.full(n_walkers, int(start), dtype=np.int64)
            resolve_vertex_set(graph, int(start), role="start")
        else:
            starts = np.asarray(list(start), dtype=np.int64)
            if starts.size == 0:
                raise ProcessError("start iterable must be non-empty")
            resolve_vertex_set(graph, starts.tolist(), role="start")
        self._positions = starts
        n = graph.n_vertices
        self._visited = np.zeros(n, dtype=bool)
        if include_start_in_cover:
            self._visited[starts] = True
        self._visited_count = int(self._visited.sum())
        self._cover_time: int | None = 0 if self._visited_count == n else None

    @property
    def n_walkers(self) -> int:
        """Number of walkers."""
        return int(self._positions.size)

    @property
    def positions(self) -> np.ndarray:
        """Current walker positions (a copy)."""
        return self._positions.copy()

    @property
    def active_mask(self) -> np.ndarray:
        """Mask of vertices currently occupied by at least one walker."""
        mask = np.zeros(self._graph.n_vertices, dtype=bool)
        mask[self._positions] = True
        return mask

    @property
    def active_count(self) -> int:
        return int(sorted_unique(self._positions.copy()).size)

    @property
    def cumulative_mask(self) -> np.ndarray:
        return self._visited.copy()

    @property
    def cumulative_count(self) -> int:
        return self._visited_count

    @property
    def is_complete(self) -> bool:
        """Whether every vertex has been visited."""
        return self._visited_count == self._graph.n_vertices

    @property
    def completion_time(self) -> int | None:
        """The cover time once every vertex is visited, else ``None``."""
        return self._cover_time

    def step(self) -> RoundRecord:
        """Move every walker to a uniform random neighbour."""
        graph = self._graph
        self._positions = graph.sample_neighbors(self._positions, 1, self._rng).ravel()
        self._round_index += 1
        before = self._visited_count
        self._visited[self._positions] = True
        self._visited_count = int(self._visited.sum())
        if self._cover_time is None and self._visited_count == graph.n_vertices:
            self._cover_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=self.active_count,
            cumulative_count=self._visited_count,
            newly_reached=self._visited_count - before,
            transmissions=self.n_walkers,
        )
