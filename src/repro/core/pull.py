"""The pull-only rumour-spreading protocol.

Each round, every **uninformed** vertex contacts one neighbour chosen
uniformly at random and learns the rumour iff the contact is informed.
The mirror image of push: fast in the endgame (each straggler keeps
asking) but slow to ignite from a single source on sparse graphs.
Completes the classical baseline family (push, pull, push–pull) for
the E9-style budget comparisons.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.core.process import RoundRecord, SpreadingProcess, resolve_vertex_set
from repro.graphs.base import Graph


class PullProcess(SpreadingProcess):
    """Pull rumour spreading from an initial informed set.

    Parameters
    ----------
    graph:
        The underlying connected graph.
    start:
        Initially informed vertex or vertices.
    seed:
        Randomness source.
    """

    def __init__(
        self,
        graph: Graph,
        start: int | Iterable[int],
        *,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, resolve_vertex_set(graph, start, role="start"), seed=seed)

    def step(self) -> RoundRecord:
        """Every uninformed vertex asks one uniform neighbour."""
        asking = np.flatnonzero(~self._active)
        informed = self._active.copy()
        if asking.size:
            contacts = self._graph.sample_neighbors(asking, 1, self._rng).ravel()
            informed[asking[self._active[contacts]]] = True
        return self._close_round(informed, asking.size)
