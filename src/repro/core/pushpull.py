"""The push–pull rumour-spreading protocol (Karp et al. style).

Each round, **every** vertex (informed or not) contacts one neighbour
chosen uniformly at random.  The rumour crosses the contact edge in
both directions: an informed caller informs its callee (*push*), and an
uninformed caller learns from an informed callee (*pull*).  This is the
strongest classical baseline; it also spends `n` contacts per round
from the first round onwards, which is the per-round budget COBRA's
design avoids.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.core.process import RoundRecord, SpreadingProcess, resolve_vertex_set
from repro.graphs.base import Graph


class PushPullProcess(SpreadingProcess):
    """Push–pull rumour spreading from an initial informed set.

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
        """Every vertex contacts one uniform neighbour; rumour crosses both ways."""
        graph = self._graph
        informed = self._active
        contacts = graph.sample_neighbors(np.arange(graph.n_vertices), 1, self._rng).ravel()
        # Pull: a caller learns from an informed callee.
        next_informed = informed | informed[contacts]
        # Push: an informed caller informs its callee.
        next_informed[contacts[informed]] = True
        return self._close_round(next_informed, graph.n_vertices)
