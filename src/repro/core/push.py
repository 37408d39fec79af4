"""The classical randomised rumour-spreading *push* protocol.

Each round, every **informed** vertex pushes the rumour to one
neighbour chosen uniformly at random; informed vertices stay informed
forever.  This is the baseline the paper's introduction contrasts COBRA
against: push covers expanders in ``O(log n)`` rounds but keeps *every*
informed vertex transmitting every round, whereas COBRA bounds the
per-vertex transmission duty cycle (a vertex transmits only in rounds
where it holds a token).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.core.process import RoundRecord, SpreadingProcess, resolve_vertex_set
from repro.graphs.base import Graph


class PushProcess(SpreadingProcess):
    """Push rumour spreading from an initial informed set.

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
        """Every informed vertex pushes to one uniform neighbour."""
        informed_vertices = np.flatnonzero(self._active)
        targets = self._graph.sample_neighbors(informed_vertices, 1, self._rng).ravel()
        informed = self._active.copy()
        informed[targets] = True
        return self._close_round(informed, informed_vertices.size)
