"""Plain SIS refresh dynamics *without* a persistent source.

This is the ablation counterpart of :class:`~repro.core.bips.BipsProcess`
(experiment E10): identical per-round sampling, but no vertex is
permanently infected, so the all-susceptible state is absorbing and the
epidemic can die out.  The paper motivates BIPS precisely by the
persistent-source property ("a particular host can become persistently
infected" — the BVDV example), and the ablation quantifies what the
source buys: BIPS reaches full infection w.h.p. while plain SIS started
from a single vertex goes extinct with constant probability per round
until it either takes off or dies.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._rng import SeedLike
from repro.errors import InfectionTimeoutError
from repro.core.process import (
    RoundRecord,
    SpreadingProcess,
    resolve_vertex_set,
    validate_branching,
)
from repro.graphs.base import Graph


class SisProcess(SpreadingProcess):
    """SIS refresh dynamics: BIPS sampling with no persistent source.

    Parameters
    ----------
    graph:
        The underlying connected graph.
    initial:
        Initially infected vertex or vertices.
    branching:
        Sampling factor ``k`` (real, ``>= 1``).
    seed:
        Randomness source.
    """

    timeout_error = InfectionTimeoutError

    def __init__(
        self,
        graph: Graph,
        initial: int | Iterable[int],
        *,
        branching: float = 2.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, seed=seed)
        self._mandatory, self._rho = validate_branching(branching)
        self._branching = float(branching)
        initial_vertices = resolve_vertex_set(graph, initial, role="initial")
        n = graph.n_vertices
        self._infected = np.zeros(n, dtype=bool)
        self._infected[initial_vertices] = True
        self._ever_infected = self._infected.copy()
        self._infection_time: int | None = (
            0 if int(self._infected.sum()) == n else None
        )
        self._extinction_time: int | None = None
        self._all_vertices = np.arange(n, dtype=np.int64)

    @property
    def branching(self) -> float:
        """The sampling factor ``k`` (possibly fractional)."""
        return self._branching

    @property
    def active_mask(self) -> np.ndarray:
        return self._infected.copy()

    @property
    def active_count(self) -> int:
        return int(self._infected.sum())

    @property
    def cumulative_mask(self) -> np.ndarray:
        return self._ever_infected.copy()

    @property
    def cumulative_count(self) -> int:
        return int(self._ever_infected.sum())

    @property
    def is_complete(self) -> bool:
        """Whether every vertex is simultaneously infected."""
        return self.active_count == self._graph.n_vertices

    @property
    def completion_time(self) -> int | None:
        return self._infection_time

    @property
    def is_extinct(self) -> bool:
        """Whether the infection has died out (absorbing)."""
        return self.active_count == 0

    @property
    def extinction_time(self) -> int | None:
        """Round at which the infected set first became empty, or ``None``."""
        return self._extinction_time

    def step(self) -> RoundRecord:
        """Advance one round; the empty state is absorbing."""
        graph = self._graph
        rng = self._rng
        infected = self._infected
        if not infected.any():
            self._round_index += 1
            return RoundRecord(
                round_index=self._round_index,
                active_count=0,
                cumulative_count=self.cumulative_count,
                newly_reached=0,
                transmissions=0,
            )
        if self._rho > 0.0:
            extra_mask = rng.random(graph.n_vertices) < self._rho
            base_vertices = self._all_vertices[~extra_mask]
            extra_vertices = self._all_vertices[extra_mask]
            next_infected = np.zeros(graph.n_vertices, dtype=bool)
            transmissions = 0
            if base_vertices.size:
                picks = graph.sample_neighbors(base_vertices, self._mandatory, rng)
                next_infected[base_vertices] = infected[picks].any(axis=1)
                transmissions += picks.size
            if extra_vertices.size:
                picks = graph.sample_neighbors(extra_vertices, self._mandatory + 1, rng)
                next_infected[extra_vertices] = infected[picks].any(axis=1)
                transmissions += picks.size
        else:
            picks = graph.sample_neighbors(self._all_vertices, self._mandatory, rng)
            next_infected = infected[picks].any(axis=1)
            transmissions = picks.size
        self._infected = next_infected
        self._round_index += 1

        newly = next_infected & ~self._ever_infected
        newly_count = int(newly.sum())
        if newly_count:
            self._ever_infected |= next_infected
        current = int(next_infected.sum())
        if self._infection_time is None and current == graph.n_vertices:
            self._infection_time = self._round_index
        if self._extinction_time is None and current == 0:
            self._extinction_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=current,
            cumulative_count=int(self._ever_infected.sum()),
            newly_reached=newly_count,
            transmissions=transmissions,
        )
