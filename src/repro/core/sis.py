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
from repro.core.bips import refresh_round
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
        self._mandatory, self._rho = validate_branching(branching)
        self._branching = float(branching)
        self._extinction_time: int | None = None
        super().__init__(graph, resolve_vertex_set(graph, initial, role="initial"), seed=seed)

    @property
    def branching(self) -> float:
        """The sampling factor ``k`` (possibly fractional)."""
        return self._branching

    @property
    def is_extinct(self) -> bool:
        """Whether the infection has died out (absorbing)."""
        return self._active_count == 0

    @property
    def extinction_time(self) -> int | None:
        """Round at which the infected set first became empty, or ``None``."""
        return self._extinction_time

    def step(self) -> RoundRecord:
        """Advance one round; the empty state is absorbing."""
        if self._active_count == 0:
            return self._close_round(self._active, 0)
        next_infected, extra = refresh_round(
            self._graph, self._active, self._mandatory, self._rho, 0.0, self._rng
        )
        contacts = next_infected.size * self._mandatory + np.count_nonzero(extra)
        record = self._close_round(next_infected, int(contacts))
        if record.active_count == 0:
            self._extinction_time = record.round_index
        return record
