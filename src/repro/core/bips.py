"""BIPS: Biased Infection with Persistent Source (paper §1).

Process definition: a fixed source ``v`` is permanently infected.  In
every round, each vertex ``u ≠ v`` independently selects ``k``
neighbours uniformly at random with replacement and is infected in
round ``t+1`` **iff** at least one selected neighbour was infected in
round ``t``.  Note that infection is *refreshed* each round: a vertex
other than the source loses its infection whenever all of its samples
miss the infected set.  The quantity of interest is
``infec(v) = min{t : A_t = V}``.

The process is the time-reversal dual of COBRA (paper Theorem 4); see
:mod:`repro.exact.duality` for the machine-precision verification.

Fractional branching (Corollary 1): ``branching = 1 + ρ`` makes every
vertex sample one neighbour, plus a second with probability ``ρ``.
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike
from repro.errors import InfectionTimeoutError
from repro.core.process import (
    RoundRecord,
    SpreadingProcess,
    resolve_vertex,
    validate_branching,
    validate_loss,
)
from repro.graphs.base import Graph


class BipsProcess(SpreadingProcess):
    """A BIPS epidemic with a persistent source.

    Timeouts raise :class:`~repro.errors.InfectionTimeoutError` (an
    infection process's goal is full infection, not coverage).

    Parameters
    ----------
    graph:
        The underlying connected graph.
    source:
        The permanently infected source vertex ``v``.
    branching:
        Sampling factor ``k`` (any real ``>= 1``; the paper's main
        setting is ``2``).
    seed:
        Randomness source.
    loss_probability:
        Independent per-contact loss (extension): each contact fails to
        observe its target with this probability, i.e. an infected
        neighbour is only *seen* as infected if the contact survives.
        The dual of equally-lossy COBRA (Theorem 4 carries over).
    """

    timeout_error = InfectionTimeoutError

    def __init__(
        self,
        graph: Graph,
        source: int,
        *,
        branching: float = 2.0,
        seed: SeedLike = None,
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__(graph, seed=seed)
        self._mandatory, self._rho = validate_branching(branching)
        self._loss = validate_loss(loss_probability)
        self._branching = float(branching)
        self._source = resolve_vertex(graph, source, role="source")
        n = graph.n_vertices
        self._infected = np.zeros(n, dtype=bool)
        self._infected[self._source] = True
        self._ever_infected = self._infected.copy()
        self._infection_time: int | None = 0 if n == 1 else None
        self._all_vertices = np.arange(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------

    @property
    def source(self) -> int:
        """The persistent source vertex."""
        return self._source

    @property
    def branching(self) -> float:
        """The sampling factor ``k`` (possibly fractional)."""
        return self._branching

    @property
    def loss_probability(self) -> float:
        """Per-contact loss probability (0 = the paper's lossless setting)."""
        return self._loss

    @property
    def active_mask(self) -> np.ndarray:
        """Mask of currently infected vertices ``A_t`` (a copy)."""
        return self._infected.copy()

    @property
    def active_count(self) -> int:
        """``|A_t|``."""
        return int(self._infected.sum())

    @property
    def cumulative_mask(self) -> np.ndarray:
        """Mask of ever-infected vertices (a copy)."""
        return self._ever_infected.copy()

    @property
    def cumulative_count(self) -> int:
        return int(self._ever_infected.sum())

    @property
    def is_complete(self) -> bool:
        """Whether the *current* infected set is the whole graph."""
        return self.active_count == self._graph.n_vertices

    @property
    def completion_time(self) -> int | None:
        """The infection time ``infec(v)`` once reached, else ``None``."""
        return self._infection_time

    @property
    def infection_time(self) -> int | None:
        """Alias for :attr:`completion_time` using the paper's name."""
        return self._infection_time

    def is_infected(self, vertex: int) -> bool:
        """Whether ``vertex`` belongs to the current infected set."""
        return bool(self._infected[vertex])

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def _observed_infected(self, infected: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """Per-row: did at least one *surviving* contact hit an infected vertex?"""
        hits = infected[picks]
        if self._loss > 0.0:
            hits &= self._rng.random(picks.shape) >= self._loss
        return hits.any(axis=1)

    def step(self) -> RoundRecord:
        """Advance ``A_t -> A_{t+1}``: every non-source vertex re-samples."""
        graph = self._graph
        rng = self._rng
        infected = self._infected
        next_infected = np.zeros(graph.n_vertices, dtype=bool)
        if self._rho > 0.0:
            # A coin per vertex decides whether it contacts k or k+1
            # neighbours this round (the fractional-branching law).
            extra_mask = rng.random(graph.n_vertices) < self._rho
            base_vertices = self._all_vertices[~extra_mask]
            extra_vertices = self._all_vertices[extra_mask]
            transmissions = 0
            if base_vertices.size:
                picks = graph.sample_neighbors(base_vertices, self._mandatory, rng)
                next_infected[base_vertices] = self._observed_infected(infected, picks)
                transmissions += picks.size
            if extra_vertices.size:
                picks = graph.sample_neighbors(extra_vertices, self._mandatory + 1, rng)
                next_infected[extra_vertices] = self._observed_infected(infected, picks)
                transmissions += picks.size
            # Exclude the persistent source's contacts from the count.
            transmissions -= self._mandatory + (1 if extra_mask[self._source] else 0)
        else:
            picks = graph.sample_neighbors(self._all_vertices, self._mandatory, rng)
            next_infected = self._observed_infected(infected, picks)
            # The persistent source does not sample; its row is drawn
            # for vectorisation convenience but overridden below and
            # excluded from the contact count.
            transmissions = picks.size - self._mandatory
        next_infected[self._source] = True
        self._infected = next_infected
        self._round_index += 1

        newly = next_infected & ~self._ever_infected
        newly_count = int(newly.sum())
        if newly_count:
            self._ever_infected |= next_infected
        current = int(next_infected.sum())
        if self._infection_time is None and current == graph.n_vertices:
            self._infection_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=current,
            cumulative_count=int(self._ever_infected.sum()),
            newly_reached=newly_count,
            transmissions=transmissions,
        )
