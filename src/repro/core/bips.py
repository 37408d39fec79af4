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
        self._mandatory, self._rho = validate_branching(branching)
        self._loss = validate_loss(loss_probability)
        self._branching = float(branching)
        self._source = resolve_vertex(graph, source, role="source")
        super().__init__(graph, np.array([self._source]), seed=seed)

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
    def infection_time(self) -> int | None:
        """Alias for :attr:`completion_time` using the paper's name."""
        return self._completion_time

    def is_infected(self, vertex: int) -> bool:
        """Whether ``vertex`` belongs to the current infected set."""
        return bool(self._active[vertex])

    def step(self) -> RoundRecord:
        """Advance ``A_t -> A_{t+1}``: every non-source vertex re-samples."""
        next_infected, extra = refresh_round(
            self._graph, self._active, self._mandatory, self._rho, self._loss, self._rng
        )
        next_infected[self._source] = True
        # The persistent source draws contacts too (for vectorisation);
        # its state is overridden and its contacts are not counted.
        contacts = next_infected.size * self._mandatory + np.count_nonzero(extra)
        source_contacts = self._mandatory + extra[self._source]
        return self._close_round(next_infected, int(contacts - source_contacts))


def refresh_round(
    graph: Graph,
    infected: np.ndarray,
    mandatory: int,
    rho: float,
    loss: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One round of refresh contacts by every vertex (BIPS and SIS).

    Every vertex contacts ``mandatory`` uniform neighbours, plus one
    more on a ``rho`` coin (all coins are drawn first), and is infected
    next round iff a contact that survives ``loss`` hits ``infected``.
    Returns the next infected mask and the mask of the vertices that
    made the extra contact.
    """
    n = graph.n_vertices
    groups: tuple[tuple[np.ndarray, int], ...]
    if rho > 0.0:
        extra = rng.random(n) < rho
        groups = ((np.flatnonzero(~extra), mandatory), (np.flatnonzero(extra), mandatory + 1))
    else:
        extra = np.zeros(n, dtype=bool)
        groups = ((np.arange(n), mandatory),)
    next_infected = np.empty(n, dtype=bool)
    for vertices, draws in groups:
        if vertices.size:
            picks = graph.sample_neighbors(vertices, draws, rng)
            hits = infected[picks]
            if loss > 0.0:
                hits &= rng.random(picks.shape) >= loss
            next_infected[vertices] = hits.any(axis=1)
    return next_infected, extra
