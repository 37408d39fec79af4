"""Shared framework for round-based spreading processes.

Every process in :mod:`repro.core` evolves a set of vertices in
synchronous rounds and reports one :class:`RoundRecord` per round.  The
framework fixes the common vocabulary:

* the **active set** is the process state at the current round
  (`C_t` for COBRA, `A_t` for BIPS, the informed set for push);
* the **cumulative set** is the union of active sets over past rounds —
  what "covered" means for the process (COBRA unions from round 1, per
  the paper's definition of `cov`);
* **completion** is the process-specific goal: full coverage for
  COBRA/push/random-walk, full *simultaneous* infection for BIPS.

:class:`SpreadingProcess` keeps that state for every process: both
sets and their sizes, the round counter, the round each vertex first
entered the cumulative set, and the completion round.  A process class
supplies only its round rule: its ``step`` draws the next active set
and hands it to :meth:`SpreadingProcess._close_round`, which updates
the state and returns the round's record.

Branching factors are real numbers ``b >= 1``: each acting vertex makes
``floor(b)`` mandatory neighbour draws plus one extra draw with
probability ``b - floor(b)``.  ``b = 2`` is the paper's main setting;
``b = 1 + ρ`` with ``0 < ρ < 1`` is the fractional branching of
Theorem 3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.errors import (
    CoverTimeoutError,
    GraphPropertyError,
    InfectionTimeoutError,
    ProcessError,
    ProcessTimeoutError,
)
from repro.graphs.base import Graph


@dataclass(frozen=True)
class RoundRecord:
    """Measurements for one synchronous round of a spreading process.

    Attributes
    ----------
    round_index:
        The round number ``t``; the first call to ``step`` produces
        ``t = 1``.
    active_count:
        Size of the active set *after* the round (``|C_t|`` / ``|A_t|``).
    cumulative_count:
        Size of the cumulative (covered) set after the round.
    newly_reached:
        Number of vertices that entered the cumulative set this round.
    transmissions:
        Number of point-to-point messages sent during the round.
    """

    round_index: int
    active_count: int
    cumulative_count: int
    newly_reached: int
    transmissions: int


class Trace:
    """An append-only sequence of :class:`RoundRecord` with array views."""

    def __init__(self, records: Iterable[RoundRecord] = ()) -> None:
        self._records: list[RoundRecord] = list(records)

    def append(self, record: RoundRecord) -> None:
        """Append one round's record."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> RoundRecord:
        return self._records[index]

    @property
    def records(self) -> Sequence[RoundRecord]:
        """The records as an immutable-by-convention sequence."""
        return tuple(self._records)

    def active_counts(self) -> np.ndarray:
        """``|active set|`` per round, as an array."""
        return np.array([record.active_count for record in self._records], dtype=np.int64)

    def cumulative_counts(self) -> np.ndarray:
        """``|cumulative set|`` per round, as an array."""
        return np.array([record.cumulative_count for record in self._records], dtype=np.int64)

    def transmissions(self) -> np.ndarray:
        """Messages sent per round, as an array."""
        return np.array([record.transmissions for record in self._records], dtype=np.int64)

    def total_transmissions(self) -> int:
        """Total messages sent over all recorded rounds."""
        return int(self.transmissions().sum())


def validate_branching(branching: float) -> tuple[int, float]:
    """Split a branching factor into (mandatory draws, extra-draw probability).

    Returns ``(k, rho)`` with ``k = floor(branching) >= 1`` and
    ``rho = branching - k`` in ``[0, 1)``.
    """
    branching = float(branching)
    if not np.isfinite(branching) or branching < 1.0:
        raise ProcessError(f"branching factor must be a finite number >= 1, got {branching}")
    mandatory = int(np.floor(branching))
    rho = branching - mandatory
    # Guard against float artefacts like floor(2.0) -> 1 never happening,
    # but 1.9999999 should stay fractional rather than rounding up.
    return mandatory, rho


def validate_loss(loss_probability: float) -> float:
    """Check a per-message loss probability.

    Loss is modelled as independent thinning of each neighbour draw.
    """
    loss_probability = float(loss_probability)
    if not 0.0 <= loss_probability < 1.0:
        raise ProcessError(
            f"loss_probability must be in [0, 1), got {loss_probability}"
        )
    return loss_probability


def reject_isolated_vertices(graph: Graph, engine: str) -> None:
    """Raise :class:`~repro.errors.GraphPropertyError` if a vertex has no neighbour.

    Engines that draw neighbours for every vertex (BIPS's contacts, the
    exact engines' per-vertex draw laws) have nothing to draw there.
    """
    if graph.min_degree == 0:
        isolated = int(np.argmin(graph.degrees))
        raise GraphPropertyError(
            f"{engine} cannot draw a neighbour of isolated vertex {isolated} of {graph.name}"
        )


def resolve_vertex(graph: Graph, vertex: int, *, role: str) -> int:
    """Validate a vertex index against the graph, with a readable error."""
    vertex = int(vertex)
    if not 0 <= vertex < graph.n_vertices:
        raise ProcessError(
            f"{role} vertex {vertex} out of range [0, {graph.n_vertices})"
        )
    return vertex


def resolve_vertex_set(graph: Graph, vertices: int | Iterable[int], *, role: str) -> np.ndarray:
    """Normalise a vertex or iterable of vertices to a unique index array."""
    if isinstance(vertices, (int, np.integer)):
        return np.array([resolve_vertex(graph, int(vertices), role=role)], dtype=np.int64)
    array = np.unique(np.asarray(list(vertices), dtype=np.int64))
    if array.size == 0:
        raise ProcessError(f"{role} set must be non-empty")
    if array[0] < 0 or array[-1] >= graph.n_vertices:
        raise ProcessError(
            f"{role} set contains out-of-range vertices "
            f"(graph has {graph.n_vertices} vertices)"
        )
    return array


class SpreadingProcess(ABC):
    """Abstract base for synchronous-round spreading processes.

    The base owns the state every process reports.  A subclass's
    ``step`` draws the next active set by the subclass's own rule and
    ends with ``return self._close_round(next_active, transmissions)``.

    Parameters
    ----------
    graph:
        The underlying graph.
    initial:
        Indices of the initial active set (repeats allowed).
    seed:
        Randomness source (int, ``SeedSequence``, ``Generator`` or
        ``None``).
    initial_covered:
        Whether the initial set counts as covered at round 0.
    """

    #: The goal, named by the :class:`~repro.errors.ProcessTimeoutError`
    #: subclass runners raise when the process misses it within the
    #: round cap.  :class:`~repro.errors.CoverTimeoutError` (the default)
    #: means the cumulative set reaches ``V``;
    #: :class:`~repro.errors.InfectionTimeoutError` (BIPS, SIS) means the
    #: active set is ``V`` in one round.
    timeout_error: type[ProcessTimeoutError] = CoverTimeoutError

    def __init__(
        self,
        graph: Graph,
        initial: np.ndarray,
        *,
        seed: SeedLike = None,
        initial_covered: bool = True,
    ) -> None:
        self._graph = graph
        self._rng = ensure_generator(seed)
        self._round_index = 0
        n = graph.n_vertices
        self._active = np.zeros(n, dtype=bool)
        self._active[initial] = True
        self._active_count = int(np.count_nonzero(self._active))
        self._cumulative = self._active.copy() if initial_covered else np.zeros(n, dtype=bool)
        self._cumulative_count = int(np.count_nonzero(self._cumulative))
        self._first_hit = np.full(n, -1, dtype=np.int64)
        self._first_hit[initial] = 0
        self._completion_time: int | None = 0 if self.is_complete else None

    # -- common read-only state ---------------------------------------

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def rng(self) -> np.random.Generator:
        """The generator driving this process's randomness."""
        return self._rng

    @property
    def round_index(self) -> int:
        """Number of rounds executed so far."""
        return self._round_index

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of the current active set (a defensive copy)."""
        return self._active.copy()

    @property
    def active_count(self) -> int:
        """Size of the current active set."""
        return self._active_count

    @property
    def cumulative_mask(self) -> np.ndarray:
        """Boolean mask of the cumulative (covered) set (a copy)."""
        return self._cumulative.copy()

    @property
    def cumulative_count(self) -> int:
        """Size of the cumulative set."""
        return self._cumulative_count

    @property
    def is_complete(self) -> bool:
        """Whether the process is at its goal (see :attr:`timeout_error`)."""
        if issubclass(self.timeout_error, InfectionTimeoutError):
            return self._active_count == self._graph.n_vertices
        return self._cumulative_count == self._graph.n_vertices

    @property
    def completion_time(self) -> int | None:
        """Round at which the goal was first reached, or ``None``."""
        return self._completion_time

    def first_hit_times(self) -> np.ndarray:
        """Per-vertex round of first entry into the cumulative set (-1 if none yet).

        For a vertex outside the initial set this is its first
        activation round (for COBRA, the paper's hitting time
        ``Hit_{C_0}(v)`` in this run).  An initial vertex reports 0.
        When the initial set does not count as covered (COBRA's
        default, or a walk with ``include_start_in_cover=False``), the
        first revisit covers it and its round replaces the 0.
        """
        return self._first_hit.copy()

    # -- evolution ------------------------------------------------------

    @abstractmethod
    def step(self) -> RoundRecord:
        """Execute one synchronous round and return its record."""

    def _close_round(self, active: np.ndarray, transmissions: int) -> RoundRecord:
        """End the round: ``active`` becomes the active set; return the record."""
        self._round_index += 1
        self._active = active
        self._active_count = int(np.count_nonzero(active))
        newly = active & ~self._cumulative
        newly_count = int(np.count_nonzero(newly))
        if newly_count:
            self._cumulative |= newly
            self._cumulative_count += newly_count
            self._first_hit[newly] = self._round_index
        if self._completion_time is None and self.is_complete:
            self._completion_time = self._round_index
        return RoundRecord(
            round_index=self._round_index,
            active_count=self._active_count,
            cumulative_count=self._cumulative_count,
            newly_reached=newly_count,
            transmissions=transmissions,
        )

    def run(self, rounds: int) -> Trace:
        """Execute ``rounds`` rounds unconditionally, returning a trace."""
        if rounds < 0:
            raise ProcessError(f"rounds must be non-negative, got {rounds}")
        trace = Trace()
        for _ in range(rounds):
            trace.append(self.step())
        return trace

    def active_vertices(self) -> np.ndarray:
        """Indices of currently active vertices, sorted."""
        return np.flatnonzero(self._active)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(graph={self._graph.name!r}, "
            f"round={self._round_index}, active={self.active_count})"
        )
