"""COBRA and BIPS on evolving graphs (an extension beyond the paper).

The paper analyses a static graph; the natural follow-up question —
studied by the same authors in later work on COBRA in dynamic
networks — is whether the logarithmic cover time survives when the
graph is re-drawn while the process runs.  This module provides:

* :class:`EvolvingRegularGraph` — a graph *provider* that re-samples a
  connected random `r`-regular graph every ``period`` rounds (period 1
  = a fresh graph each round; larger periods interpolate towards the
  static case);
* :class:`DynamicCobraProcess` / :class:`DynamicBipsProcess` — the
  static :class:`~repro.core.cobra.CobraProcess` and
  :class:`~repro.core.bips.BipsProcess` with a per-round snapshot: each
  ``step`` swaps in the provider's graph for that round and runs the
  static class's round.  They therefore take the static constructors'
  arguments (branching, seed, loss and, for COBRA, the cover
  convention), with a provider in place of the graph.

A **provider** is any callable ``(round_index) -> Graph`` over a fixed
vertex set.  Providers must be deterministic per round index (calling
them twice with the same index must return the same snapshot); sources
of randomness belong inside the provider, seeded independently of the
process, so one graph trajectory can be replayed against many process
seeds.  Experiment E12 measures the cover-time scaling across
re-sampling periods.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro._rng import SeedLike, ensure_generator
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.process import RoundRecord, SpreadingProcess
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


def _snapshot(provider: GraphProvider, process: SpreadingProcess) -> Graph:
    """The provider's graph for the process's next round, on the same vertex set."""
    round_index = process.round_index + 1
    graph = provider(round_index)
    if graph.n_vertices != process.graph.n_vertices:
        raise ProcessError(
            f"provider changed the vertex set at round {round_index}: "
            f"got {graph.n_vertices}, expected {process.graph.n_vertices}"
        )
    return graph


class DynamicCobraProcess(CobraProcess):
    """COBRA where each round's pushes use that round's graph snapshot.

    Takes :class:`~repro.core.cobra.CobraProcess`'s arguments with a
    provider in place of the graph; ``start`` is checked against
    snapshot 1.  :attr:`graph` is the most recently used snapshot.
    """

    def __init__(
        self, provider: GraphProvider, start: int | Iterable[int], **options: Any
    ) -> None:
        super().__init__(provider(1), start, **options)
        self._provider = provider

    def step(self) -> RoundRecord:
        """One COBRA round on the current snapshot."""
        self._graph = _snapshot(self._provider, self)
        return super().step()


class DynamicBipsProcess(BipsProcess):
    """BIPS where each round's contacts use that round's graph snapshot.

    Takes :class:`~repro.core.bips.BipsProcess`'s arguments with a
    provider in place of the graph; ``source`` is checked against
    snapshot 1.  :attr:`graph` is the most recently used snapshot.
    """

    def __init__(self, provider: GraphProvider, source: int, **options: Any) -> None:
        super().__init__(provider(1), source, **options)
        self._provider = provider

    def step(self) -> RoundRecord:
        """One BIPS round on the current snapshot."""
        self._graph = _snapshot(self._provider, self)
        return super().step()
