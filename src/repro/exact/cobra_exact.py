"""Exact distribution evolution for the COBRA set process.

Given ``C_t = S``, the next active set is the union of independent
random choice sets, one per vertex ``u ∈ S``.  The union's zeta
(subset-sum) transform is therefore a product:

``P(C_{t+1} ⊆ T | C_t = S) = Π_{u ∈ S} h_u(T)``

where ``h_u(T)`` is the probability that ``u``'s choice set lies in
``T``.  It depends only on ``a = |N(u) ∩ T|``: ``h_u = q^k (1 - ρ + ρ q)``
with ``q = loss + (1 - loss)·a/d(u)`` (``k`` mandatory draws, one extra
with probability ``ρ``, each draw lost with probability ``loss``).

The transformed rows are built by doubling over the lowest bit,
``Z[S] = Z[S \\ {u}]·h_u``, and one Möbius pass along ``T`` recovers
the step matrix.  Entries with ``|T| > |S|·⌈k⌉`` are impossible and are
set to zero, which removes the pass's rounding residue there.  The dead
state ``∅`` (reachable under loss) is row 0, a delta at 0.

Hitting-time tails — the left-hand side of the duality theorem — are
computed by evolving a *defective* distribution restricted to
target-free masks: mass that lands on a mask containing the target is
dropped (the walk has hit), and the surviving total mass after ``t``
steps is ``P(Hit_C(v) > t)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.process import (
    reject_isolated_vertices,
    resolve_vertex,
    resolve_vertex_set,
    validate_branching,
    validate_loss,
)
from repro.exact.subsets import (
    SubsetChain,
    mask_from_vertices,
    masks_containing,
    mobius,
    vertices_from_mask,
)
from repro.graphs.base import Graph


class ExactCobra(SubsetChain):
    """Exact subset-distribution evolution of COBRA on a small graph.

    Parameters
    ----------
    graph:
        A graph with at most
        :data:`~repro.exact.subsets.MAX_EXACT_VERTICES` vertices, none
        of them isolated.
    branching:
        Branching factor ``k`` (real, ``>= 1``).
    loss_probability:
        Independent per-push loss (extension): each draw contributes
        its singleton with probability ``1 - loss`` and nothing
        otherwise.  The empty active set becomes reachable and is
        treated as absorbing (a dead walk never hits anything).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        branching: float = 2.0,
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__(graph.n_vertices)
        self._graph = graph
        mandatory, rho = validate_branching(branching)
        loss = validate_loss(loss_probability)
        reject_isolated_vertices(graph, "ExactCobra")
        #: Most vertices one active vertex can choose in a round.
        self._draws = mandatory + (1 if rho > 0.0 else 0)
        #: ``h_u(T)`` for every vertex ``u`` (rows) and mask ``T``.
        self._factors = np.empty((self._n, self._size), dtype=np.float64)
        all_masks = np.arange(self._size, dtype=np.int64)
        for u in range(self._n):
            neighbors = graph.neighbors(u)
            q = loss + (1.0 - loss) * np.arange(neighbors.size + 1) / neighbors.size
            by_overlap = q**mandatory * (1.0 - rho + rho * q)
            overlap = self._popcount[all_masks & mask_from_vertices(neighbors.tolist())]
            self._factors[u] = by_overlap[overlap]

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    # ------------------------------------------------------------------
    # One-step machinery
    # ------------------------------------------------------------------

    def _columns(self, masks: np.ndarray) -> np.ndarray:
        zeta = np.empty((self._size, masks.size), dtype=np.float64)
        if masks.size == self._size:
            # Every mask: double over the lowest bit, Z[S] = Z[S without u]·h_u.
            zeta[:, 0] = 1.0
            for u in range(self._n):
                half = 1 << u
                np.multiply(zeta[:, :half], self._factors[u, :, None], out=zeta[:, half : 2 * half])
        else:
            for column, mask in enumerate(masks.tolist()):
                zeta[:, column] = np.prod(self._factors[vertices_from_mask(mask)], axis=0)
        columns = mobius(zeta, self._n)
        columns[self._popcount[:, None] > self._draws * self._popcount[masks]] = 0.0
        return columns

    def step_distribution(self, mask: int) -> np.ndarray:
        """Exact distribution of ``C_{t+1}`` given ``C_t = mask``."""
        if mask <= 0:
            raise ValueError("COBRA requires a non-empty active set")
        return self._row(mask)

    # ------------------------------------------------------------------
    # Full-law evolution (no absorption)
    # ------------------------------------------------------------------

    def initial_distribution(self, start: int | Iterable[int]) -> np.ndarray:
        """Delta at ``C_0 = start``."""
        vertices = resolve_vertex_set(self._graph, start, role="start")
        distribution = np.zeros(self._size, dtype=np.float64)
        distribution[mask_from_vertices(vertices.tolist())] = 1.0
        return distribution

    def distribution_at(self, start: int | Iterable[int], t: int) -> np.ndarray:
        """Exact law of ``C_t`` from ``C_0 = start``."""
        return self.evolve(self.initial_distribution(start), t)

    def occupation_probabilities(self, start: int | Iterable[int], t: int) -> np.ndarray:
        """``P(u ∈ C_t)`` for every vertex ``u`` (length-`n` array).

        With ``branching = 1`` and a single start vertex this equals the
        ``t``-step law of a simple random walk — a cross-check used by
        the test suite.
        """
        distribution = self.distribution_at(start, t)
        all_masks = np.arange(self._size, dtype=np.int64)
        return np.array(
            [
                float(distribution[(all_masks >> u) & 1 == 1].sum())
                for u in range(self._n)
            ]
        )

    # ------------------------------------------------------------------
    # Hitting-time tails (duality LHS)
    # ------------------------------------------------------------------

    def hitting_survival_series(
        self, start: int | Iterable[int], target: int, t_max: int
    ) -> np.ndarray:
        """``P(Hit_C(v) > t)`` for ``t = 0 .. t_max``.

        ``Hit_C(v) = min{t : v ∈ C_t, C_0 = C}`` with round 0 counting,
        exactly as in the paper.
        """
        target = resolve_vertex(self._graph, target, role="target")
        if t_max < 0:
            raise ValueError(f"t_max must be non-negative, got {t_max}")
        hit = masks_containing(target, self._n)

        survival = np.empty(t_max + 1, dtype=np.float64)
        defective = self.initial_distribution(start)
        defective[hit] = 0.0
        survival[0] = float(defective.sum())
        for t in range(1, t_max + 1):
            defective = self._advance(defective)
            defective[hit] = 0.0
            survival[t] = float(defective.sum())
        return survival

    def hitting_survival(self, start: int | Iterable[int], target: int, t: int) -> float:
        """``P(Hit_C(v) > t)`` for a single ``t``."""
        return float(self.hitting_survival_series(start, target, t)[t])
