"""Exact distribution evolution for the BIPS epidemic.

Given ``A_t = A``, the next infected set is a product of independent
per-vertex Bernoullis: vertex ``u ≠ v`` is infected with probability
``p_u(A) = 1 - (1 - d_A(u)/d(u))^k`` (adjusted for fractional ``k`` and
loss), and the source bit is always set.  Each step-matrix row is
therefore a product measure: :meth:`ExactBips.infection_probabilities`
vectorised over masks, expanded bit by bit by
:func:`~repro.exact.subsets.product_measure`.

Up to :data:`~repro.exact.subsets.MATRIX_LIMIT` vertices the matrix is
built once per engine and reused across steps; above it the rows of the
masks that carry mass are built each round.
"""

from __future__ import annotations

import numpy as np

from repro.core.process import (
    reject_isolated_vertices,
    resolve_vertex,
    validate_branching,
    validate_loss,
)
from repro.exact.subsets import SubsetChain, masks_disjoint_from, product_measure
from repro.graphs.base import Graph


class ExactBips(SubsetChain):
    """Exact subset-distribution evolution of BIPS on a small graph.

    Parameters
    ----------
    graph:
        A graph with at most
        :data:`~repro.exact.subsets.MAX_EXACT_VERTICES` vertices, none
        of them isolated.
    source:
        The persistent source vertex ``v``.
    branching:
        Sampling factor ``k`` (real, ``>= 1``).
    loss_probability:
        Independent per-contact loss (extension): each contact is
        thinned with this probability, scaling the per-draw hit
        probability to ``(1 - loss) d_A(u)/d(u)``.
    """

    def __init__(
        self,
        graph: Graph,
        source: int,
        *,
        branching: float = 2.0,
        loss_probability: float = 0.0,
    ) -> None:
        super().__init__(graph.n_vertices)
        self._graph = graph
        self._source = resolve_vertex(graph, source, role="source")
        self._mandatory, self._rho = validate_branching(branching)
        self._loss = validate_loss(loss_probability)
        reject_isolated_vertices(graph, "ExactBips")
        self._neighbor_masks = np.array(
            [sum(1 << int(v) for v in graph.neighbors(u)) for u in range(self._n)],
            dtype=np.int64,
        )
        self._degrees = graph.degrees.astype(np.float64)

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def source(self) -> int:
        """The persistent source vertex."""
        return self._source

    # ------------------------------------------------------------------
    # One-step machinery
    # ------------------------------------------------------------------

    def _infection_probabilities(self, masks: np.ndarray) -> np.ndarray:
        """``(len(masks), n)`` next-round infection probabilities."""
        overlap = self._popcount[self._neighbor_masks & masks[:, None]].astype(np.float64)
        hit_fraction = (1.0 - self._loss) * overlap / self._degrees
        miss = (1.0 - hit_fraction) ** self._mandatory
        if self._rho > 0.0:
            miss = miss * (1.0 - self._rho * hit_fraction)
        probabilities = 1.0 - miss
        probabilities[:, self._source] = 1.0
        return probabilities

    def infection_probabilities(self, mask: int) -> np.ndarray:
        """Per-vertex next-round infection probabilities given ``A_t = mask``.

        The source's entry is reported as 1 (it is always infected).
        """
        return self._infection_probabilities(np.array([mask], dtype=np.int64))[0]

    def _columns(self, masks: np.ndarray) -> np.ndarray:
        return product_measure(self._infection_probabilities(masks))

    def step_distribution(self, mask: int) -> np.ndarray:
        """Exact distribution of ``A_{t+1}`` given ``A_t = mask``."""
        return self._row(mask)

    # ------------------------------------------------------------------
    # Quantities of interest
    # ------------------------------------------------------------------

    def initial_distribution(self) -> np.ndarray:
        """Delta at ``A_0 = {v}``."""
        distribution = np.zeros(self._size, dtype=np.float64)
        distribution[1 << self._source] = 1.0
        return distribution

    def distribution_at(self, t: int) -> np.ndarray:
        """Exact law of ``A_t`` started from ``A_0 = {v}``."""
        return self.evolve(self.initial_distribution(), t)

    def disjoint_probability(self, subset_mask: int, t: int) -> float:
        """``P(C ∩ A_t = ∅ | A_0 = {v})`` for ``C`` given as a mask.

        This is the right-hand side of the paper's duality theorem.
        """
        distribution = self.distribution_at(t)
        selector = masks_disjoint_from(subset_mask, self._n)
        return float(distribution[selector].sum())

    def membership_probability(self, vertex: int, t: int) -> float:
        """``P(u ∈ A_t | A_0 = {v})``."""
        vertex = resolve_vertex(self._graph, vertex, role="queried")
        distribution = self.distribution_at(t)
        all_masks = np.arange(self._size, dtype=np.int64)
        selector = (all_masks >> vertex) & 1 == 1
        return float(distribution[selector].sum())

    def expected_size_series(self, t_max: int) -> np.ndarray:
        """``E|A_t|`` for ``t = 0 .. t_max`` started from the source delta."""
        sizes = self._popcount.astype(np.float64)
        series = np.empty(t_max + 1, dtype=np.float64)
        current = self.initial_distribution()
        series[0] = float((current * sizes).sum())
        for t in range(1, t_max + 1):
            current = self._advance(current)
            series[t] = float((current * sizes).sum())
        return series

    def infection_time_distribution(self, t_max: int) -> tuple[np.ndarray, float]:
        """First-passage law of ``infec(v)`` truncated at ``t_max``.

        Returns ``(pmf, tail)`` where ``pmf[t] = P(infec(v) = t)`` for
        ``t = 0 .. t_max`` and ``tail = P(infec(v) > t_max)``.  The
        full state is *not* absorbing in BIPS (infection can recede),
        so first passage is computed by removing mass as it first
        reaches the full mask.
        """
        full = self._size - 1
        pmf = np.zeros(t_max + 1, dtype=np.float64)
        current = self.initial_distribution()
        pmf[0] = float(current[full])
        current[full] = 0.0
        for t in range(1, t_max + 1):
            current = self._advance(current)
            pmf[t] = float(current[full])
            current[full] = 0.0
        return pmf, float(current.sum())

    def stationary_distribution(
        self, *, tolerance: float = 1e-12, t_cap: int = 100_000
    ) -> np.ndarray:
        """Stationary law of the BIPS chain.

        For a connected graph this is the point mass at the full set:
        once ``A_t = V``, every sample of every vertex hits an infected
        neighbour, so ``V`` is absorbing, and Theorem 2 guarantees it
        is reached.  The method power-iterates to that fixed point and
        is kept as an executable statement of the absorption property;
        the *interesting* transient structure is exposed by
        :meth:`quasi_stationary_distribution`.
        """
        current = self.initial_distribution()
        for _ in range(t_cap):
            next_distribution = self._advance(current)
            if float(np.abs(next_distribution - current).sum()) < tolerance:
                return next_distribution
            current = next_distribution
        raise RuntimeError(
            f"stationary distribution did not converge within {t_cap} steps"
        )

    def quasi_stationary_distribution(
        self, *, tolerance: float = 1e-12, t_cap: int = 100_000
    ) -> tuple[np.ndarray, float]:
        """Quasi-stationary law conditioned on not-yet-full infection.

        Power-iterates the sub-stochastic chain with the full state
        removed, renormalising each round.  Returns ``(qsd, theta)``
        where ``qsd`` is the limiting conditional law of ``A_t`` given
        ``infec(v) > t`` and ``theta`` is the per-round survival factor:
        ``P(infec(v) > t) ~ C·theta^t`` — the geometric tail rate the
        w.h.p. analysis (and experiment E11) measures.
        """
        full = self._size - 1
        current = self.initial_distribution()
        current[full] = 0.0
        total = float(current.sum())
        if total == 0.0:
            raise RuntimeError("the initial state is already fully infected")
        current /= total
        theta = 0.0
        for _ in range(t_cap):
            next_distribution = self._advance(current)
            next_distribution[full] = 0.0
            survival = float(next_distribution.sum())
            if survival <= 0.0:
                raise RuntimeError(
                    "absorption is certain in one round from every reachable "
                    "state; no quasi-stationary law exists (e.g. K2)"
                )
            next_distribution /= survival
            if (
                abs(survival - theta) < tolerance
                and float(np.abs(next_distribution - current).sum()) < tolerance
            ):
                return next_distribution, survival
            theta = survival
            current = next_distribution
        raise RuntimeError(
            f"quasi-stationary distribution did not converge within {t_cap} steps"
        )

    def quasi_stationary_mean_size(self, **kwargs) -> float:
        """Mean infected-set size under the quasi-stationary law.

        The "endemic level" of the transient phase: how much of the
        graph is typically infected while full infection has not yet
        occurred.
        """
        qsd, _ = self.quasi_stationary_distribution(**kwargs)
        sizes = self._popcount.astype(np.float64)
        return float((qsd * sizes).sum())

    def expected_infection_time(self, *, tolerance: float = 1e-12, t_cap: int = 10_000) -> float:
        """``E[infec(v)]`` by first-passage summation to the given tolerance."""
        full = self._size - 1
        current = self.initial_distribution()
        expectation = 0.0
        survival = 1.0 - float(current[full])
        current[full] = 0.0
        t = 0
        while survival > tolerance:
            t += 1
            if t > t_cap:
                raise RuntimeError(
                    f"expected infection time did not converge within {t_cap} steps "
                    f"(remaining mass {survival:.3e})"
                )
            current = self._advance(current)
            absorbed = float(current[full])
            expectation += t * absorbed
            survival -= absorbed
            current[full] = 0.0
        return expectation
