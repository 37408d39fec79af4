"""Bitmask subset algebra underlying the exact engines.

A subset ``S ⊆ {0, .., n-1}`` is the integer mask ``Σ_{u ∈ S} 2^u``;
a distribution over subsets is a length-``2^n`` float vector indexed by
mask, and one round of either process is a ``2^n × 2^n`` row-stochastic
step matrix.  Both step laws have closed forms:

* BIPS rows are product measures of per-vertex Bernoullis, expanded bit
  by bit by :func:`product_measure`;
* a COBRA row is the law of a union of independent random sets, so its
  zeta (subset-sum) transform ``Σ_{U ⊆ T} row[U]`` is a product of
  per-vertex factors, and :func:`mobius` inverts the transform with one
  pass per bit (Yates' algorithm, ``O(n·2^n)`` per row).  See
  Björklund, Husfeldt, Kaski & Koivisto, "Fourier meets Möbius: fast
  subset convolution" (STOC 2007).

:class:`SubsetChain` is the shared stepping frame: up to
:data:`MATRIX_LIMIT` vertices it materialises the step matrix once and
every round is one vector–matrix product; above it, the rows of the
masks that carry mass are built on demand by the same closed forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.errors import ExactEngineError

#: Hard ceiling on exact-engine graph sizes (2^n-state vectors).
MAX_EXACT_VERTICES = 16

#: Materialise the full step matrix up to this many vertices
#: (2^10 x 2^10 doubles = 8 MiB).
MATRIX_LIMIT = 10


def check_size(n_vertices: int, *, limit: int = MAX_EXACT_VERTICES) -> None:
    """Refuse graphs whose power set would not fit in memory/time."""
    if n_vertices > limit:
        raise ExactEngineError(
            f"exact engines enumerate 2^n subsets; n={n_vertices} exceeds the "
            f"limit of {limit} vertices"
        )


def mask_from_vertices(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex collection (duplicates are harmless)."""
    mask = 0
    for vertex in vertices:
        if vertex < 0:
            raise ValueError(f"vertex indices must be non-negative, got {vertex}")
        mask |= 1 << int(vertex)
    return mask


def vertices_from_mask(mask: int) -> list[int]:
    """Sorted vertex list encoded by ``mask``."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    vertices = []
    position = 0
    while mask:
        if mask & 1:
            vertices.append(position)
        mask >>= 1
        position += 1
    return vertices


@lru_cache(maxsize=32)
def popcount_table(n_bits: int) -> np.ndarray:
    """Popcounts of all masks ``0 .. 2^n_bits - 1`` (cached, read-only)."""
    check_size(n_bits)
    table = np.zeros(1, dtype=np.int64)
    for _ in range(n_bits):
        table = np.concatenate([table, table + 1])
    table.flags.writeable = False
    return table


def masks_disjoint_from(mask: int, n_bits: int) -> np.ndarray:
    """Boolean selector over all ``2^n_bits`` masks: disjoint from ``mask``."""
    all_masks = np.arange(1 << n_bits, dtype=np.int64)
    return (all_masks & mask) == 0


def masks_containing(vertex: int, n_bits: int) -> np.ndarray:
    """Boolean selector over all masks: those containing ``vertex``."""
    all_masks = np.arange(1 << n_bits, dtype=np.int64)
    return (all_masks >> vertex) & 1 == 1


def mobius(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Invert the subset-sum transform in place along the first axis.

    ``values[T, ...]`` holding ``Σ_{U ⊆ T} f(U)`` becomes ``f(T)``.
    ``values`` must be C-contiguous so the per-bit reshapes are views;
    along the first axis every pass works on contiguous blocks.
    """
    for bit in range(n_bits):
        view = values.reshape(-1, 2, values.size >> (n_bits - bit))
        view[:, 1] -= view[:, 0]
    return values


def product_measure(probabilities: np.ndarray) -> np.ndarray:
    """Joint laws of independent bits, one column per row of ``probabilities``.

    Column ``i`` of the ``(2^n, m)`` result is the law of the mask whose
    bit ``u`` is set independently with probability
    ``probabilities[i, u]``.  Each entry is the product of its ``n``
    factors taken in bit order.
    """
    m, n_bits = probabilities.shape
    law = np.empty((1 << n_bits, m), dtype=np.float64)
    law[0] = 1.0
    for bit in range(n_bits):
        half = 1 << bit
        p = probabilities[:, bit]
        np.multiply(law[:half], p, out=law[half : 2 * half])
        law[:half] *= 1.0 - p
    return law


class SubsetChain:
    """A Markov chain on the subsets of a small graph's vertices.

    Subclasses supply :meth:`_columns`, the closed-form step rows of a
    batch of masks laid out as columns, so the transforms expand along
    the leading, contiguous axis.  Up to :data:`MATRIX_LIMIT` vertices
    every row is built once and each round is one vector–matrix product;
    above it each round builds the rows of the masks that carry mass,
    8 MiB of them at a time.
    """

    def __init__(self, n_vertices: int) -> None:
        check_size(n_vertices)
        self._n = n_vertices
        self._size = 1 << n_vertices
        self._popcount = popcount_table(n_vertices)
        self._matrix: np.ndarray | None = None

    def _columns(self, masks: np.ndarray) -> np.ndarray:
        """A fresh ``(2^n, len(masks))`` array whose column ``i`` is the step row of ``masks[i]``.

        ``masks`` are distinct and increasing.
        """
        raise NotImplementedError

    def _step_matrix(self) -> np.ndarray:
        """The read-only ``2^n × 2^n`` step matrix, built on first use."""
        if self._matrix is None:
            matrix = self._columns(np.arange(self._size, dtype=np.int64)).T
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def _row(self, mask: int) -> np.ndarray:
        if self._n <= MATRIX_LIMIT:
            return self._step_matrix()[mask].copy()
        return self._columns(np.array([mask], dtype=np.int64))[:, 0]

    def _advance(self, vector: np.ndarray) -> np.ndarray:
        """One round of a (possibly defective) subset distribution."""
        if self._n <= MATRIX_LIMIT:
            return vector @ self._step_matrix()
        step = np.zeros(self._size, dtype=np.float64)
        masks = np.flatnonzero(vector)
        block = (1 << 20) // self._size
        for first in range(0, masks.size, block):
            chunk = masks[first : first + block]
            step += self._columns(chunk) @ vector[chunk]
        return step

    def evolve(self, distribution: np.ndarray, steps: int = 1) -> np.ndarray:
        """Evolve a subset distribution ``steps`` rounds forward."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        current = np.asarray(distribution, dtype=np.float64).copy()
        if current.shape != (self._size,):
            raise ValueError(
                f"distribution must have shape ({self._size},), got {current.shape}"
            )
        for _ in range(steps):
            current = self._advance(current)
        return current
