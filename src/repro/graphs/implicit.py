"""Implicit (materialisation-free) backends for structured graph families.

The structured families the scenarios sweep — hypercube, torus,
circulant — and the complete graph `K_n` have neighbourhoods that are
*computable*: the sorted neighbour row of any vertex follows from
arithmetic on its id, so there is no reason to hold a ``2m``-entry CSR
array in memory to sample from them.  The classes here subclass
:class:`~repro.graphs.base.Graph` but store **no adjacency arrays at
all**; memory does not grow with ``n`` (O(1), except the torus's
O(3^d·d) table of boundary-class rows, which depends only on its
dimension ``d``), which is what lets the scenario layer run these
families at n = 10^6–10^7, and what keeps E1's and E7's
complete graphs (``K_n`` up to n = 8192, where the CSR holds 537 MB of
indices) at the size of their ensemble state.

The one contract that matters: for the same seed, an implicit graph and
its materialised CSR twin produce **bit-identical sampling streams**.
:meth:`ImplicitGraph.sample_neighbors` performs the exact
``uniform_draws`` call of the CSR regular-degree fast path and reads the
drawn positions through :meth:`ImplicitGraph.neighbor_at` — the same
values the CSR gather would have read.  :class:`ImplicitComplete` reads
them in closed form, so no engine builds one of its ``n − 1``-entry
rows to sample from.  The property tests in
``tests/graphs/test_implicit.py`` pin this edge-for-edge and
draw-for-draw, and ``tests/core/test_implicit_engines.py`` engine by
engine.

Implicit graphs work with every engine that samples through the public
``Graph`` interface (process, batch, sparse, event).  They pickle to a
few bytes (the constructor arguments), so a pooled call ships one to
its workers at no cost whatever the graph's size.  Operations that
inherently need the CSR arrays (``indptr`` / ``indices`` /
``neighbor_matrix``, and with them the event engine's per-edge rates)
raise :class:`~repro.errors.GraphPropertyError` pointing at
:meth:`ImplicitGraph.materialize`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import GraphConstructionError, GraphPropertyError
from repro.graphs.base import Graph, uniform_draws

#: Row entries per chunk of a whole-graph walk (``edges``,
#: ``materialize``): large enough to amortise per-call overhead, small
#: enough that the per-chunk ``(chunk, r)`` row block stays a few MB
#: even at ``K_n``'s ``r = n − 1``.
_CHUNK_ENTRIES = 1 << 19


class ImplicitGraph(Graph):
    """A regular graph whose neighbour rows are computed, not stored.

    Subclasses implement :meth:`_rows` (the sorted ``(F, r)`` neighbour
    rows of a vertex batch) plus :meth:`analytic_lambda` and
    :meth:`_constructor_args`, and may override :meth:`_entries` with a
    closed form; everything else — sampling, degrees, edge iteration,
    materialisation, pickling, equality — is derived here.  The public
    reads (:meth:`neighbor_rows`, :meth:`neighbor_at`,
    :meth:`sample_neighbors`, :meth:`walk`, :meth:`neighborhoods`,
    :meth:`degree`, :meth:`neighbors`, :meth:`has_edge`) check their
    vertex ids once per call and raise :class:`IndexError` for an id
    outside ``[0, n)``, as a CSR graph's reads do; the subclass hooks
    compute from ids already checked.
    Instances are immutable and hold nothing that grows with ``n``:
    O(1), or O(3^d·d) for a ``d``-dimensional :class:`ImplicitTorus`.
    """

    __slots__ = ("_n",)

    def __init__(self, n_vertices: int, degree: int, name: str) -> None:
        if n_vertices < 1:
            raise GraphConstructionError(
                f"graph must have at least one vertex, got {n_vertices}"
            )
        self._n = int(n_vertices)
        self._name = name
        self._regular_degree = int(degree)
        self._neighbor_matrix = None

    # -- the subclass contract -----------------------------------------

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted neighbour rows of the int64 ids ``vertices``, ``(F, r)``.

        Row ``i`` must equal what ``indices[indptr[v]:indptr[v+1]]``
        would hold for ``v = vertices[i]`` in the materialised CSR —
        ascending, no duplicates.
        """
        raise NotImplementedError

    def _entries(self, vertices: np.ndarray, positions) -> np.ndarray:
        """Entry ``positions`` of each row of the int64 ids ``vertices``.

        This generic form computes one row per entry of ``vertices``; a
        subclass with a closed form for single entries overrides it.
        """
        rows = self._rows(vertices.reshape(-1))
        slots = np.arange(vertices.size).reshape(vertices.shape)
        return rows[slots, positions]

    # -- checked public reads --------------------------------------------

    def _checked(self, vertices) -> np.ndarray:
        """``vertices`` as int64 ids, or :class:`IndexError` if one is outside ``[0, n)``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._n):
            raise IndexError(
                f"vertex ids of {self._name} must lie in [0, {self._n}), got "
                f"{int(vertices.min())}..{int(vertices.max())}"
            )
        return vertices

    def neighbor_rows(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted neighbour rows of ``vertices`` as an ``(F, r)`` array."""
        return self._rows(self._checked(vertices))

    def neighbor_at(self, vertices, positions) -> np.ndarray:
        """Entry ``positions`` of each vertex's sorted neighbour row.

        The contract of :meth:`repro.graphs.base.Graph.neighbor_at`.
        """
        return self._entries(self._checked(vertices), positions)

    def analytic_lambda(self) -> float:
        """Closed-form ``max(|λ_2|, |λ_n|)`` of the transition matrix.

        :func:`repro.graphs.spectral.lambda_second` dispatches here in
        ``auto`` mode, since an eigensolve would require the CSR.
        """
        raise NotImplementedError

    def _constructor_args(self) -> tuple:
        """Arguments that rebuild this graph (pickling and equality)."""
        raise NotImplementedError

    # -- core accessors (CSR-free) -------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return self._n * self._regular_degree // 2

    def _no_csr(self, what: str) -> GraphPropertyError:
        return GraphPropertyError(
            f"implicit graph {self._name!r} stores no CSR arrays; call "
            f".materialize() for a concrete Graph before using {what}"
        )

    @property
    def indptr(self) -> np.ndarray:
        raise self._no_csr("indptr")

    @property
    def indices(self) -> np.ndarray:
        raise self._no_csr("indices")

    @property
    def neighbor_matrix(self) -> np.ndarray:
        raise self._no_csr("neighbor_matrix")

    @property
    def degrees(self) -> np.ndarray:
        # A zero-memory constant vector: broadcast_to allocates nothing.
        return np.broadcast_to(np.int64(self._regular_degree), (self._n,))

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self._regular_degree

    @property
    def min_degree(self) -> int:
        return self._regular_degree

    @property
    def max_degree(self) -> int:
        return self._regular_degree

    def neighbors(self, u: int) -> np.ndarray:
        row = self.neighbor_rows([u])[0]
        row.flags.writeable = False
        return row

    def _vertex_chunks(self) -> Iterator[np.ndarray]:
        """Consecutive vertex blocks of about :data:`_CHUNK_ENTRIES` row entries."""
        step = max(1, _CHUNK_ENTRIES // max(self._regular_degree, 1))
        for base in range(0, self._n, step):
            yield np.arange(base, min(base + step, self._n), dtype=np.int64)

    def edges(self) -> Iterator[tuple[int, int]]:
        for block in self._vertex_chunks():
            rows = self._rows(block)
            sources = np.broadcast_to(block[:, None], rows.shape)
            keep = sources < rows
            for u, v in zip(sources[keep], rows[keep]):
                yield (int(u), int(v))

    # -- sampling (bit-identical to the CSR fast path) ------------------

    def sample_neighbors(
        self,
        vertices: np.ndarray,
        samples_per_vertex: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if samples_per_vertex < 1:
            raise ValueError(
                f"samples_per_vertex must be >= 1, got {samples_per_vertex}"
            )
        return self._sample(self._checked(vertices), samples_per_vertex, rng)

    def _sample(
        self, vertices: np.ndarray, samples_per_vertex: int, rng: np.random.Generator
    ) -> np.ndarray:
        if vertices.size == 0:
            return np.empty((0, samples_per_vertex), dtype=np.int64)
        # The same draw the CSR fast path makes; ``_entries`` reads the
        # values the flat ``indices`` gather would have.
        r = self._regular_degree
        positions = uniform_draws(rng, r, vertices.size, samples_per_vertex)
        return self._entries(vertices[:, None], positions)

    def walk(
        self, vertices: np.ndarray, rounds: int, rng: np.random.Generator
    ) -> np.ndarray:
        # No ``indices`` to gather from: every round is one draw of
        # ``sample_neighbors``, whose later rounds start from ids the
        # graph computed itself, so only the starts are checked.
        vertices = self._checked(vertices)
        trajectory = np.empty((rounds, vertices.size), dtype=np.int64)
        for row in trajectory:
            row[...] = self._sample(vertices, 1, rng)[:, 0]
            vertices = row
        return trajectory

    def neighborhoods(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vertices = self._checked(vertices)
        counts = np.full(vertices.size, self._regular_degree, dtype=np.int64)
        flat = self._rows(vertices).reshape(-1)
        return counts, flat

    # -- materialisation ------------------------------------------------

    def materialize(self) -> Graph:
        """Build the concrete CSR :class:`Graph` this instance describes.

        The rows are valid by construction, so the result adopts them
        without re-validation; it compares equal (``==``) to the
        corresponding generator output.
        """
        r = self._regular_degree
        indices = np.empty(self._n * r, dtype=np.int64)
        for block in self._vertex_chunks():
            base = int(block[0])
            indices[base * r : (base + block.size) * r] = self._rows(block).reshape(-1)
        indptr = np.arange(self._n + 1, dtype=np.int64) * r
        return Graph.adopt_validated_csr(indptr, indices, name=self._name)

    # -- identity -------------------------------------------------------

    def __reduce__(self):
        return (type(self), self._constructor_args())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._name!r}, n={self.n_vertices}, "
            f"m={self.n_edges}, r={self._regular_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImplicitGraph):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._constructor_args() == other._constructor_args()
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._constructor_args()))


class ImplicitHypercube(ImplicitGraph):
    """Binary hypercube `Q_d` with computed neighbourhoods."""

    __slots__ = ("_dimension",)

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise GraphConstructionError(
                f"hypercube needs dimension >= 1, got {dimension}"
            )
        self._dimension = int(dimension)
        super().__init__(1 << dimension, dimension, f"hypercube(d={dimension})")

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        bits = np.int64(1) << np.arange(self._dimension, dtype=np.int64)
        rows = vertices[:, None] ^ bits
        rows.sort(axis=1)
        return rows

    def analytic_lambda(self) -> float:
        from repro.graphs.spectral import analytic_lambda

        return analytic_lambda("hypercube", dimension=self._dimension)

    def _constructor_args(self) -> tuple:
        return (self._dimension,)


class ImplicitTorus(ImplicitGraph):
    """Discrete torus `Z_{L1} x ... x Z_{Ld}` with computed neighbourhoods.

    A vertex's row depends on its id only through its *boundary class*:
    whether each coordinate is 0, ``side − 1`` or in between decides
    whether that axis's two steps wrap.  The constructor stores the
    sorted offset row of each of the ``3^d`` classes, a ``3^d × 2d``
    int64 table that depends on ``d`` only (at most the CSR's ``2d·n``
    entries, reached when every side is 3), so a row is
    ``offsets[class(u)] + u`` and a single entry one read of the same
    table: no row is sorted after construction.
    """

    __slots__ = ("_sides", "_offsets")

    def __init__(self, side_lengths: Sequence[int]) -> None:
        sides = tuple(int(side) for side in side_lengths)
        if not sides:
            raise GraphConstructionError("torus needs at least one dimension")
        if any(side < 3 for side in sides):
            raise GraphConstructionError(
                f"torus side lengths must be >= 3, got {sides}"
            )
        self._sides = sides
        strides = np.cumprod((1,) + sides[:0:-1])[::-1]
        # One vertex per boundary class (coordinate 0, 1 or side − 1 on
        # every axis) and its row's steps, sorted.
        grids = np.meshgrid(*([0, 1, side - 1] for side in sides), indexing="ij")
        corners = np.stack([grid.reshape(-1) for grid in grids], axis=1).astype(np.int64)
        steps = np.empty((corners.shape[0], 2 * len(sides)), dtype=np.int64)
        for axis, (side, stride) in enumerate(zip(sides, strides)):
            coord = corners[:, axis]
            steps[:, 2 * axis] = ((coord + 1) % side - coord) * stride
            steps[:, 2 * axis + 1] = ((coord - 1) % side - coord) * stride
        steps.sort(axis=1)
        offsets = np.empty_like(steps)
        offsets[self._boundary_classes(corners @ strides)] = steps
        offsets.flags.writeable = False
        self._offsets = offsets
        n = int(np.prod(sides))
        super().__init__(n, 2 * len(sides), f"torus(sides={sides})")

    def _boundary_classes(self, vertices: np.ndarray) -> np.ndarray:
        """Row index into the offset table of each vertex id.

        One base-3 digit per axis: 0 at coordinate 0, 1 in between and 2
        at ``side − 1``.
        """
        classes = np.zeros(np.shape(vertices), dtype=np.int64)
        rest = vertices
        for side in reversed(self._sides):
            rest, coord = np.divmod(rest, side)
            classes *= 3
            classes += coord > 0
            classes += coord == side - 1
        return classes

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        rows = self._offsets[self._boundary_classes(vertices)]
        rows += vertices[:, None]
        return rows

    def _entries(self, vertices: np.ndarray, positions) -> np.ndarray:
        entries = self._offsets[self._boundary_classes(vertices), positions]
        entries += vertices
        return entries

    def analytic_lambda(self) -> float:
        from repro.graphs.spectral import analytic_lambda

        return analytic_lambda("torus", side_lengths=self._sides)

    def _constructor_args(self) -> tuple:
        return (self._sides,)


class ImplicitCirculant(ImplicitGraph):
    """Circulant graph `C_n(s1, ..., sj)` with computed neighbourhoods."""

    __slots__ = ("_offsets", "_deltas")

    def __init__(self, n: int, offsets: Sequence[int]) -> None:
        if n < 3:
            raise GraphConstructionError(f"circulant needs n >= 3, got {n}")
        cleaned = sorted({int(s) for s in offsets})
        if not cleaned:
            raise GraphConstructionError("circulant needs at least one offset")
        if cleaned[0] < 1 or cleaned[-1] > n // 2:
            raise GraphConstructionError(
                f"offsets must lie in [1, n//2]={n // 2}, got {cleaned}"
            )
        self._offsets = tuple(cleaned)
        deltas = np.asarray(
            sorted({s for offset in cleaned for s in (offset, n - offset)}),
            dtype=np.int64,
        )
        deltas.flags.writeable = False
        self._deltas = deltas
        name = f"circulant(n={n}, offsets={tuple(cleaned)})"
        super().__init__(n, deltas.size, name)

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        rows = (vertices[:, None] + self._deltas) % self._n
        rows.sort(axis=1)
        return rows

    def analytic_lambda(self) -> float:
        from repro.graphs.spectral import analytic_lambda

        return analytic_lambda("circulant", n=self._n, offsets=self._offsets)

    def _constructor_args(self) -> tuple:
        return (self._n, self._offsets)


class ImplicitComplete(ImplicitGraph):
    """Complete graph `K_n` with closed-form neighbourhoods.

    Row ``v`` lists every other vertex in ascending order, so its
    ``j``-th entry is ``j + (j >= v)``.  :meth:`neighbor_at` reads drawn
    positions that way, so sampling, the single-token walk and the
    event engine's contact draws cost O(1) per draw and never build a
    row; :func:`~repro.graphs.generators.complete` stores the same rows
    as ``n(n − 1)`` indices.  Whole rows (``neighbors``,
    ``neighborhoods``, BIPS's infected-neighbour counts) cost what
    their CSR reads cost.
    """

    __slots__ = ()

    def __init__(self, n: int) -> None:
        if n < 2:
            raise GraphConstructionError(f"complete graph needs n >= 2, got {n}")
        super().__init__(n, n - 1, f"complete(n={n})")

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        positions = np.arange(self._n - 1, dtype=np.int64)
        return self._entries(vertices[:, None], positions)

    def _entries(self, vertices: np.ndarray, positions) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        return positions + (positions >= vertices)

    def analytic_lambda(self) -> float:
        from repro.graphs.spectral import analytic_lambda

        return analytic_lambda("complete", n=self._n)

    def _constructor_args(self) -> tuple:
        return (self._n,)
