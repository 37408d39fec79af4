"""The immutable CSR :class:`Graph` type used throughout the library.

Design notes
------------
The COBRA/BIPS simulators spend essentially all their time drawing
uniform random neighbours for large batches of vertices.  A compressed
sparse row (CSR) layout supports this with two NumPy gathers and no
Python-level loops:

* ``indptr`` — ``int64`` array of length ``n + 1``; the neighbours of
  vertex ``u`` are ``indices[indptr[u]:indptr[u + 1]]``.
* ``indices`` — array of length ``2m`` (each undirected edge appears
  in both endpoint rows), sorted within each row; stored as ``int64``
  by default, or ``int32`` when a caller opts in via ``index_dtype``
  and every vertex id fits (sampling outputs stay ``int64`` either
  way).

Graphs are **simple** (no self-loops, no parallel edges) and
**undirected**; the constructor validates both, once, so every other
routine can assume a well-formed structure.  Instances are immutable:
the arrays are marked read-only and all derived attributes are cached.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphConstructionError, GraphPropertyError

#: Accepted values for the ``index_dtype`` construction option.
INDEX_DTYPES = ("int64", "int32", "auto")


def resolve_index_dtype(index_dtype: str, n_vertices: int) -> np.dtype:
    """Map an ``index_dtype`` option to the storage dtype for ``indices``.

    ``"int64"`` (the default) keeps the historical layout.  ``"int32"``
    opts into half-width column indices — legal whenever every vertex id
    fits, i.e. ``n <= 2**31`` — which halves the resident CSR (and any
    :class:`~repro.parallel.SharedGraph` segment) at million-vertex
    scale.  ``"auto"`` picks ``int32`` when it fits and ``int64``
    otherwise.  Only the *storage* narrows: ``indptr`` stays ``int64``
    and every sampling routine still returns ``int64`` arrays, so no
    public dtype contract changes.
    """
    if index_dtype not in INDEX_DTYPES:
        raise GraphConstructionError(
            f"index_dtype must be one of {INDEX_DTYPES}, got {index_dtype!r}"
        )
    fits = n_vertices - 1 <= np.iinfo(np.int32).max
    if index_dtype == "int32":
        if not fits:
            raise GraphConstructionError(
                f"index_dtype='int32' cannot address {n_vertices} vertices"
            )
        return np.dtype(np.int32)
    if index_dtype == "auto" and fits:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


#: Bit generators whose ``random_raw`` output is exactly the 64-bit word
#: ``Generator.integers(0, 2**64, dtype=uint64)`` returns, read without
#: the bounded-integer call's per-call overhead.  MT19937 is absent: its
#: raw output is 32-bit.
_RAW_WORD_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.Philox,
    np.random.SFC64,
)

#: ``_SHIFTS[bits - 1]`` slices a 64-bit word into ``64 // bits`` draws
#: of ``bits`` bits each.
_SHIFTS = tuple(
    np.arange(64 // bits, dtype=np.uint64) * np.uint64(bits) for bits in range(1, 64)
)


def uniform_draws(
    rng: np.random.Generator, bound: int, count: int, width: int
) -> np.ndarray:
    """``(count, width)`` independent uniform int64 draws from ``[0, bound)``.

    The one shared implementation behind every neighbour-sampling fast
    path (sequential and batched), so all engines consume identical
    streams for identical requests.  For power-of-two bounds — the
    regular expander degrees 4, 8, 16, ... — draws are *bit-sliced* out
    of full 64-bit random words (one word yields ``64 // log2(bound)``
    exact draws), several times cheaper than per-draw bounded rejection
    sampling; the words come straight from the bit generator where its
    raw output is the same word.  Other bounds use the generator's
    bounded-integer path.
    """
    if bound & (bound - 1) == 0:
        bits = bound.bit_length() - 1
        if bits == 0:
            return np.zeros((count, width), dtype=np.int64)
        shifts = _SHIFTS[bits - 1]
        total = count * width
        n_words = -(-total // shifts.size)
        bit_generator = rng.bit_generator
        if type(bit_generator) in _RAW_WORD_GENERATORS:
            words = bit_generator.random_raw(n_words)
        else:
            words = rng.integers(0, 2**64, size=n_words, dtype=np.uint64)
        draws = words[:, None] >> shifts
        draws &= np.uint64(bound - 1)
        return draws.view(np.int64).ravel()[:total].reshape(count, width)
    return rng.integers(0, bound, size=(count, width))


class Graph:
    """An immutable simple undirected graph in CSR form.

    Vertices are the integers ``0 .. n_vertices - 1``.  Construct
    instances through the classmethods (:meth:`from_adjacency_lists`) or
    the helpers in :mod:`repro.graphs.build` and
    :mod:`repro.graphs.generators` rather than from raw arrays.

    Parameters
    ----------
    indptr:
        CSR row-pointer array, length ``n + 1``.
    indices:
        CSR column-index array, length ``2m``.
    name:
        Human-readable provenance label, e.g. ``"random_regular(n=100, r=4)"``.
    validate:
        When true (the default), check simplicity, symmetry, and index
        bounds; ``False`` is reserved for internal callers that have
        already validated.
    index_dtype:
        Storage dtype policy for ``indices`` — ``"int64"`` (default),
        ``"int32"``, or ``"auto"``; see :func:`resolve_index_dtype`.
        Sampling outputs are ``int64`` regardless.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_name",
        "_degrees",
        "_regular_degree",
        "_neighbor_matrix",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        name: str = "graph",
        validate: bool = True,
        index_dtype: str = "int64",
    ) -> None:
        # Copy unconditionally: validation sorts rows in place and the
        # arrays are frozen afterwards, neither of which may leak back
        # into caller-owned buffers.
        indptr = np.array(indptr, dtype=np.int64, copy=True)
        storage = resolve_index_dtype(index_dtype, max(indptr.size - 1, 0))
        indices = np.array(indices, dtype=storage, copy=True)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphConstructionError("indptr and indices must be 1-D arrays")
        if indptr.size < 2:
            raise GraphConstructionError("graph must have at least one vertex")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphConstructionError(
                f"indptr must start at 0 and end at len(indices)={indices.size}; "
                f"got [{indptr[0]}, {indptr[-1]}]"
            )
        self._indptr = indptr
        self._indices = indices
        self._name = name
        self._degrees = np.diff(indptr)
        degrees = self._degrees
        self._regular_degree: Optional[int] = (
            int(degrees[0]) if degrees.size and np.all(degrees == degrees[0]) else None
        )
        self._neighbor_matrix: Optional[np.ndarray] = None
        if validate:
            self._validate()
        self._indptr.flags.writeable = False
        self._indices.flags.writeable = False
        self._degrees.flags.writeable = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_adjacency_lists(
        cls, neighbors: Sequence[Sequence[int]], *, name: str = "graph"
    ) -> "Graph":
        """Build a graph from per-vertex neighbour lists.

        ``neighbors[u]`` must list the neighbours of ``u``; the lists
        must collectively be symmetric (``v in neighbors[u]`` iff
        ``u in neighbors[v]``).
        """
        counts = np.fromiter((len(row) for row in neighbors), dtype=np.int64, count=len(neighbors))
        indptr = np.zeros(len(neighbors) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        flat: list[int] = []
        for row in neighbors:
            flat.extend(sorted(row))
        indices = np.asarray(flat, dtype=np.int64)
        return cls(indptr, indices, name=name)

    @classmethod
    def adopt_validated_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, *, name: str = "graph"
    ) -> "Graph":
        """Wrap pre-validated CSR arrays *without copying them*.

        The zero-copy constructor used by
        :class:`repro.parallel.SharedGraph` to rebuild a graph around
        shared-memory buffers in worker processes.  The caller
        certifies the arrays describe a simple undirected graph with
        sorted rows (i.e. they came out of a validated :class:`Graph`);
        nothing is checked beyond the basic indptr frame, and the views
        are frozen in place.  ``indptr`` must be ``int64``; ``indices``
        may be ``int64`` or ``int32`` (e.g. a narrow graph or a
        memory-mapped CSR) and keeps its dtype without copying.  The
        arrays must be C-contiguous; buffers they borrow (e.g. a
        ``multiprocessing.shared_memory`` segment or an ``np.memmap``)
        must outlive the graph.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices)
        if indices.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            indices = indices.astype(np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphConstructionError("indptr and indices must be 1-D arrays")
        if indptr.size < 2 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphConstructionError(
                f"indptr must start at 0 and end at len(indices)={indices.size}"
            )
        graph = cls.__new__(cls)
        graph._indptr = indptr
        graph._indices = indices
        graph._name = name
        graph._degrees = np.diff(indptr)
        degrees = graph._degrees
        graph._regular_degree = (
            int(degrees[0]) if degrees.size and np.all(degrees == degrees[0]) else None
        )
        graph._neighbor_matrix = None
        graph._indptr.flags.writeable = False
        graph._indices.flags.writeable = False
        graph._degrees.flags.writeable = False
        return graph

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = self.n_vertices
        indices = self._indices
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphConstructionError(
                f"neighbour index out of range [0, {n}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        indptr = self._indptr
        if np.any(np.diff(indptr) < 0):
            raise GraphConstructionError("indptr must be non-decreasing")
        # Sort rows in place before freezing so has_edge can binary-search.
        # One global stable sort on (row, value) keys replaces the old
        # per-row Python loop, which dominated construction at n >= 1e5:
        # rows are already contiguous and in order, so sorting the
        # composite key sorts within each row without crossing rows.
        sources = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
        forward = sources * n + indices
        forward.sort(kind="stable")
        indices[:] = forward - sources * n
        self_loops = np.flatnonzero(indices == sources)
        if self_loops.size:
            u = int(sources[self_loops[0]])
            raise GraphConstructionError(f"vertex {u} has a self-loop")
        duplicates = np.flatnonzero(forward[1:] == forward[:-1])
        if duplicates.size:
            u = int(sources[duplicates[0]])
            raise GraphConstructionError(f"vertex {u} has a duplicate (parallel) edge")
        # Symmetry: the multiset of directed edges must equal its reverse.
        backward = indices.astype(np.int64) * n + sources
        backward.sort()
        if not np.array_equal(forward, backward):
            raise GraphConstructionError("adjacency is not symmetric (graph must be undirected)")

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Provenance label assigned at construction."""
        return self._name

    @property
    def n_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._indptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._indices.size // 2

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only view), sorted within rows."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Array of vertex degrees (read-only view)."""
        return self._degrees

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return int(self._degrees[u])

    @property
    def min_degree(self) -> int:
        """Smallest vertex degree."""
        return int(self._degrees.min())

    @property
    def max_degree(self) -> int:
        """Largest vertex degree."""
        return int(self._degrees.max())

    @property
    def is_regular(self) -> bool:
        """Whether every vertex has the same degree."""
        return self._regular_degree is not None

    @property
    def regular_degree(self) -> int:
        """The common degree ``r`` of a regular graph.

        Raises
        ------
        GraphPropertyError
            If the graph is not regular.
        """
        if self._regular_degree is None:
            raise GraphPropertyError(
                f"graph {self._name!r} is not regular "
                f"(degrees range {self.min_degree}..{self.max_degree})"
            )
        return self._regular_degree

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbours of ``u`` as a read-only array view."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        row = self.neighbors(u)
        position = int(np.searchsorted(row, v))
        return position < row.size and int(row[position]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    @property
    def neighbor_matrix(self) -> np.ndarray:
        """For a regular graph, the ``(n, r)`` matrix of neighbour lists.

        This reshaped view of ``indices`` lets samplers draw uniform
        neighbours for every vertex with a single fancy index.

        Raises
        ------
        GraphPropertyError
            If the graph is not regular.
        """
        if self._neighbor_matrix is None:
            r = self.regular_degree
            matrix = self._indices.reshape(self.n_vertices, r)
            matrix.flags.writeable = False
            self._neighbor_matrix = matrix
        return self._neighbor_matrix

    # ------------------------------------------------------------------
    # Vectorised neighbour sampling (the simulators' hot path)
    # ------------------------------------------------------------------

    def sample_neighbors(
        self,
        vertices: np.ndarray,
        samples_per_vertex: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw uniform random neighbours, with replacement, per vertex.

        Parameters
        ----------
        vertices:
            Integer array of shape ``(m,)`` of vertices to sample for.
            Vertices may repeat; each occurrence samples independently.
        samples_per_vertex:
            Number ``k`` of independent draws per listed vertex.
        rng:
            NumPy generator supplying the randomness.

        Returns
        -------
        numpy.ndarray
            Shape ``(m, k)``; entry ``[i, j]`` is the ``j``-th uniform
            neighbour drawn for ``vertices[i]``.
        """
        if samples_per_vertex < 1:
            raise ValueError(f"samples_per_vertex must be >= 1, got {samples_per_vertex}")
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty((0, samples_per_vertex), dtype=np.int64)
        r = self._regular_degree
        if r is not None and r > 0:
            # Degree-regular fast path (every expander workload): row
            # ``u`` starts at ``u * r``, so one integer draw per slot
            # addresses ``indices`` directly — no degree gather, no
            # float multiply.
            positions = uniform_draws(rng, r, vertices.size, samples_per_vertex)
            positions += (vertices * r)[:, None]
            return self._indices[positions].astype(np.int64, copy=False)
        degrees = self._degrees[vertices]
        if np.any(degrees == 0):
            bad = int(vertices[np.argmax(degrees == 0)])
            raise GraphPropertyError(f"cannot sample a neighbour of isolated vertex {bad}")
        offsets = self._indptr[vertices]
        draws = rng.random((vertices.size, samples_per_vertex))
        positions = offsets[:, None] + (draws * degrees[:, None]).astype(np.int64)
        return self._indices[positions].astype(np.int64, copy=False)

    def sample_distinct_neighbors(
        self, vertices: np.ndarray, samples_per_vertex: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw uniform random neighbours *without* replacement, per vertex.

        Each listed vertex receives a uniformly random ``k``-subset of
        its neighbourhood (as ``k`` columns in arbitrary order).  All
        queried vertices must have degree at least ``k``.

        Implementation: random keys per (vertex, neighbour-slot) with
        out-of-degree slots masked to +inf, then ``argpartition`` keeps
        the ``k`` smallest keys — a uniformly random ``k``-subset — in
        O(m · max_degree) time.

        Returns
        -------
        numpy.ndarray
            Shape ``(m, k)`` of distinct neighbours per row.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = samples_per_vertex
        if k < 1:
            raise ValueError(f"samples_per_vertex must be >= 1, got {k}")
        if vertices.size == 0:
            return np.empty((0, k), dtype=np.int64)
        degrees = self._degrees[vertices]
        if np.any(degrees < k):
            bad = int(vertices[np.argmax(degrees < k)])
            raise GraphPropertyError(
                f"vertex {bad} has degree {self.degree(bad)} < k={k}; "
                "cannot sample that many distinct neighbours"
            )
        if k == 1:
            return self.sample_neighbors(vertices, 1, rng)
        width = int(degrees.max())
        keys = rng.random((vertices.size, width))
        slot_index = np.arange(width)[None, :]
        keys[slot_index >= degrees[:, None]] = np.inf
        chosen_slots = np.argpartition(keys, k - 1, axis=1)[:, :k]
        positions = self._indptr[vertices][:, None] + chosen_slots
        return self._indices[positions].astype(np.int64, copy=False)

    def neighborhoods(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbour rows of ``vertices`` (vectorised).

        Returns ``(counts, flat)`` where ``counts[i]`` is the degree of
        ``vertices[i]`` and ``flat`` is the concatenation of the sorted
        neighbour rows in query order (``counts.sum()`` entries).  The
        sparse-frontier BIPS kernel uses this to expand the armed set
        ``frontier ∪ N(frontier)`` in time proportional to the frontier
        volume rather than ``n``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        counts = self._degrees[vertices].astype(np.int64, copy=False)
        if vertices.size == 0:
            return counts, np.empty(0, dtype=np.int64)
        starts = self._indptr[vertices]
        row_ends = np.cumsum(counts)
        within = np.arange(row_ends[-1], dtype=np.int64) - np.repeat(
            row_ends - counts, counts
        )
        flat = self._indices[np.repeat(starts, counts) + within]
        return counts, flat.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        shape = f"n={self.n_vertices}, m={self.n_edges}"
        if self.is_regular:
            shape += f", r={self._regular_degree}"
        return f"Graph({self._name!r}, {shape})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if not hasattr(other, "_indptr"):  # CSR-less subclass (implicit graphs)
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))
