"""The immutable CSR :class:`Graph` type used throughout the library.

Design notes
------------
The COBRA/BIPS simulators spend essentially all their time drawing
uniform random neighbours for large batches of vertices.  A compressed
sparse row (CSR) layout supports this with two NumPy gathers and no
Python-level loops:

* ``indptr`` — ``int64`` array of length ``n + 1``; the neighbours of
  vertex ``u`` are ``indices[indptr[u]:indptr[u + 1]]``.
* ``indices`` — ``int64`` array of length ``2m`` (each undirected
  edge appears in both endpoint rows), sorted within each row.  Only a
  memory-mapped graph (:func:`repro.graphs.io.load_graph_memmap`)
  holds ``int32`` indices, written when every vertex id fits; sampling
  outputs are ``int64`` either way.

Graphs are **simple** (no self-loops, no parallel edges) and
**undirected**; the constructor validates both, once, so every other
routine can assume a well-formed structure.  Instances are immutable:
the arrays are marked read-only and all derived attributes are cached.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import GraphConstructionError, GraphPropertyError

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
    :mod:`repro.graphs.generators` rather than from raw arrays.  The
    constructor checks simplicity, symmetry and index bounds and stores
    ``indices`` as ``int64``.

    Parameters
    ----------
    indptr:
        CSR row-pointer array, length ``n + 1``.
    indices:
        CSR column-index array, length ``2m``.
    name:
        Human-readable provenance label, e.g. ``"random_regular(n=100, r=4)"``.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_name",
        "_degrees",
        "_regular_degree",
        "_neighbor_matrix",
        "_walk_table",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, name: str = "graph") -> None:
        # Copy unconditionally: validation sorts rows in place and the
        # arrays are frozen afterwards, neither of which may leak back
        # into caller-owned buffers.
        indptr = np.array(indptr, dtype=np.int64, copy=True)
        indices = np.array(indices, dtype=np.int64, copy=True)
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
        self._walk_table: Optional[np.ndarray] = None
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

        The zero-copy constructor behind
        :func:`~repro.graphs.io.load_graph_memmap`, the implicit graphs'
        ``materialize`` and the generators whose arrays are valid by
        construction.  The caller certifies the arrays describe a
        simple undirected graph with sorted rows; nothing is checked
        beyond the basic indptr frame, and the views are frozen in
        place.  ``indptr`` must be ``int64``; ``indices`` may be
        ``int64`` or ``int32`` (a memory-mapped CSR stores ``int32``
        when every id fits) and keeps its dtype without copying.  The
        arrays must be C-contiguous; a buffer they borrow (e.g. an
        ``np.memmap``) must outlive the graph.
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
        graph._walk_table = None
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
        backward = indices * n + sources
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
        """Degree of vertex ``u``; :class:`IndexError` outside ``[0, n)``."""
        self._check_vertex(u)
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
        """Sorted neighbours of ``u`` as a read-only array view.

        A ``u`` outside ``[0, n)`` raises :class:`IndexError`: NumPy
        would read a negative id from the end of ``indptr``.
        """
        self._check_vertex(u)
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def neighbor_at(self, vertices, positions) -> np.ndarray:
        """Entry ``positions`` of each vertex's sorted neighbour row, as int64.

        ``vertices`` and ``positions`` broadcast against each other: one
        vertex against a vector of positions, or ``vertices[:, None]``
        against an ``(m, k)`` block.  Every position must lie in ``[0,
        degree)``.  Drawing a uniform position and reading it here is
        the neighbour draw of every engine: the event engine's contacts
        call it, the CSR sampling paths inline the same gather, and
        implicit graphs compute it (:class:`~repro.graphs.implicit.ImplicitComplete`
        in closed form).
        """
        starts = self._indptr[vertices]
        return self._indices[starts + positions].astype(np.int64, copy=False)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present.

        An endpoint outside ``[0, n)`` raises :class:`IndexError`.
        """
        self._check_vertex(v)
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

        Raises
        ------
        IndexError
            If a vertex lies outside ``[0, n)``.
        """
        if samples_per_vertex < 1:
            raise ValueError(f"samples_per_vertex must be >= 1, got {samples_per_vertex}")
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty((0, samples_per_vertex), dtype=np.int64)
        self._reject_negative(vertices)
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

    def walk(
        self, vertices: np.ndarray, rounds: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance one simple random walk per listed vertex ``rounds`` steps.

        Returns the ``(rounds, m)`` int64 trajectory: row ``t`` holds the
        walkers' positions after ``t + 1`` steps.  The trajectory, and
        the state ``rng`` is left in, equal those of ``rounds`` chained
        ``sample_neighbors(current, 1, rng)[:, 0]`` calls.  Every vertex
        must lie in ``[0, n)``.

        On a degree-regular CSR graph whose degree ``r`` is a power of
        two, one :func:`uniform_draws` call draws every round's picks:
        each row is padded to whole 64-bit words, so every round starts
        on a fresh word as a separate request would.  The walkers then
        move through a table whose entry ``j`` is ``indices[j] <<
        log2(r)``, the row start of the vertex ``indices[j]`` names, so
        a step is one add and one gather, and the trajectory is shifted
        back to vertex ids once at the end.  The table (``n·r`` int64,
        twice the bytes of ``int32`` storage) is built on the first such
        walk and kept, one copy per process.  Every other graph chains
        :meth:`sample_neighbors`.

        Raises
        ------
        IndexError
            If a vertex lies outside ``[0, n)``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self.n_vertices):
            raise IndexError(
                f"walk start vertices must lie in [0, {self.n_vertices}), got "
                f"{int(vertices.min())}..{int(vertices.max())}"
            )
        r = self._regular_degree
        if r is None or r < 2 or r & (r - 1):
            return self._chained_walk(vertices, rounds, rng)
        bits = r.bit_length() - 1
        per_word = 64 // bits
        width = -(-vertices.size // per_word) * per_word
        steps = uniform_draws(rng, r, rounds, width)[:, : vertices.size]
        if self._walk_table is None:
            table = self._indices.astype(np.int64)
            table <<= bits
            table.flags.writeable = False
            self._walk_table = table
        table = self._walk_table
        trajectory = np.empty((rounds, vertices.size), dtype=np.int64)
        offset = np.empty(vertices.size, dtype=np.int64)
        position = vertices << bits
        for step, row in zip(steps, trajectory):
            np.add(position, step, out=offset)
            # The starts are checked above and every later offset is a
            # row start plus a step below r, so each lies in the table;
            # "clip" skips the buffered copy numpy makes for ``out=``
            # under the default bounds check.
            table.take(offset, out=row, mode="clip")
            position = row
        trajectory >>= bits
        return trajectory

    def _chained_walk(
        self, vertices: np.ndarray, rounds: int, rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`walk` by one :meth:`sample_neighbors` call per round."""
        trajectory = np.empty((rounds, vertices.size), dtype=np.int64)
        for row in trajectory:
            row[...] = self.sample_neighbors(vertices, 1, rng)[:, 0]
            vertices = row
        return trajectory

    def _check_vertex(self, u: int) -> None:
        """Raise :class:`IndexError` unless ``0 <= u < n``.

        The single-vertex reads call this once per call (the event
        engine reads one row per flip), so it is one integer comparison
        and no array pass.
        """
        if not 0 <= u < self.n_vertices:
            raise IndexError(
                f"vertex ids of {self._name} must lie in [0, {self.n_vertices}), got {u}"
            )

    def _reject_negative(self, vertices: np.ndarray) -> None:
        """Raise :class:`IndexError` for a negative id in a non-empty ``vertices``.

        The row gathers of :meth:`sample_neighbors` and
        :meth:`neighborhoods` reject an id of ``n`` or more with their
        own bounds check but wrap a negative one to a row at the end, so
        only the sign needs a look: one reduction over the ids, about 1%
        of a sampling call on a few thousand vertices or more.
        """
        lowest = int(vertices.min())
        if lowest < 0:
            raise IndexError(f"vertex ids must lie in [0, {self.n_vertices}), got {lowest}")

    def neighborhoods(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbour rows of ``vertices`` (vectorised).

        Returns ``(counts, flat)`` where ``counts[i]`` is the degree of
        ``vertices[i]`` and ``flat`` is the concatenation of the sorted
        neighbour rows in query order (``counts.sum()`` entries).  The
        sparse-frontier BIPS kernel uses this to expand the armed set
        ``frontier ∪ N(frontier)`` in time proportional to the frontier
        volume rather than ``n``.  On a regular graph the rows are one
        gather of :attr:`neighbor_matrix`.  A vertex outside ``[0, n)``
        raises :class:`IndexError`.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size:
            self._reject_negative(vertices)
        r = self._regular_degree
        if r is not None:
            counts = np.full(vertices.size, r, dtype=np.int64)
            flat = self.neighbor_matrix[vertices].reshape(-1)
            return counts, flat.astype(np.int64, copy=False)
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
        # ``__eq__`` compares index values, so hash their int64 form: a
        # memory-mapped int32 twin hashes as the graph it equals.
        indices = self._indices.astype(np.int64, copy=False)
        return hash((self._indptr.tobytes(), indices.tobytes()))
