"""Graph families used by the paper's experiments.

Regular families (the paper's setting):

* :func:`complete` — `K_n`, the densest expander, `λ = 1/(n-1)`.
* :func:`cycle` — `C_n`, the weakest connected regular graph,
  `λ = cos(π/n)` for odd `n`.
* :func:`circulant` — cycles with chord sets; analytically known
  eigenvalues and tunable spectral gap.
* :func:`random_regular` — random `r`-regular graphs, `λ ≈ 2√(r-1)/r`
  w.h.p.; the paper's canonical expander testbed.  Drawn in NumPy by
  networkx's batched stub pairing (same law, different stream), as the
  complement of an `(n-1-r)`-regular draw when `2r > n-1`, and
  conditioned on connectivity.
* :func:`hypercube` — `d`-dimensional binary cube (bipartite; useful as
  a boundary case where `λ = 1` and the theorems are vacuous).
* :func:`torus` — `d`-dimensional discrete torus; the regular analogue
  of the grid in the Dutta et al. comparison.
* :func:`petersen` — the Petersen graph, a small vertex-transitive
  expander handy for exact computations.

Irregular families (for generality tests and baselines): :func:`path`,
:func:`star`, :func:`grid`, :func:`binary_tree`, :func:`ring_of_cliques`,
:func:`erdos_renyi`, :func:`complete_bipartite`.

Only :func:`watts_strogatz` and :func:`barabasi_albert` still call
networkx; it is imported when one of them runs.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.errors import GraphConstructionError
from repro.graphs.base import Graph
from repro.graphs.build import from_edges
from repro.graphs.properties import is_connected

#: The public generators: the names ``cobra-repro graph-info`` and
#: scenario graph cases accept.
__all__ = [
    "complete",
    "cycle",
    "path",
    "star",
    "complete_bipartite",
    "petersen",
    "hypercube",
    "torus",
    "grid",
    "circulant",
    "random_regular",
    "watts_strogatz",
    "barabasi_albert",
    "ring_of_cliques",
    "binary_tree",
    "erdos_renyi",
]

#: Draws a sampler conditioned on connectivity makes before it gives up
#: (:func:`random_regular`, :func:`watts_strogatz`, :func:`erdos_renyi`).
_MAX_TRIES = 100


def _adopt_regular_rows(rows: np.ndarray, name: str) -> Graph:
    """Wrap an ``(n, r)`` matrix of per-vertex neighbour rows as a Graph.

    The structured generators (hypercube, torus, circulant) compute
    every neighbour analytically, so the rows are valid by construction
    — sorting each row and adopting the flattened matrix as CSR skips
    both the Python edge lists and the O(2m) re-validation that used to
    dominate construction at n >= 1e5.
    """
    n = rows.shape[0]
    rows.sort(axis=1)
    indices = np.ascontiguousarray(rows.reshape(-1), dtype=np.int64)
    indptr = np.arange(n + 1, dtype=np.int64) * rows.shape[1]
    return Graph.adopt_validated_csr(indptr, indices, name=name)


def complete(n: int) -> Graph:
    """Complete graph `K_n` (`(n-1)`-regular, `λ = 1/(n-1)`).

    Stores all ``n(n - 1)`` row entries, which the exact engines and
    ``theory.growth`` read; :class:`~repro.graphs.implicit.ImplicitComplete`
    samples the same streams without storing them.
    """
    if n < 2:
        raise GraphConstructionError(f"complete graph needs n >= 2, got {n}")
    # Row u is every other vertex, (u + d) % n for d = 1 .. n-1.
    rows = (np.arange(n, dtype=np.int64)[:, None] + np.arange(1, n, dtype=np.int64)) % n
    return _adopt_regular_rows(rows, f"complete(n={n})")


def cycle(n: int) -> Graph:
    """Cycle `C_n` (2-regular; bipartite iff `n` even)."""
    if n < 3:
        raise GraphConstructionError(f"cycle needs n >= 3, got {n}")
    edges = [(u, (u + 1) % n) for u in range(n)]
    return from_edges(n, edges, name=f"cycle(n={n})")


def path(n: int) -> Graph:
    """Path graph on `n` vertices (irregular: endpoints have degree 1)."""
    if n < 2:
        raise GraphConstructionError(f"path needs n >= 2, got {n}")
    edges = [(u, u + 1) for u in range(n - 1)]
    return from_edges(n, edges, name=f"path(n={n})")


def star(n: int) -> Graph:
    """Star with centre 0 and `n - 1` leaves."""
    if n < 2:
        raise GraphConstructionError(f"star needs n >= 2, got {n}")
    edges = [(0, leaf) for leaf in range(1, n)]
    return from_edges(n, edges, name=f"star(n={n})")


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph `K_{a,b}` (regular iff `a == b`)."""
    if a < 1 or b < 1:
        raise GraphConstructionError(f"complete_bipartite needs a, b >= 1, got {a}, {b}")
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return from_edges(a + b, edges, name=f"complete_bipartite(a={a}, b={b})")


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 3-regular, non-bipartite, `λ = 2/3`."""
    outer = [(u, (u + 1) % 5) for u in range(5)]
    spokes = [(u, u + 5) for u in range(5)]
    inner = [(5 + u, 5 + (u + 2) % 5) for u in range(5)]
    return from_edges(10, outer + spokes + inner, name="petersen()")


def hypercube(dimension: int) -> Graph:
    """Binary hypercube `Q_d`: `2^d` vertices, `d`-regular, bipartite."""
    if dimension < 1:
        raise GraphConstructionError(f"hypercube needs dimension >= 1, got {dimension}")
    n = 1 << dimension
    bits = np.int64(1) << np.arange(dimension, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)[:, None] ^ bits
    return _adopt_regular_rows(rows, f"hypercube(d={dimension})")


def torus(side_lengths: Sequence[int]) -> Graph:
    """Discrete torus `Z_{L1} x ... x Z_{Ld}` (`2d`-regular for sides >= 3).

    Non-bipartite whenever at least one side length is odd, which is the
    configuration the experiments use (bipartite graphs have `λ = 1`).
    Side lengths of 2 would create parallel edges and are rejected.
    """
    sides = tuple(int(side) for side in side_lengths)
    if not sides:
        raise GraphConstructionError("torus needs at least one dimension")
    if any(side < 3 for side in sides):
        raise GraphConstructionError(f"torus side lengths must be >= 3, got {sides}")
    n = int(np.prod(sides))
    strides = np.ones(len(sides), dtype=np.int64)
    for axis in range(len(sides) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * sides[axis + 1]

    # Per axis, vertex u sits at coordinate c = (u // stride) % side and
    # its two neighbours differ by ((c ± 1) % side - c) * stride; sides
    # >= 3 keep the forward and backward neighbours distinct, so the
    # 2d columns are exactly the neighbour rows.
    u = np.arange(n, dtype=np.int64)
    rows = np.empty((n, 2 * len(sides)), dtype=np.int64)
    for axis, side in enumerate(sides):
        coord = (u // strides[axis]) % side
        rows[:, 2 * axis] = u + ((coord + 1) % side - coord) * strides[axis]
        rows[:, 2 * axis + 1] = u + ((coord - 1) % side - coord) * strides[axis]
    return _adopt_regular_rows(rows, f"torus(sides={sides})")


def grid(side_lengths: Sequence[int]) -> Graph:
    """Open `d`-dimensional grid (irregular at the boundary)."""
    sides = tuple(int(side) for side in side_lengths)
    if not sides:
        raise GraphConstructionError("grid needs at least one dimension")
    if any(side < 2 for side in sides):
        raise GraphConstructionError(f"grid side lengths must be >= 2, got {sides}")
    n = int(np.prod(sides))
    strides = np.ones(len(sides), dtype=np.int64)
    for axis in range(len(sides) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * sides[axis + 1]
    edges: list[tuple[int, int]] = []
    for coords in itertools.product(*[range(side) for side in sides]):
        u = int(np.dot(coords, strides))
        for axis, side in enumerate(sides):
            if coords[axis] + 1 < side:
                forward = list(coords)
                forward[axis] += 1
                edges.append((u, int(np.dot(forward, strides))))
    return from_edges(n, edges, name=f"grid(sides={sides})")


def circulant(n: int, offsets: Sequence[int]) -> Graph:
    """Circulant graph `C_n(s1, ..., sj)`.

    Vertex ``u`` is adjacent to ``u ± s (mod n)`` for each offset ``s``.
    The graph is ``2j``-regular when no offset equals ``n/2`` (an offset
    of exactly ``n/2`` contributes a single perfect-matching edge per
    vertex).  Eigenvalues are known in closed form, which
    :func:`repro.graphs.spectral.analytic_lambda` exploits.
    """
    if n < 3:
        raise GraphConstructionError(f"circulant needs n >= 3, got {n}")
    cleaned = sorted({int(s) for s in offsets})
    if not cleaned:
        raise GraphConstructionError("circulant needs at least one offset")
    if cleaned[0] < 1 or cleaned[-1] > n // 2:
        raise GraphConstructionError(
            f"offsets must lie in [1, n//2]={n // 2}, got {cleaned}"
        )
    # Each offset s contributes the deltas +s and n-s; an offset of
    # exactly n/2 contributes a single delta (its matching edge).
    deltas = np.asarray(
        sorted({s for offset in cleaned for s in (offset, n - offset)}),
        dtype=np.int64,
    )
    rows = (np.arange(n, dtype=np.int64)[:, None] + deltas) % n
    name = f"circulant(n={n}, offsets={tuple(cleaned)})"
    return _adopt_regular_rows(rows, name)


def _pairing_edge_keys(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted keys ``u * n + v`` (``u < v``) of one simple ``r``-regular graph.

    The batched pairing that networkx's ``random_regular_graph`` runs (a
    Steger–Wormald variant), one vectorised pass per round: shuffle the
    leftover stubs, pair neighbours, and keep each pair that is neither
    a loop nor an edge kept already; of a pair repeated within the pass
    the first copy is kept.  The stubs of every other pair are the next
    pass's leftovers.  After each pass :func:`_stuck` decides, as
    networkx does, whether the attempt restarts from scratch.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), r)
    while True:
        kept = np.empty(0, dtype=np.int64)
        leftover = stubs
        while leftover.size:
            shuffled = rng.permutation(leftover)
            lo = np.minimum(shuffled[0::2], shuffled[1::2])
            hi = np.maximum(shuffled[0::2], shuffled[1::2])
            keys = lo * n + hi
            valid = (lo != hi) & ~_contains(kept, keys)
            ordered = np.sort(keys[valid])
            first = np.ones(ordered.size, dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            fresh = ordered[first]
            kept = np.insert(kept, np.searchsorted(kept, fresh), fresh)
            rejected = ~valid
            if fresh.size < ordered.size:
                # networkx keeps the first copy of a repeated pair in pass
                # order and rejects the later ones.
                copies = np.flatnonzero(valid & _contains(ordered[~first], keys))
                _, kept_copy = np.unique(keys[copies], return_index=True)
                rejected[copies] = True
                rejected[copies[kept_copy]] = False
            leftover = np.column_stack((lo[rejected], hi[rejected])).ravel()
            if leftover.size and _stuck(leftover, kept, n):
                break
        else:
            return kept


def _stuck(leftover: np.ndarray, kept: np.ndarray, n: int) -> bool:
    """networkx's restart test on one pass's leftover stubs.

    networkx scans the leftover vertices in the order they first lost a
    stub in the pass (``leftover`` lists them so), and its scan swaps
    the outer loop variable, so it does not try every pair: for the
    ``i``-th vertex ``p_i`` it tries ``(min(p_i, m_j), p_j)`` for
    ``j < i`` when ``p_i`` is below every earlier vertex and for every
    ``j`` otherwise, where ``m_j`` is the minimum of ``p_0 .. p_{j-1}``.
    The attempt is stuck when every tried pair is an edge already.  The
    restart rule shapes the law, so it is reproduced as is; rows are
    scanned in blocks of about 65k pairs.
    """
    vertices, first_seen = np.unique(leftover, return_index=True)
    scan = vertices[np.argsort(first_seen)]
    count = scan.size
    below = np.minimum.accumulate(np.concatenate(([n], scan[:-1])))
    stop = np.where(scan < below, np.arange(count), count)
    step = max(1, 65536 // count)
    for row in range(0, count, step):
        partner = np.minimum(scan[row : row + step, None], below)
        tried = np.arange(count) < stop[row : row + step, None]
        pairs = (np.minimum(partner, scan) * n + np.maximum(partner, scan))[tried]
        if not _contains(kept, pairs).all():
            return False
    return True


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Elementwise ``keys in sorted_keys``, by binary search."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    slot = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return sorted_keys[slot] == keys


def random_regular(n: int, r: int, seed: SeedLike = None) -> Graph:
    """Connected random `r`-regular simple graph on `n` vertices.

    Samples by the batched pairing of networkx's ``random_regular_graph``
    (a Steger & Wormald 1999 variant), vectorised on the caller's
    generator: shuffle the ``n·r`` stubs and pair neighbours; keep each
    pair that is neither a loop nor an edge kept already; re-shuffle the
    leftover stubs and repeat; restart when networkx's test finds no
    valid pair among the leftovers.  The sample is then checked
    connected by BFS, and the draw repeats (up to :data:`_MAX_TRIES`
    times) until it is; for ``r >= 3`` a sample is connected w.h.p., so retries
    are rare.  Rows are built straight from the sorted edge keys, which
    makes them simple, sorted and symmetric, so the graph adopts them
    without re-validation.  Requires ``n * r`` even and ``r < n``.

    **Law.**  For ``2r <= n - 1`` it is networkx's law conditioned on
    connectivity: the pairing replays networkx's loop pair for pair,
    restart rule included, so only the random stream differs from a
    networkx build.  That law is asymptotically uniform over
    `r`-regular graphs for ``r = O(n^(1/3 - ε))`` (Kim & Vu 2003), not
    exactly uniform.

    **Dense degrees.**  For ``2r > n - 1`` the pairing gets stuck and
    restarts thousands of times, so the sampler draws the
    ``(n - 1 - r)``-regular graph and returns its complement.
    Complementation is a bijection between the two degree classes, and
    the complement is always connected: every degree is at least
    ``n/2``, so any two non-adjacent vertices share a neighbour.  The
    law here is the complement of the pairing law at degree
    ``n - 1 - r``.  That is the uniform law wherever the pairing law is
    uniform, but it is not networkx's law at degree `r`: on 6 vertices,
    3-regular, ``K_{3,3}`` comes out 31% of the time against networkx's
    15% (uniform: 1/7).
    """
    if r < 1 or r >= n:
        raise GraphConstructionError(f"need 1 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 != 0:
        raise GraphConstructionError(f"n*r must be even, got n={n}, r={r}")
    rng = ensure_generator(seed)
    dense = 2 * r > n - 1
    indptr = np.arange(n + 1, dtype=np.int64) * r
    for _ in range(_MAX_TRIES):
        keys = _pairing_edge_keys(n, n - 1 - r if dense else r, rng)
        lo, hi = np.divmod(keys, n)
        if dense:
            adjacent = np.eye(n, dtype=bool)
            adjacent[lo, hi] = adjacent[hi, lo] = True
            indices = np.flatnonzero(~adjacent) % n
        else:
            directed = np.concatenate((keys, hi * n + lo))
            directed.sort()
            indices = directed % n
        graph = Graph.adopt_validated_csr(
            indptr, indices, name=f"random_regular(n={n}, r={r})"
        )
        if is_connected(graph):
            return graph
    raise GraphConstructionError(
        f"failed to sample a connected {r}-regular graph on {n} vertices "
        f"in {_MAX_TRIES} tries"
    )


def watts_strogatz(n: int, k: int, rewire: float, seed: SeedLike = None) -> Graph:
    """Connected Watts–Strogatz small-world graph.

    A ring lattice where each vertex connects to its `k` nearest
    neighbours, with every edge rewired independently with probability
    ``rewire``.  Retries until the sample is connected, so processes
    can always complete on it.  Requires even ``k`` with
    ``2 <= k < n`` and ``0 <= rewire <= 1``; irregular once any edge
    is rewired.
    """
    if k < 2 or k % 2 != 0 or k >= n:
        raise GraphConstructionError(
            f"watts_strogatz needs an even 2 <= k < n, got k={k}, n={n}"
        )
    if not 0.0 <= rewire <= 1.0:
        raise GraphConstructionError(f"rewire must be in [0, 1], got {rewire}")
    import networkx as nx

    rng = ensure_generator(seed)
    nx_seed = int(rng.integers(0, 2**31 - 1))
    candidate = nx.connected_watts_strogatz_graph(
        n, k, rewire, tries=_MAX_TRIES, seed=nx_seed
    )
    return from_edges(
        n,
        list(candidate.edges()),
        name=f"watts_strogatz(n={n}, k={k}, rewire={rewire})",
    )


def barabasi_albert(n: int, attach: int, seed: SeedLike = None) -> Graph:
    """Barabási–Albert preferential-attachment (power-law) graph.

    Each new vertex attaches to ``attach`` existing vertices with
    probability proportional to their degree, yielding the heavy-tailed
    degree distribution of scale-free networks.  Always connected;
    strongly irregular (hub degrees grow like ``sqrt(n)``).  Requires
    ``1 <= attach < n``.
    """
    if attach < 1 or attach >= n:
        raise GraphConstructionError(
            f"barabasi_albert needs 1 <= attach < n, got attach={attach}, n={n}"
        )
    import networkx as nx

    rng = ensure_generator(seed)
    nx_seed = int(rng.integers(0, 2**31 - 1))
    candidate = nx.barabasi_albert_graph(n, attach, seed=nx_seed)
    return from_edges(
        n, list(candidate.edges()), name=f"barabasi_albert(n={n}, attach={attach})"
    )


def ring_of_cliques(n_cliques: int, clique_size: int) -> Graph:
    """`n_cliques` copies of `K_s` joined in a cycle by bridge edges.

    A classic poor expander: the spectral gap shrinks as the number of
    cliques grows.  Not regular (bridge endpoints have degree `s`).
    """
    if n_cliques < 3:
        raise GraphConstructionError(f"ring_of_cliques needs >= 3 cliques, got {n_cliques}")
    if clique_size < 2:
        raise GraphConstructionError(f"clique size must be >= 2, got {clique_size}")
    edges: list[tuple[int, int]] = []
    for c in range(n_cliques):
        base = c * clique_size
        for u in range(clique_size):
            for v in range(u + 1, clique_size):
                edges.append((base + u, base + v))
        next_base = ((c + 1) % n_cliques) * clique_size
        # Bridge from this clique's vertex 1 to the next clique's vertex 0
        # so no vertex carries two bridges (keeps degrees s-1 or s).
        edges.append((base + 1, next_base))
    n = n_cliques * clique_size
    return from_edges(n, edges, name=f"ring_of_cliques(cliques={n_cliques}, size={clique_size})")


def binary_tree(height: int) -> Graph:
    """Complete binary tree of the given height (`2^(h+1) - 1` vertices)."""
    if height < 1:
        raise GraphConstructionError(f"binary_tree needs height >= 1, got {height}")
    n = (1 << (height + 1)) - 1
    edges = [(child, (child - 1) // 2) for child in range(1, n)]
    return from_edges(n, edges, name=f"binary_tree(height={height})")


def erdos_renyi(n: int, p: float, seed: SeedLike = None, *, connected: bool = False) -> Graph:
    """Erdős–Rényi `G(n, p)` random graph.

    With ``connected=True`` the sample is redrawn until connected
    (sensible only for `p` above the connectivity threshold
    `log(n)/n`).
    """
    if n < 2:
        raise GraphConstructionError(f"erdos_renyi needs n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise GraphConstructionError(f"p must be in [0, 1], got {p}")
    rng = ensure_generator(seed)
    rows, cols = np.triu_indices(n, k=1)
    for _ in range(_MAX_TRIES):
        mask = rng.random(rows.size) < p
        edges = np.column_stack([rows[mask], cols[mask]])
        graph = from_edges(n, edges, name=f"erdos_renyi(n={n}, p={p})")
        if not connected:
            return graph
        if is_connected(graph):
            return graph
    raise GraphConstructionError(
        f"failed to sample a connected G({n}, {p}) graph in {_MAX_TRIES} tries"
    )
