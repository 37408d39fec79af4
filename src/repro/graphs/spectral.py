"""Spectral tools: `λ`, the spectral gap and random-walk hitting times.

The paper's bounds are stated in terms of
``λ = max_{i >= 2} |λ_i(P)}`` where ``P = A/r`` is the random-walk
transition matrix of an `r`-regular graph.  For irregular graphs the
routines here use the symmetric normalisation
``N = D^{-1/2} A D^{-1/2}``, which shares its spectrum with
``P = D^{-1} A`` and keeps everything real-symmetric.

Two computation paths are provided:

* dense (``numpy.linalg.eigvalsh``) — the whole spectrum.  ``auto``
  uses it up to :data:`DENSE_LIMIT` = 256 vertices, where it costs a
  few milliseconds and beats the Lanczos set-up; it stays practical up
  to a few thousand vertices.
* sparse (``scipy.sparse.linalg.eigsh``) — one Lanczos run from a fixed
  seeded start vector for the three extreme eigenvalues (``k=3,
  which="BE"``: 1, ``λ_2`` and ``λ_n``), ``auto``'s choice above 256
  vertices.  It is fast where the extremes stand apart from the bulk of
  the spectrum, as on expanders, and slow on ring-like spectra, whose
  eigenvalues crowd the ends: ``cycle(1001)`` takes about 0.5 s against
  0.08 s dense, ``path(1000)`` about 1.9 s against 0.09 s.  Pass
  ``method="dense"`` for such graphs.

Closed-form spectra for the structured families
(:func:`analytic_lambda`) let the tests validate the numeric paths to
machine precision.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.errors import GraphPropertyError
from repro.graphs.base import Graph

#: Above this many vertices, ``lambda_second(method="auto")`` switches
#: from the dense eigensolver to the sparse one.
DENSE_LIMIT = 256

#: Seed of the fixed Lanczos start vector (see :func:`_extreme_eigenvalues`).
_START_VECTOR_SEED = 0

#: Fewest vertices the sparse path takes: its one Lanczos run asks for
#: three eigenvalues, and ARPACK needs more vertices than that.
_SPARSE_MIN_VERTICES = 4


def adjacency_matrix(graph: Graph, *, sparse: bool = False):
    """Adjacency matrix as a dense array or ``scipy.sparse.csr_matrix``."""
    n = graph.n_vertices
    if sparse:
        from scipy.sparse import csr_matrix

        data = np.ones(graph.indices.size, dtype=np.float64)
        return csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))
    dense = np.zeros((n, n), dtype=np.float64)
    for u in range(n):
        dense[u, graph.neighbors(u)] = 1.0
    return dense


def transition_matrix(graph: Graph, *, sparse: bool = False):
    """Random-walk transition matrix ``P = D^{-1} A``."""
    if graph.min_degree == 0:
        raise GraphPropertyError("transition matrix undefined with isolated vertices")
    adjacency = adjacency_matrix(graph, sparse=sparse)
    inverse_degrees = 1.0 / graph.degrees.astype(np.float64)
    if sparse:
        from scipy.sparse import diags

        return diags(inverse_degrees) @ adjacency
    return inverse_degrees[:, None] * adjacency


def _normalized_adjacency(graph: Graph, *, sparse: bool = False):
    """Symmetric normalisation ``D^{-1/2} A D^{-1/2}`` (same spectrum as P)."""
    if graph.min_degree == 0:
        raise GraphPropertyError("normalised adjacency undefined with isolated vertices")
    adjacency = adjacency_matrix(graph, sparse=sparse)
    scale = 1.0 / np.sqrt(graph.degrees.astype(np.float64))
    if sparse:
        from scipy.sparse import diags

        half = diags(scale)
        return half @ adjacency @ half
    return scale[:, None] * adjacency * scale[None, :]


def eigenvalues(graph: Graph) -> np.ndarray:
    """All eigenvalues of the transition matrix, non-increasing.

    Dense computation; intended for graphs up to a few thousand
    vertices.
    """
    spectrum = np.linalg.eigvalsh(_normalized_adjacency(graph))
    return spectrum[::-1]


def lambda_second(graph: Graph, *, method: str = "auto") -> float:
    """``λ = max_{i >= 2} |λ_i|`` of the transition matrix.

    Parameters
    ----------
    graph:
        A connected graph (disconnected graphs have a repeated
        eigenvalue 1, which this routine reports as ``λ = 1``).
    method:
        ``"dense"``, ``"sparse"`` or ``"auto"``.  ``auto``
        returns an implicit graph's closed form, and otherwise solves
        densely up to :data:`DENSE_LIMIT` (256) vertices and runs one
        seeded Lanczos run (``"sparse"``) above.  Lanczos is slow on
        ring-like graphs, cycles and paths: above a few hundred vertices
        ``method="dense"`` solves them several times faster (see the
        module docstring).  ``"sparse"`` needs at least 4 vertices.
    """
    if method == "auto":
        # Implicit graphs know their spectrum in closed form and have
        # no CSR to feed an eigensolver; dispatch before sizing.
        analytic = getattr(graph, "analytic_lambda", None)
        if callable(analytic):
            return float(analytic())
        method = "dense" if graph.n_vertices <= DENSE_LIMIT else "sparse"
    if method == "dense":
        spectrum = eigenvalues(graph)
        return float(max(abs(spectrum[1]), abs(spectrum[-1])))
    if method == "sparse":
        second, smallest = _extreme_eigenvalues(graph)
        return max(abs(second), abs(smallest))
    raise ValueError(f"unknown method {method!r}; expected auto/dense/sparse")


@functools.cache
def _eigsh():
    """scipy's Lanczos solver, imported at the first sparse solve.

    The import loads scipy's OpenBLAS copy, which is then set to one
    thread like every other (:func:`repro.parallel.one_blas_thread`).
    """
    from scipy.sparse.linalg import eigsh

    from repro.parallel import one_blas_thread

    one_blas_thread()
    return eigsh


def _extreme_eigenvalues(graph: Graph) -> tuple[float, float]:
    """``(λ_2, λ_n)`` from one Lanczos run on the sparse normalised adjacency.

    ``eigsh(k=3, which="BE")`` returns the two algebraically largest
    eigenvalues (1 and ``λ_2``) and the smallest (``λ_n``).  ARPACK
    starts from its own random vector unless ``v0`` is given, so
    repeated calls on one graph would disagree in the last bits.  One
    fixed, seeded start vector makes every call return the same floats.
    """
    eigsh = _eigsh()
    n = graph.n_vertices
    if n < _SPARSE_MIN_VERTICES:
        raise ValueError(
            f"the sparse eigensolver needs at least {_SPARSE_MIN_VERTICES} vertices, "
            f"got {n}; use method='dense'"
        )
    matrix = _normalized_adjacency(graph, sparse=True)
    start = np.random.default_rng(_START_VECTOR_SEED).standard_normal(n)
    values = np.sort(
        eigsh(matrix, k=3, which="BE", return_eigenvectors=False, tol=1e-10, v0=start)
    )
    return float(values[1]), float(values[0])


def spectral_gap(graph: Graph, *, method: str = "auto") -> float:
    """``1 - λ``; positive exactly when the graph mixes (non-bipartite, connected)."""
    return 1.0 - lambda_second(graph, method=method)


def random_walk_hitting_times(graph: Graph) -> np.ndarray:
    """Exact expected hitting times ``H[u, v] = E_u[time to reach v]``.

    Computed from the Moore–Penrose pseudoinverse of the graph
    Laplacian: ``H[u, v] = Σ_w d(w) (L⁺[v, v] − L⁺[u, v] + L⁺[u, w] −
    L⁺[v, w])`` — the standard electrical-network formula, valid for
    any connected graph.  Dense computation; intended for graphs up to
    a few thousand vertices.

    These are the `k = 1` ground truth the COBRA baseline comparisons
    and the exact engines are checked against.
    """
    from repro.graphs.properties import is_connected

    if not is_connected(graph):
        raise GraphPropertyError("hitting times are infinite on a disconnected graph")
    n = graph.n_vertices
    degrees = graph.degrees.astype(np.float64)
    laplacian = np.diag(degrees) - adjacency_matrix(graph)
    pseudo = np.linalg.pinv(laplacian)
    # H[u, v] = sum_w d(w) * (L+[v,v] - L+[u,v] + L+[u,w] - L+[v,w])
    weighted_row = pseudo @ degrees  # (L+ d)[x] = sum_w L+[x, w] d(w)
    total_degree = degrees.sum()
    diagonal = np.diag(pseudo)
    hitting = (
        total_degree * (diagonal[None, :] - pseudo)
        + weighted_row[:, None]
        - weighted_row[None, :]
    )
    np.fill_diagonal(hitting, 0.0)
    return hitting


def random_walk_cover_time_bounds(graph: Graph) -> tuple[float, float]:
    """Matthews' bounds on the cover time of a simple random walk.

    ``max_{u,v} H[u,v] / H_n <= t_cov <= max_{u,v} H[u,v] * H_n`` —
    returned as ``(lower, upper)`` with ``H_n`` the `n`-th harmonic
    number.  Used to sanity-band the measured `k = 1` baseline.
    """
    hitting = random_walk_hitting_times(graph)
    worst = float(hitting.max())
    n = graph.n_vertices
    harmonic = float(np.sum(1.0 / np.arange(1, n + 1)))
    # Matthews: t_cov <= H_{n-1} * max hit; lower bound uses the
    # minimum over subsets, for which max-hit / H_n is a safe relaxation.
    return worst / harmonic, worst * harmonic


# ----------------------------------------------------------------------
# Closed-form spectra for structured families (used to validate the
# numeric paths and to build graphs with a *known* spectral gap).
# ----------------------------------------------------------------------


#: The generators :func:`analytic_lambda` knows in closed form; its
#: parameter names are theirs.
ANALYTIC_FAMILIES = (
    "complete",
    "cycle",
    "circulant",
    "hypercube",
    "torus",
    "petersen",
    "complete_bipartite",
)


def analytic_lambda(family: str, **params) -> float:
    """Closed-form ``λ`` for a structured family.

    Supported families and parameters:

    * ``"complete"`` (``n``) — ``1 / (n - 1)``.
    * ``"cycle"`` (``n``) — ``cos(π/n)`` for odd `n` (the most negative
      eigenvalue dominates); 1 for even `n` (bipartite).
    * ``"circulant"`` (``n``, ``offsets``) — max over non-trivial
      characters.
    * ``"hypercube"`` (``dimension``) — 1 (bipartite).
    * ``"torus"`` (``side_lengths``) — max over non-trivial characters
      of the product chain.
    * ``"petersen"`` — 2/3.
    * ``"complete_bipartite"`` (``a``, ``b``) — 1 (bipartite).
    """
    if family == "complete":
        n = params["n"]
        return 1.0 / (n - 1)
    if family == "cycle":
        n = params["n"]
        return _circulant_lambda(n, (1,))
    if family == "circulant":
        return _circulant_lambda(params["n"], tuple(params["offsets"]))
    if family == "hypercube":
        return 1.0
    if family == "torus":
        return _torus_lambda(tuple(params["side_lengths"]))
    if family == "petersen":
        return 2.0 / 3.0
    if family == "complete_bipartite":
        return 1.0
    raise ValueError(f"no analytic spectrum known for family {family!r}")


def _circulant_lambda(n: int, offsets: Sequence[int]) -> float:
    """``λ`` of the circulant ``C_n(offsets)`` via character sums."""
    cleaned = sorted({int(s) for s in offsets})
    degree = sum(1 if 2 * s == n else 2 for s in cleaned)
    worst = 0.0
    for j in range(1, n):
        value = 0.0
        for s in cleaned:
            if 2 * s == n:
                value += math.cos(math.pi * j)
            else:
                value += 2.0 * math.cos(2.0 * math.pi * j * s / n)
        worst = max(worst, abs(value) / degree)
    return worst


def _torus_lambda(side_lengths: tuple[int, ...]) -> float:
    """``λ`` of the `d`-dimensional torus via product-chain characters.

    Transition eigenvalues are ``(1/d) * Σ_a cos(2π j_a / L_a)`` over
    frequency vectors ``j``.  The sum is separable, so instead of
    enumerating all ``Π L_a`` vectors the extremes suffice: the largest
    non-trivial eigenvalue puts one axis at its best non-zero frequency
    and the rest at zero, and the most negative puts every axis at its
    most negative frequency — O(Σ L_a) total, which keeps million-vertex
    implicit tori instant.
    """
    d = len(side_lengths)
    per_axis = [
        np.cos(2.0 * np.pi * np.arange(side, dtype=np.float64) / side)
        for side in side_lengths
    ]
    largest = (d - 1) + max(float(axis[1:].max()) for axis in per_axis)
    most_negative = sum(float(axis.min()) for axis in per_axis)
    return max(abs(largest), abs(most_negative)) / d
