"""Exact finite-state engines for small graphs.

Both COBRA and BIPS are Markov chains on the power set of vertices, so
for graphs with at most :data:`~repro.exact.subsets.MAX_EXACT_VERTICES`
vertices the full distribution over subsets can be evolved exactly
(bitmask-indexed probability vectors).  This turns the paper's duality
theorem — an exact identity, not an asymptotic — into a
machine-precision assertion, and provides ground truth against which
the Monte-Carlo simulators are validated.

Each engine builds its step matrix in closed form: BIPS rows are
product measures, and COBRA rows are the Möbius inverses of products of
per-vertex subset-sum factors (:mod:`repro.exact.subsets`).  Up to
:data:`~repro.exact.subsets.MATRIX_LIMIT` vertices the matrix is built
once per engine and laws evolve by vector–matrix products; above it the
rows a round needs are built on demand.  The exact cover-time law
evolves a (covered, active) array with the same matrix, so it shares
that limit.
"""

from repro.exact.bips_exact import ExactBips
from repro.exact.cobra_exact import ExactCobra
from repro.exact.cover_exact import ExactCobraCover
from repro.exact.duality import (
    MonteCarloDualityPoint,
    duality_gap,
    duality_gaps,
    duality_monte_carlo,
    duality_series,
)
from repro.exact.subsets import (
    MAX_EXACT_VERTICES,
    mask_from_vertices,
    popcount_table,
    vertices_from_mask,
)

__all__ = [
    "ExactBips",
    "ExactCobra",
    "ExactCobraCover",
    "duality_gap",
    "duality_gaps",
    "duality_series",
    "duality_monte_carlo",
    "MonteCarloDualityPoint",
    "mask_from_vertices",
    "vertices_from_mask",
    "popcount_table",
    "MAX_EXACT_VERTICES",
]
