"""Implicit graph backends vs their materialised CSR counterparts.

The contract is exact: an implicit hypercube/torus/circulant/complete
graph must agree with the generator-built CSR graph *edge for edge*
(same sorted neighbour rows, same ``neighbor_at`` reads) and *stream
for stream* (same ``sample_neighbors`` output from the same RNG state,
leaving the RNG in the same state), so switching a workload to an
implicit substrate never changes results.  ``K_9`` (degree 8) samples
on ``uniform_draws``' bit-sliced path and ``K_16`` (degree 15) on the
bounded-integer path.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError, GraphPropertyError
from repro.graphs import generators, properties
from repro.graphs.implicit import (
    ImplicitCirculant,
    ImplicitComplete,
    ImplicitGraph,
    ImplicitHypercube,
    ImplicitTorus,
)
from repro.graphs.spectral import lambda_second

#: (implicit graph, materialised generator twin) builders per family.
PAIRS = [
    ("hypercube-4", lambda: ImplicitHypercube(4), lambda: generators.hypercube(4)),
    (
        "torus-5x7",
        lambda: ImplicitTorus((5, 7)),
        lambda: generators.torus((5, 7)),
    ),
    (
        "torus-3x4x5",
        lambda: ImplicitTorus((3, 4, 5)),
        lambda: generators.torus((3, 4, 5)),
    ),
    (
        "circulant-11",
        lambda: ImplicitCirculant(11, (1, 3, 4)),
        lambda: generators.circulant(11, (1, 3, 4)),
    ),
    (
        "circulant-12-half",
        lambda: ImplicitCirculant(12, (1, 6)),
        lambda: generators.circulant(12, (1, 6)),
    ),
    ("complete-9", lambda: ImplicitComplete(9), lambda: generators.complete(9)),
    ("complete-16", lambda: ImplicitComplete(16), lambda: generators.complete(16)),
]


@pytest.fixture(params=PAIRS, ids=[label for label, _, _ in PAIRS])
def pair(request):
    _, implicit, concrete = request.param
    return implicit(), concrete()


class TestEdgeForEdgeAgreement:
    def test_basic_shape(self, pair):
        implicit, concrete = pair
        assert implicit.n_vertices == concrete.n_vertices
        assert implicit.n_edges == concrete.n_edges
        assert implicit.degree(0) == concrete.degree(0)
        assert np.array_equal(implicit.degrees, concrete.degrees)

    def test_neighbor_rows_match_csr_rows(self, pair):
        implicit, concrete = pair
        vertices = np.arange(implicit.n_vertices, dtype=np.int64)
        rows = implicit.neighbor_rows(vertices)
        for u in vertices:
            assert np.array_equal(rows[u], concrete.neighbors(int(u)))

    def test_neighbors_and_has_edge(self, pair):
        implicit, concrete = pair
        for u in range(implicit.n_vertices):
            assert np.array_equal(implicit.neighbors(u), concrete.neighbors(u))
            for v in range(implicit.n_vertices):
                assert implicit.has_edge(u, v) == concrete.has_edge(u, v)

    def test_edges_match(self, pair):
        implicit, concrete = pair
        assert sorted(implicit.edges()) == sorted(concrete.edges())

    def test_neighborhoods_match(self, pair):
        implicit, concrete = pair
        vertices = np.array([0, 1, 0, implicit.n_vertices - 1], dtype=np.int64)
        counts_i, flat_i = implicit.neighborhoods(vertices)
        counts_c, flat_c = concrete.neighborhoods(vertices)
        assert np.array_equal(counts_i, counts_c)
        assert np.array_equal(flat_i, flat_c)

    def test_neighbor_at_matches_csr_reads(self, pair):
        implicit, concrete = pair
        vertices = np.arange(implicit.n_vertices, dtype=np.int64)
        positions = np.arange(implicit.degree(0), dtype=np.int64)
        block = implicit.neighbor_at(vertices[:, None], positions)
        assert block.dtype == np.dtype(np.int64)
        assert np.array_equal(block, concrete.neighbor_at(vertices[:, None], positions))
        assert np.array_equal(block, implicit.neighbor_rows(vertices))
        # One vertex against a vector of positions, as the event engine reads.
        last = implicit.n_vertices - 1
        assert np.array_equal(
            implicit.neighbor_at(last, positions[::-1]),
            concrete.neighbors(last)[::-1],
        )

    @pytest.mark.parametrize("bad", ["n", "-1"])
    def test_out_of_range_ids_raise(self, pair, bad):
        # The implicit rows are arithmetic on the id, so an id outside
        # [0, n) would read a row of a vertex that does not exist.  The
        # CSR twin, a regular graph, rejects both ids as well: its
        # gathers reject n, and a negative id would wrap to a row at the
        # end of ``indices``.
        implicit, concrete = pair
        vertices = [0, implicit.n_vertices if bad == "n" else -1]
        reads = {
            "walk": lambda graph: graph.walk(vertices, 3, np.random.default_rng(0)),
            "sample_neighbors": lambda graph: graph.sample_neighbors(
                vertices, 2, np.random.default_rng(0)
            ),
            "neighbor_at": lambda graph: graph.neighbor_at(vertices, [0, 0]),
            "neighborhoods": lambda graph: graph.neighborhoods(vertices),
        }
        for name, read in reads.items():
            with pytest.raises(IndexError):
                read(implicit)
            with pytest.raises(IndexError):
                read(concrete)
        with pytest.raises(IndexError):
            implicit.neighbor_rows(vertices)

    def test_materialize_equals_generator_graph(self, pair):
        implicit, concrete = pair
        materialized = implicit.materialize()
        assert materialized == concrete
        assert materialized.name == concrete.name


class TestStreamForStreamAgreement:
    def test_sample_neighbors_bit_identical(self, pair):
        implicit, concrete = pair
        vertices = np.arange(implicit.n_vertices, dtype=np.int64)
        rng_i = np.random.default_rng(99)
        rng_c = np.random.default_rng(99)
        picks_i = implicit.sample_neighbors(vertices, 3, rng_i)
        picks_c = concrete.sample_neighbors(vertices, 3, rng_c)
        assert np.array_equal(picks_i, picks_c)
        assert picks_i.dtype == picks_c.dtype == np.dtype(np.int64)
        # The RNG must end in the same state: follow-up draws agree too.
        assert np.array_equal(rng_i.integers(0, 1 << 30, 8), rng_c.integers(0, 1 << 30, 8))


@settings(max_examples=40, deadline=None)
@given(dimension=st.integers(1, 7), seed=st.integers(0, 2**31 - 1))
def test_hypercube_streams_property(dimension, seed):
    implicit = ImplicitHypercube(dimension)
    concrete = generators.hypercube(dimension)
    vertices = np.arange(implicit.n_vertices, dtype=np.int64)
    assert np.array_equal(implicit.neighbor_rows(vertices).reshape(-1), concrete.indices)
    rng_i, rng_c = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        implicit.sample_neighbors(vertices, 2, rng_i),
        concrete.sample_neighbors(vertices, 2, rng_c),
    )


@settings(max_examples=40, deadline=None)
@given(
    sides=st.lists(st.integers(3, 6), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
)
def test_torus_streams_property(sides, seed):
    # Up to 4 axes: 81 boundary classes (coordinate 0, side - 1 or
    # between on each axis), every one of which some vertex falls in.
    implicit = ImplicitTorus(tuple(sides))
    concrete = generators.torus(tuple(sides))
    vertices = np.arange(implicit.n_vertices, dtype=np.int64)
    assert np.array_equal(implicit.neighbor_rows(vertices).reshape(-1), concrete.indices)
    positions = np.random.default_rng(seed).integers(0, implicit.degree(0), (vertices.size, 3))
    assert np.array_equal(
        implicit.neighbor_at(vertices[:, None], positions),
        concrete.neighbor_at(vertices[:, None], positions),
    )
    rng_i, rng_c = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        implicit.sample_neighbors(vertices, 3, rng_i),
        concrete.sample_neighbors(vertices, 3, rng_c),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_circulant_streams_property(data, seed):
    n = data.draw(st.integers(5, 14))
    offsets = data.draw(
        st.lists(st.integers(1, n // 2), min_size=1, max_size=3, unique=True)
    )
    implicit = ImplicitCirculant(n, tuple(offsets))
    concrete = generators.circulant(n, tuple(offsets))
    vertices = np.arange(n, dtype=np.int64)
    assert np.array_equal(implicit.neighbor_rows(vertices).reshape(-1), concrete.indices)
    rng_i, rng_c = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        implicit.sample_neighbors(vertices, 2, rng_i),
        concrete.sample_neighbors(vertices, 2, rng_c),
    )


class TestImplicitBehaviour:
    def test_structural_properties_work_without_csr(self):
        # properties.py routes BFS through neighborhoods(), so implicit
        # graphs answer connectivity questions without materialising.
        graph = ImplicitTorus((5, 7))
        assert properties.is_connected(graph)
        assert len(properties.connected_components(graph)) == 1
        assert properties.eccentricity(graph, 0) == 2 + 3

    def test_no_csr_arrays(self):
        graph = ImplicitTorus((5, 5))
        with pytest.raises(GraphPropertyError, match="stores no CSR arrays"):
            graph.indptr
        with pytest.raises(GraphPropertyError, match="stores no CSR arrays"):
            graph.indices

    def test_pickles_compactly(self):
        for graph, n in (
            (ImplicitTorus((101, 101, 101)), 101**3),
            (ImplicitComplete(8192), 8192),
        ):
            blob = pickle.dumps(graph)
            assert len(blob) < 256
            clone = pickle.loads(blob)
            assert clone == graph
            assert clone.n_vertices == n

    def test_hypercube_is_an_implicit_graph(self):
        assert issubclass(ImplicitHypercube, ImplicitGraph)

    def test_analytic_lambda_matches_spectrum(self):
        for implicit, concrete in (
            (ImplicitHypercube(3), generators.hypercube(3)),
            (ImplicitTorus((5, 7)), generators.torus((5, 7))),
            (ImplicitCirculant(9, (1, 2)), generators.circulant(9, (1, 2))),
            (ImplicitComplete(9), generators.complete(9)),
        ):
            assert lambda_second(implicit) == pytest.approx(
                lambda_second(concrete, method="dense"), abs=1e-9
            )

    def test_validation_matches_generators(self):
        with pytest.raises(GraphConstructionError):
            ImplicitHypercube(0)
        with pytest.raises(GraphConstructionError):
            ImplicitTorus((2, 5))
        with pytest.raises(GraphConstructionError):
            ImplicitCirculant(6, (0,))
        with pytest.raises(GraphConstructionError):
            ImplicitCirculant(6, (7,))
        with pytest.raises(GraphConstructionError):
            ImplicitComplete(1)

    def test_equality_against_concrete_graph_is_false_not_error(self):
        implicit = ImplicitTorus((5, 5))
        concrete = generators.torus((5, 5))
        assert (implicit == concrete) is False
        assert (concrete == implicit) is False
        assert implicit == ImplicitTorus((5, 5))
        assert hash(implicit) == hash(ImplicitTorus((5, 5)))
