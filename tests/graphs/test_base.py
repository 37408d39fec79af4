"""Tests for the CSR :class:`~repro.graphs.Graph` type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphConstructionError, GraphPropertyError
from repro.graphs.base import Graph, uniform_draws
from repro.graphs import generators
from repro.graphs.build import from_edges
from repro.graphs.implicit import ImplicitHypercube, ImplicitTorus

from tests.properties.strategies import int32_twin


def triangle() -> Graph:
    return from_edges(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


class TestConstruction:
    def test_adjacency_lists_roundtrip(self):
        graph = Graph.from_adjacency_lists([[1, 2], [0, 2], [0, 1]])
        assert graph.n_vertices == 3
        assert graph.n_edges == 3
        assert list(graph.neighbors(0)) == [1, 2]

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphConstructionError, match="indptr"):
            Graph(np.array([1, 2, 4]), np.array([1, 0, 0]))

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(GraphConstructionError, match="out of range"):
            Graph(np.array([0, 1, 2]), np.array([5, 0]))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            Graph.from_adjacency_lists([[0, 1], [0]])

    def test_parallel_edge_rejected(self):
        with pytest.raises(GraphConstructionError, match="duplicate"):
            Graph.from_adjacency_lists([[1, 1], [0, 0]])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphConstructionError, match="symmetric"):
            Graph.from_adjacency_lists([[1], []])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(GraphConstructionError, match="at least one vertex"):
            Graph(np.array([0]), np.array([], dtype=np.int64))

    def test_single_vertex_graph_allowed(self):
        graph = Graph.from_adjacency_lists([[]])
        assert graph.n_vertices == 1
        assert graph.n_edges == 0


class TestAccessors:
    def test_counts(self):
        graph = triangle()
        assert graph.n_vertices == 3
        assert graph.n_edges == 3

    def test_degrees(self):
        graph = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert list(graph.degrees) == [3, 1, 1, 1]
        assert graph.degree(0) == 3
        assert graph.min_degree == 1
        assert graph.max_degree == 3

    def test_regularity(self):
        assert triangle().is_regular
        assert triangle().regular_degree == 2
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert not star.is_regular
        with pytest.raises(GraphPropertyError, match="not regular"):
            _ = star.regular_degree

    def test_neighbors_sorted(self):
        graph = from_edges(5, [(4, 0), (2, 0), (0, 1)])
        assert list(graph.neighbors(0)) == [1, 2, 4]

    def test_neighbors_is_readonly_view(self):
        graph = triangle()
        with pytest.raises(ValueError):
            graph.neighbors(0)[0] = 5

    def test_has_edge(self):
        graph = triangle()
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 0)
        graph2 = from_edges(4, [(0, 1), (2, 3)])
        assert not graph2.has_edge(0, 3)

    @pytest.mark.parametrize(
        "graph", [generators.hypercube(3), ImplicitHypercube(3)], ids=["csr", "implicit"]
    )
    @pytest.mark.parametrize(
        "vertex",
        # NumPy integers too: the event engine reads ids out of arrays.
        [-1, 8, np.int64(-1), np.int64(8)],
        ids=["-1", "8", "np-1", "np8"],
    )
    def test_single_vertex_reads_reject_out_of_range_ids(self, graph, vertex):
        with pytest.raises(IndexError):
            graph.degree(vertex)
        with pytest.raises(IndexError):
            graph.neighbors(vertex)
        with pytest.raises(IndexError):
            graph.has_edge(vertex, 4)
        with pytest.raises(IndexError):
            graph.has_edge(4, vertex)

    def test_edges_iterates_each_once(self):
        edges = list(triangle().edges())
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_neighbor_matrix_regular(self):
        graph = triangle()
        matrix = graph.neighbor_matrix
        assert matrix.shape == (3, 2)
        assert sorted(matrix[0]) == [1, 2]

    def test_neighbor_matrix_requires_regular(self):
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(GraphPropertyError):
            _ = star.neighbor_matrix

    def test_repr_contains_shape(self):
        assert "n=3" in repr(triangle())
        assert "r=2" in repr(triangle())

    def test_equality_and_hash(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())
        other = from_edges(3, [(0, 1), (1, 2)])
        assert triangle() != other

    def test_arrays_immutable(self):
        graph = triangle()
        with pytest.raises(ValueError):
            graph.indices[0] = 9
        with pytest.raises(ValueError):
            graph.indptr[0] = 9


def _expanded_rows(graph, vertices):
    """The reference ``neighborhoods``: each vertex's ``indptr``/``indices`` slice."""
    rows = [graph.indices[graph.indptr[v] : graph.indptr[v + 1]] for v in vertices]
    flat = np.concatenate(rows) if rows else np.empty(0)
    return np.diff(graph.indptr)[vertices], flat.astype(np.int64)


class TestNeighborhoods:
    """Regular CSR graphs gather ``neighbor_matrix`` rows; others expand slices.

    Both paths must return the rows' slices of ``indices`` as int64, in
    query order, for ``int64`` and ``int32`` storage.
    """

    GRAPHS = {
        "rr40-6": lambda: generators.random_regular(40, 6, seed=5),
        "q4-int32": lambda: int32_twin(generators.hypercube(4)),
        "irregular": lambda: generators.barabasi_albert(30, 2, seed=6),
    }

    @pytest.mark.parametrize(
        "vertices",
        [[3, 0, 3, 7, 3], [], [5], list(range(16))],
        ids=["repeated", "empty", "single", "all"],
    )
    @pytest.mark.parametrize("graph_name", list(GRAPHS))
    def test_equals_row_expansion(self, graph_name, vertices):
        graph = self.GRAPHS[graph_name]()
        vertices = np.asarray(vertices, dtype=np.int64)
        counts, flat = graph.neighborhoods(vertices)
        expected_counts, expected_flat = _expanded_rows(graph, vertices)
        assert counts.dtype == flat.dtype == np.dtype(np.int64)
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(flat, expected_flat)


@pytest.mark.parametrize("bad", ["n", "-1"])
@pytest.mark.parametrize("graph_name", list(TestNeighborhoods.GRAPHS))
def test_reads_reject_ids_outside_the_graph(graph_name, bad, rng):
    # A negative id must not wrap to a row at the end of ``indices``.
    graph = TestNeighborhoods.GRAPHS[graph_name]()
    vertices = np.array([0, graph.n_vertices if bad == "n" else -1])
    with pytest.raises(IndexError):
        graph.sample_neighbors(vertices, 2, rng)
    with pytest.raises(IndexError):
        graph.neighborhoods(vertices)


class TestSampleNeighbors:
    def test_shape(self, rng):
        graph = triangle()
        picks = graph.sample_neighbors(np.array([0, 1]), 4, rng)
        assert picks.shape == (2, 4)

    def test_samples_are_neighbors(self, rng):
        graph = from_edges(5, [(0, 1), (0, 2), (3, 4), (0, 3)])
        picks = graph.sample_neighbors(np.array([0] * 50), 3, rng)
        assert set(np.unique(picks)) <= {1, 2, 3}

    def test_empty_vertex_list(self, rng):
        picks = triangle().sample_neighbors(np.array([], dtype=np.int64), 2, rng)
        assert picks.shape == (0, 2)

    def test_rejects_bad_k(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            triangle().sample_neighbors(np.array([0]), 0, rng)

    def test_rejects_isolated_vertex(self, rng):
        graph = from_edges(3, [(0, 1)])
        with pytest.raises(GraphPropertyError, match="isolated"):
            graph.sample_neighbors(np.array([2]), 1, rng)

    def test_approximately_uniform(self, rng):
        graph = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        picks = graph.sample_neighbors(np.array([0] * 30000), 1, rng).ravel()
        counts = np.bincount(picks, minlength=4)
        assert counts[0] == 0
        for target in (1, 2, 3):
            assert abs(counts[target] / 30000 - 1 / 3) < 0.02

    def test_duplicate_vertices_sample_independently(self, rng):
        graph = from_edges(3, [(0, 1), (0, 2), (1, 2)])
        picks = graph.sample_neighbors(np.array([0, 0, 0, 0]), 2, rng)
        assert picks.shape == (4, 2)
        assert set(np.unique(picks)) <= {1, 2}


def _integers_word_draws(rng, bound, count, width):
    """Bit-sliced draws from ``Generator.integers`` words: the reference stream."""
    bits = bound.bit_length() - 1
    per_word = 64 // bits
    total = count * width
    words = rng.integers(0, 2**64, size=-(-total // per_word), dtype=np.uint64)
    shifts = np.arange(per_word, dtype=np.uint64) * np.uint64(bits)
    draws = (words[:, None] >> shifts) & np.uint64(bound - 1)
    return draws.astype(np.int64).ravel()[:total].reshape(count, width)


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return bool(np.array_equal(a, b))


class TestUniformDraws:
    """Power-of-two bounds read raw words where the bit generator allows it.

    For PCG64, PCG64DXSM, Philox and SFC64 each ``random_raw`` output is
    the word ``integers(0, 2**64, dtype=uint64)`` returns; MT19937 keeps
    the ``integers`` path.  Either way the draws and the generator state
    afterwards must equal the ``integers`` reference, also when other
    draws are interleaved.
    """

    REQUESTS = [(8, 16, 1), (4, 3, 2), (2, 70, 1), (16, 0, 2), (64, 5, 3), (8, 1, 1)]

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
         np.random.MT19937],
    )
    def test_matches_integers_words_and_state(self, bit_generator):
        fast = np.random.Generator(bit_generator(2016))
        reference = np.random.Generator(bit_generator(2016))
        for bound, count, width in self.REQUESTS:
            # Interleave float and bounded-integer draws, which buffer
            # half-words in some bit generators.
            assert np.array_equal(fast.random(3), reference.random(3))
            assert np.array_equal(fast.integers(0, 6, 5), reference.integers(0, 6, 5))
            drawn = uniform_draws(fast, bound, count, width)
            expected = _integers_word_draws(reference, bound, count, width)
            assert drawn.dtype == np.int64
            assert drawn.shape == (count, width)
            assert np.array_equal(drawn, expected)
        assert _same_state(fast.bit_generator.state, reference.bit_generator.state)
        assert fast.random() == reference.random()


def _chained_walk(graph, vertices, rounds, rng):
    """The reference walk: one ``sample_neighbors`` call per round."""
    rows = []
    for _ in range(rounds):
        vertices = graph.sample_neighbors(vertices, 1, rng)[:, 0]
        rows.append(vertices)
    return np.array(rows, dtype=np.int64).reshape(rounds, len(vertices))


class TestWalk:
    """``Graph.walk`` is chained ``sample_neighbors``, draw for draw.

    The raw-word path (power-of-two degree on CSR, with PCG64,
    PCG64DXSM, Philox or SFC64) draws every round's words in one call;
    the trajectory and the generator state afterwards must still equal
    the chained calls', for every graph and bit generator.
    """

    GRAPHS = {
        "rr64-8": lambda: generators.random_regular(64, 8, seed=1),
        "rr64-16": lambda: generators.random_regular(64, 16, seed=4),
        "q4-int32": lambda: int32_twin(generators.hypercube(4)),
        "rr60-5": lambda: generators.random_regular(60, 5, seed=2),
        "irregular": lambda: generators.barabasi_albert(50, 2, seed=3),
        "implicit": lambda: ImplicitTorus((4, 5)),
    }

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
         np.random.MT19937],
    )
    @pytest.mark.parametrize("graph_name", list(GRAPHS))
    def test_equals_chained_sample_neighbors(self, graph_name, bit_generator):
        graph = self.GRAPHS[graph_name]()
        walked = np.random.Generator(bit_generator(2016))
        reference = np.random.Generator(bit_generator(2016))
        # Walker counts below, at and above one word of draws, a long
        # request (the walk kernel's blocks reach 256 rounds), and
        # zero-length requests; other draws interleave.
        requests = [(1, 9), (16, 7), (21, 3), (70, 2), (16, 300), (0, 4), (5, 0)]
        for walkers, rounds in requests:
            assert walked.random() == reference.random()
            vertices = np.arange(walkers) % graph.n_vertices
            trajectory = graph.walk(vertices, rounds, walked)
            assert trajectory.dtype == np.int64
            assert trajectory.shape == (rounds, walkers)
            assert np.array_equal(trajectory, _chained_walk(graph, vertices, rounds, reference))
        assert _same_state(walked.bit_generator.state, reference.bit_generator.state)
        assert walked.random() == reference.random()

    @pytest.mark.parametrize("graph_name", [name for name in GRAPHS if name != "implicit"])
    def test_rejects_out_of_range_starts(self, graph_name, rng):
        graph = self.GRAPHS[graph_name]()
        n = graph.n_vertices
        with pytest.raises(IndexError):
            _chained_walk(graph, np.array([n]), 3, np.random.default_rng(0))
        for starts in ([n], [0, n], [-1]):
            with pytest.raises(IndexError):
                graph.walk(np.array(starts), 3, rng)


class TestAdoptValidatedCsr:
    def test_adopts_without_copy(self, petersen):
        adopted = Graph.adopt_validated_csr(
            petersen.indptr, petersen.indices, name="adopted"
        )
        assert adopted == petersen
        assert np.shares_memory(adopted.indices, petersen.indices)
        assert adopted.regular_degree == 3

    def test_rejects_malformed_frame(self):
        with pytest.raises(Exception, match="indptr"):
            Graph.adopt_validated_csr(np.asarray([0, 2]), np.asarray([1]))
