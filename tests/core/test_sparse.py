"""Tests for the sparse rounds of the COBRA/BIPS round engine.

Every shard opens in sparse rounds (pair lists, a coverage bitset, the
k = 1 walk blocks) and finishes in the dense loop once its frontier
fills (``tests/core/test_round_switch.py`` moves that switch over every
round).  The sparse rounds draw in the dense loop's ascending (replica,
vertex) order — COBRA its picks and coins, BIPS one uniform per armed
vertex — so the comparisons here run each side alone: the sparse entry
points with every shard held in its sparse rounds (``_SPARSE``) against
the batch entry points with every shard in the dense loop from round 1
(``_DENSE``), the per-round reference.  The shard contract —
seed-stable, ``jobs``-invariant — is bit-exact for both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import batch as batch_module
from repro.core.batch import (
    _DENSE,
    _SPARSE,
    CobraLaw,
    _cobra_shard,
    batch_bips_infection_times,
    batch_cobra_cover_times,
)
from repro.core.sparse import (
    KeyDeduper,
    sorted_unique,
    sparse_bips_infection_times,
    sparse_cobra_cover_times,
)
from repro.errors import (
    CoverTimeoutError,
    ExperimentError,
    GraphPropertyError,
    InfectionTimeoutError,
)
from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover
from repro.graphs import complete, from_edges, generators
from repro.graphs.implicit import ImplicitHypercube, ImplicitTorus

from tests.properties.strategies import int32_twin


def _forced(switch, engine, *args, **kwargs):
    """One engine call whose shards all run under ``switch``."""
    with mock.patch.object(batch_module, "_SWITCH", switch):
        return engine(*args, **kwargs)


def _sparse_rounds(engine, *args, **kwargs):
    """``engine`` with every shard held in its sparse rounds."""
    return _forced(_SPARSE, engine, *args, **kwargs)


def _dense_loop(engine, *args, **kwargs):
    """``engine`` with every shard in the per-round dense loop from round 1."""
    return _forced(_DENSE, engine, *args, **kwargs)


#: Graphs for the COBRA bit-identity check: regular with power-of-two
#: and other degrees, irregular, ``int32`` indices, and implicit.
COBRA_GRAPHS = {
    "rr64-4": lambda: generators.random_regular(64, 4, seed=7),
    "rr60-5": lambda: generators.random_regular(60, 5, seed=8),
    "star5": lambda: generators.star(5),
    "q4-int32": lambda: int32_twin(generators.hypercube(4)),
    "implicit-q5": lambda: ImplicitHypercube(5),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("include_start", [False, True], ids=["paper", "with-start"])
@pytest.mark.parametrize("branching", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("graph_name", list(COBRA_GRAPHS))
def test_sparse_cobra_equals_batch(graph_name, branching, include_start, jobs):
    # Both engines draw picks and branching coins in ascending
    # (replica, vertex) order from the same shard streams.
    graph = COBRA_GRAPHS[graph_name]()
    kwargs = dict(
        branching=branching,
        n_replicas=24,
        seed=31,
        shard_size=8,
        include_start_in_cover=include_start,
        jobs=jobs,
    )
    sparse = _sparse_rounds(sparse_cobra_cover_times, graph, 0, **kwargs)
    batch = _dense_loop(batch_cobra_cover_times, graph, 0, **kwargs)
    assert np.array_equal(sparse, batch)


@pytest.mark.parametrize("branching", [2.5, 3.0])
@pytest.mark.parametrize(
    "factory",
    [
        lambda: generators.random_regular(256, 8, seed=1),
        lambda: generators.random_regular(300, 5, seed=2),
        lambda: generators.hypercube(8),
        lambda: generators.torus((9, 11)),
        lambda: generators.barabasi_albert(200, 3, seed=3),
    ],
    ids=["rr256-8", "rr300-5", "q8", "torus9x11", "ba200-3"],
)
def test_sparse_cobra_equals_batch_on_larger_graphs(factory, branching):
    graph = factory()
    kwargs = dict(branching=branching, n_replicas=16, seed=41)
    sparse = _sparse_rounds(sparse_cobra_cover_times, graph, 0, **kwargs)
    assert np.array_equal(sparse, _dense_loop(batch_cobra_cover_times, graph, 0, **kwargs))


#: Graphs for the walk kernel: power-of-two degree (one draw call per
#: block, ``int64`` and ``int32`` indices), odd degree, irregular, and
#: implicit.
WALK_GRAPHS = {
    "petersen": generators.petersen,
    "rr32-4": lambda: generators.random_regular(32, 4, seed=3),
    "q4-int32": lambda: int32_twin(generators.hypercube(4)),
    "grid3x4": lambda: generators.grid((3, 4)),
    "implicit-torus3x5": lambda: ImplicitTorus((3, 5)),
}


@pytest.fixture(scope="module")
def long_walk():
    """rr(256, 4) at k = 1, with the per-round dense loop's uncapped and capped times.

    Every replica needs over 1,024 rounds to cover, so a shard's run
    spans several blocks of the longest length: blocks reach the cap,
    are cut by finishes and grow back.  The caps fall at the first and
    last finishes, one round before each, and inside a block.
    """
    graph = generators.random_regular(256, 4, seed=9)
    kwargs = dict(branching=1.0, n_replicas=8, seed=23, shard_size=4, raise_on_timeout=False)
    uncapped = _dense_loop(batch_cobra_cover_times, graph, 0, **kwargs)
    assert uncapped.min() > 1024
    caps = {300} | {int(t) + delta for t in (uncapped.min(), uncapped.max()) for delta in (-1, 0)}
    expected = {
        cap: _dense_loop(batch_cobra_cover_times, graph, 0, max_rounds=cap, **kwargs)
        for cap in caps
    }
    expected[None] = uncapped
    return graph, kwargs, expected


class TestWalkKernel:
    """Single-token COBRA steps in blocks of rounds with the per-round bits.

    The dense loop steps one round at a time, so it is the reference: a
    block cut short by a finishing replica must keep only the rounds up
    to that finish and rewind the generator, and no block may step past
    ``max_rounds``.  The walk side is held in its sparse rounds, because
    on graphs this small the paper's switch is due before round 1 and
    would run the dense loop instead of the blocks.
    """

    @staticmethod
    def _both(graph, **kwargs):
        kwargs = dict(branching=1.0, raise_on_timeout=False, **kwargs)
        return (
            _sparse_rounds(sparse_cobra_cover_times, graph, 0, **kwargs),
            _dense_loop(batch_cobra_cover_times, graph, 0, **kwargs),
        )

    @pytest.mark.parametrize("include_start", [False, True], ids=["paper", "with-start"])
    @pytest.mark.parametrize("graph_name", list(WALK_GRAPHS))
    def test_caps_at_each_replicas_cover_time(self, graph_name, include_start):
        # A cap at a replica's own cover time makes it finish exactly at
        # the cap; one round less times it out.
        graph = WALK_GRAPHS[graph_name]()
        kwargs = dict(n_replicas=12, seed=17, shard_size=6, include_start_in_cover=include_start)
        sparse, uncapped = self._both(graph, **kwargs)
        assert np.array_equal(sparse, uncapped)
        caps = sorted({int(t) + delta for t in uncapped for delta in (-1, 0, 1)} - {0})
        mixed = 0
        for cap in caps:
            sparse, batch = self._both(graph, max_rounds=cap, **kwargs)
            assert np.array_equal(sparse, batch), cap
            mixed += bool((batch == cap).any() and (batch == -1).any())
        assert mixed

    @pytest.mark.parametrize(
        "min_block, max_block", [(4, 4), (4, 64), (4, 256), (64, 1024)]
    )
    def test_block_bounds_keep_the_per_round_bits(
        self, long_walk, monkeypatch, min_block, max_block
    ):
        monkeypatch.setattr("repro.core.sparse._MIN_BLOCK", min_block)
        monkeypatch.setattr("repro.core.sparse._MAX_BLOCK", max_block)
        graph, kwargs, expected = long_walk
        for cap, times in expected.items():
            sparse = _sparse_rounds(sparse_cobra_cover_times, graph, 0, max_rounds=cap, **kwargs)
            assert np.array_equal(sparse, times), cap

    @pytest.mark.parametrize("include_start", [False, True], ids=["paper", "with-start"])
    def test_one_replica(self, include_start):
        graph = generators.random_regular(64, 8, seed=2)
        sparse, batch = self._both(
            graph, n_replicas=1, seed=4, include_start_in_cover=include_start
        )
        assert np.array_equal(sparse, batch)

    def test_two_replicas_finish_in_the_same_round(self):
        graph = generators.cycle(5)
        sparse, batch = self._both(graph, n_replicas=16, seed=3, shard_size=16)
        assert np.unique(batch).size < batch.size
        assert np.array_equal(sparse, batch)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pooled_shards(self, jobs):
        # Pooled shards receive the graph inside the call's one pickle.
        graph = generators.random_regular(128, 8, seed=5)
        sparse, batch = self._both(graph, n_replicas=12, seed=8, shard_size=4, jobs=jobs)
        assert np.array_equal(sparse, batch)

    @pytest.mark.parametrize("include_start", [False, True], ids=["paper", "with-start"])
    def test_mt19937_takes_the_chained_draws(self, include_start):
        # MT19937's raw output is 32-bit, so on this power-of-two graph
        # the block's words must come from ``integers``, not ``random_raw``.
        # The walk blocks run under the never-due switch, the per-round
        # dense loop under the switch due at round 1.
        graph = generators.hypercube(4)
        max_rounds = 5_000

        def cover_times(switch):
            context = (graph, 0, 1, 0.0, max_rounds, include_start, False, None, CobraLaw(), switch)
            return _cobra_shard(context, 0, 12, np.random.Generator(np.random.MT19937(11)))

        walk = cover_times(_SPARSE)
        batch = cover_times(_DENSE)
        assert np.all(batch > 0)
        assert np.array_equal(walk, batch)

    def test_never_imports_scipy(self):
        script = (
            "import sys\n"
            "from repro.core.sparse import sparse_cobra_cover_times\n"
            "from repro.graphs.generators import random_regular\n"
            "graph = random_regular(256, 8, seed=1)\n"
            "sparse_cobra_cover_times(graph, 0, branching=1.0, n_replicas=4, seed=1)\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "False"


#: Graphs for the BIPS bit-identity check: regular CSR with ``int64``
#: and ``int32`` indices, implicit, and irregular (a grid, and a
#: preferential-attachment graph with hubs).
BIPS_GRAPHS = {
    "rr64-4": lambda: generators.random_regular(64, 4, seed=7),
    "q4-int32": lambda: int32_twin(generators.hypercube(4)),
    "implicit-q5": lambda: ImplicitHypercube(5),
    "grid7x9": lambda: generators.grid((7, 9)),
    "ba60-2": lambda: generators.barabasi_albert(60, 2, seed=3),
}


def _assert_sparse_bips_equals_batch(graph_name, branching, shard_size, jobs):
    graph = BIPS_GRAPHS[graph_name]()
    kwargs = dict(
        branching=branching, n_replicas=24, seed=31, shard_size=shard_size, jobs=jobs
    )
    sparse = _sparse_rounds(sparse_bips_infection_times, graph, 0, **kwargs)
    assert np.array_equal(sparse, _dense_loop(batch_bips_infection_times, graph, 0, **kwargs))


class TestBatchAgreement:
    """Sparse BIPS rounds return the dense loop's bits, configuration by configuration.

    Both draw one uniform per armed (replica, vertex) pair in ascending
    order and look up the same infection thresholds.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("shard_size", [8, None])
    @pytest.mark.parametrize("branching", [1.0, 2.0])
    @pytest.mark.parametrize("graph_name", list(BIPS_GRAPHS))
    def test_bips_matches_batch_engine(self, graph_name, branching, shard_size, jobs):
        _assert_sparse_bips_equals_batch(graph_name, branching, shard_size, jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("shard_size", [8, None])
    @pytest.mark.parametrize("graph_name", list(BIPS_GRAPHS))
    def test_fractional_bips_agrees_too(self, graph_name, shard_size, jobs):
        _assert_sparse_bips_equals_batch(graph_name, 1.5, shard_size, jobs)

    def test_implicit_graph_agrees_with_materialised(self):
        implicit = ImplicitTorus((7, 7))
        concrete = generators.torus((7, 7))
        a = sparse_cobra_cover_times(implicit, 0, n_replicas=64, seed=9)
        b = sparse_cobra_cover_times(concrete, 0, n_replicas=64, seed=9)
        # Same graph, same seeds, same engine: bit-identical, not just close.
        assert np.array_equal(a, b)


class TestDeterminism:
    def test_cobra_jobs_invariant(self, small_expander):
        inline = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=1, shard_size=6
        )
        pooled = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=4, shard_size=6
        )
        assert np.array_equal(inline, pooled)

    def test_bips_jobs_invariant(self, small_expander):
        inline = sparse_bips_infection_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=1, shard_size=6
        )
        pooled = sparse_bips_infection_times(
            small_expander, 0, n_replicas=24, seed=5, jobs=4, shard_size=6
        )
        assert np.array_equal(inline, pooled)

    def test_shard_size_does_not_change_results(self, small_expander):
        a = sparse_cobra_cover_times(small_expander, 0, n_replicas=24, seed=5)
        b = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, shard_size=5
        )
        # Sharding is seed-stable only per (n_replicas, shard_size): the
        # default shard plan and an explicit one agree in distribution,
        # and identical plans agree exactly.
        c = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=24, seed=5, shard_size=5
        )
        assert np.array_equal(b, c)
        assert a.shape == b.shape


class TestValidationAndTimeouts:
    def test_cobra_timeout_type(self, small_expander):
        with pytest.raises(CoverTimeoutError):
            sparse_cobra_cover_times(
                small_expander, 0, n_replicas=4, seed=0, max_rounds=1
            )

    def test_bips_timeout_type(self, small_expander):
        with pytest.raises(InfectionTimeoutError):
            sparse_bips_infection_times(
                small_expander, 0, n_replicas=4, seed=0, max_rounds=1
            )

    def test_bips_isolated_vertex_raises(self):
        # Vertex 4 has no neighbour: raise up front instead of running
        # to the round cap.
        graph = from_edges(5, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphPropertyError, match="isolated vertex 4"):
            sparse_bips_infection_times(graph, 0, n_replicas=4, seed=0)

    def test_timeouts_marked_minus_one_when_not_raising(self, small_expander):
        times = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=4, seed=0, max_rounds=1,
            raise_on_timeout=False,
        )
        assert np.all(times == -1)

    def test_replica_count_validated(self, small_expander):
        with pytest.raises(ValueError, match="n_replicas"):
            sparse_cobra_cover_times(small_expander, 0, n_replicas=0)
        with pytest.raises(ValueError, match="n_replicas"):
            sparse_bips_infection_times(small_expander, 0, n_replicas=0)

    def test_start_vertex_validated(self, small_expander):
        with pytest.raises(Exception, match="start"):
            sparse_cobra_cover_times(small_expander, 10_000, n_replicas=2)

    def test_complete_graph_fast_paths(self):
        graph = complete(8)
        cover = sparse_cobra_cover_times(graph, 0, n_replicas=16, seed=1)
        infect = sparse_bips_infection_times(graph, 0, n_replicas=16, seed=1)
        assert np.all(cover >= 1)
        assert np.all(infect >= 1)


class TestEngineSeam:
    def test_measure_cobra_accepts_sparse(self, small_expander):
        direct = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=12, seed=(0, 1)
        )
        seamed = measure_cobra_cover(
            small_expander, n_samples=12, seed=(0, 1), engine="sparse"
        )
        assert np.array_equal(direct, seamed.times)

    def test_measure_bips_accepts_sparse(self, small_expander):
        direct = sparse_bips_infection_times(
            small_expander, 0, n_replicas=12, seed=(0, 2)
        )
        seamed = measure_bips_infection(
            small_expander, n_samples=12, seed=(0, 2), engine="sparse"
        )
        assert np.array_equal(direct, seamed.times)

    def test_sparse_rejects_rate_options(self, small_expander):
        with pytest.raises(ExperimentError, match="engine='event'"):
            measure_cobra_cover(
                small_expander, n_samples=4, engine="sparse", transmission_rate=2.0
            )

    def test_engine_error_names_sparse(self, small_expander):
        with pytest.raises(ExperimentError, match="'sparse'"):
            measure_cobra_cover(small_expander, n_samples=4, engine="bogus")


class TestKeyDedupe:
    """The kernels' dedupe returns exactly what ``np.unique`` would."""

    UNIVERSE = 8192
    INPUTS = {
        "empty": lambda rng: np.empty(0, dtype=np.int64),
        "single": lambda rng: np.array([4321], dtype=np.int64),
        "all-duplicate": lambda rng: np.full(2000, 77, dtype=np.int64),
        "sparse": lambda rng: rng.integers(0, 8192, size=40),
        "dense": lambda rng: rng.integers(0, 8192, size=6000),
        "dense-edges": lambda rng: np.concatenate([np.arange(8192), [0, 8191]]),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_sorted_unique_equals_np_unique(self, name, rng):
        keys = self.INPUTS[name](rng)
        expected = np.unique(keys)
        assert np.array_equal(sorted_unique(keys.copy()), expected)

    def test_deduper_equals_np_unique_and_clears_marks(self, rng):
        dedupe = KeyDeduper(self.UNIVERSE)
        for name in ["sparse", "dense", "empty", "single", "all-duplicate", "dense-edges", "dense"]:
            keys = self.INPUTS[name](rng)
            expected = np.unique(keys)
            distinct = dedupe(keys.copy())
            assert np.array_equal(distinct, expected), name
            assert distinct.dtype == np.int64
            if dedupe.marks is not None:
                assert not dedupe.marks.any(), name

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_counted_equals_np_unique_with_counts(self, name, rng):
        # Sparse inputs take the run-length path, dense ones the tally.
        keys = self.INPUTS[name](rng)
        expected_keys, expected_counts = np.unique(keys, return_counts=True)
        distinct, counts = KeyDeduper(self.UNIVERSE).counted(keys.copy())
        assert np.array_equal(distinct, expected_keys)
        assert np.array_equal(counts, expected_counts)
        assert counts.dtype == np.int64

    def test_mark_array_only_for_dense_inputs(self, rng):
        dedupe = KeyDeduper(self.UNIVERSE)
        dedupe(rng.integers(0, self.UNIVERSE, size=self.UNIVERSE // 8 - 1))
        assert dedupe.marks is None
        dedupe(rng.integers(0, self.UNIVERSE, size=self.UNIVERSE // 8))
        assert dedupe.marks is not None and dedupe.marks.size == self.UNIVERSE
