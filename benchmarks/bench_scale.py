"""Million-vertex scale benchmarks: the round engine + implicit topologies.

Every round-engine shard opens in sparse rounds, whose cost tracks the
active frontier, and finishes in the dense loop, which pays O(R·n) per
round, once its frontier fills ``repro.core.batch._SWITCH``'s share of
its live cells; the k = 1 walk stays in its blocks.  The implicit graph
backends make the substrate itself O(1) memory.  The cells that compare
representations force one by patching ``_SWITCH``: ``_DENSE`` holds
every shard in the per-round dense loop from round 1, ``_SPARSE`` in
its sparse rounds.  Five cells frame the claim:

* **Cover ladder** (the scale deliverable): full COBRA cover on
  implicit 3-D tori from ~3·10^4 up to ~10^6 vertices through
  ``sparse_cobra_cover_times``, reporting vertices/second and the peak
  RSS.  The top rung is the million-vertex row — the graph is never
  materialised and the run must stay far under 8 GB (asserted at real
  scale).
* **Sparse-walk cell** (the asserted bar): a single COBRA token
  (``branching = 1.0``) exploring a 512x512 torus for a fixed horizon.
  The frontier is one vertex, so the engine's walk blocks must beat the
  per-round dense loop by ``>= 5x`` (≈320–550x over five full runs,
  ≈590x in earlier rows with the block walk kernel stepping a table of
  shifted row starts, ≈340x with its earlier multiply-add step, ≈40x on
  the per-round sparse kernel before it).  The walk side is a few
  milliseconds, so each of its samples runs it ``WALK_CALLS`` times,
  interleaved with the dense side, and the medians are compared.
* **Walk-shard cell** (reported only): full ``k = 1`` cover of a
  512-vertex 8-regular expander with 16, 64 and 256 replicas in one
  shard, medians of ``WALK_SAMPLES`` interleaved runs.  More replicas
  mean more finishes, each of which cuts a walk block short, so this
  is where the block walk kernel gains least.
  Full-scale runs also report ``PER_ROUND_KERNEL``, this cell, the
  sparse-walk cell and the ladder measured on the per-round kernel.
* **Dense-cover cell** (the honest control): COBRA ``k = 2`` full
  cover on a 1024-vertex expander, where the frontier reaches Theta(n)
  within a few rounds.  The benchmark *asserts that the engine beats
  its own sparse rounds run to the end* (``batch_advantage``, ≈1.9x in
  the committed rows, when that side was the sparse engine of its day),
  i.e. that the switch leaves them here, and reports the engine against
  the dense loop from round 1 (``gain_over_dense_loop``).
* **Memmap power-law cell**: a Barabasi-Albert graph saved with
  :func:`~repro.graphs.io.save_graph_memmap` and run through the
  sparse engine with a worker pool — spawn workers re-map the same
  files (the graph pickles as a path), so resident memory stays one
  copy of the CSR regardless of ``jobs``.

Every run also asserts the seed-stable contract — ``jobs=1`` and
``jobs=4`` bit-identical times through both the implicit and the
memmap shipping paths — and writes the measured matrix to
``benchmarks/out/BENCH_scale.json``.  ``REPRO_BENCH_QUICK=1`` shrinks
the ladder to ~10^5 vertices and skips the timing bars (CI runs it
that way).
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks._root_summary import write_root_summary
from benchmarks._timing import interleaved_medians, switched
from repro.core import batch as batch_module
from repro.core.batch import batch_cobra_cover_times
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.graphs.generators import barabasi_albert, random_regular, torus
from repro.graphs.implicit import ImplicitTorus
from repro.graphs.io import load_graph_memmap, save_graph_memmap

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
OUT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_scale.json"

# Cover ladder: implicit 3-D tori, full cover, top rung at ~10^6.
# (side, replicas) — the million-vertex rung runs one replica: a full
# cover there is ~10 s and the ladder is about the rate, not the CI.
LADDER = (
    ((17, 2), (31, 2), (47, 2)) if BENCH_QUICK else ((31, 2), (47, 2), (101, 1))
)
RSS_LIMIT_BYTES = 8 * 1024**3

# Sparse-walk cell: one token on a large torus, fixed horizon.
SPARSE_SIDE = 128 if BENCH_QUICK else 512
SPARSE_HORIZON = 500 if BENCH_QUICK else 2000
SPARSE_REPLICAS = 2 if BENCH_QUICK else 4
SPARSE_BAR = 5.0
#: Walk-side calls per interleaved sample, and samples per side.
WALK_CALLS = 5
WALK_SAMPLES = 2 if BENCH_QUICK else 7

# Walk-shard cell: full k = 1 cover, every replica in one shard,
# reported only.
WALK_SHARD_N = 512
WALK_SHARD_REPLICAS = (16, 64, 256)

#: The full-size cells measured with this code on the per-round sparse
#: COBRA kernel, the reference point of the block walk kernel that now
#: runs ``branching = 1``: the median of three runs on a 2-core Xeon.
#: The ladder runs k = 2, whose kernel did not change.
PER_ROUND_KERNEL = {
    "sparse_walk": {"batch_seconds": 2.44869, "sparse_seconds": 0.06218},
    "walk_shards": {
        "seconds_16_replicas": 0.1533,
        "seconds_64_replicas": 0.18925,
        "seconds_256_replicas": 0.27452,
    },
    "cover_ladder_seconds": [0.198, 1.155, 13.466],
}

# Dense-cover cell: the regime where the engine must leave its sparse rounds.
DENSE_N = 256 if BENCH_QUICK else 1024
DENSE_REPLICAS = 8 if BENCH_QUICK else 32
DENSE_SAMPLES = 3 if BENCH_QUICK else 15

# Memmap power-law cell: BA graph shipped to workers as a path.
POWER_LAW_N = 20_000 if BENCH_QUICK else 200_000
POWER_LAW_ATTACH = 4
POWER_LAW_HORIZON = 32

DEGREE = 8
JOBS = 4


def _max_rss_bytes() -> int:
    # ru_maxrss is kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@pytest.fixture(scope="module")
def walk_cell():
    return torus((SPARSE_SIDE, SPARSE_SIDE))


@pytest.fixture(scope="module")
def walk_shard_cell():
    return random_regular(WALK_SHARD_N, DEGREE, seed=6)


@pytest.fixture(scope="module")
def dense_cell():
    return random_regular(DENSE_N, DEGREE, seed=4)


def bench_scale_million_vertex_cover(benchmark):
    """Full COBRA cover on the ladder's top implicit torus rung."""
    side, replicas = LADDER[-1]
    graph = ImplicitTorus((side, side, side))
    benchmark.pedantic(
        lambda: sparse_cobra_cover_times(
            graph, 0, n_replicas=replicas, seed=0, max_rounds=20_000
        ),
        rounds=1,
        iterations=1,
    )


def bench_scale_matrix_and_bars(benchmark, walk_cell, walk_shard_cell, dense_cell):
    """The scale matrix: ladder, speed bars, memmap cell, determinism.

    Asserts (real scale only):

    * the million-vertex ladder rung finishes with peak RSS under 8 GB;
    * sparse-walk cell: the walk blocks beat the per-round dense loop
      by ``>= 5x``;
    * dense-cover cell: the engine beats its sparse rounds run to the
      end, so the switch leaves them;
    * always: jobs=1 vs jobs=4 bit-identical times through both the
      implicit-graph and memmap-graph worker shipping paths.
    """

    def measure() -> dict:
        matrix: dict = {"quick": BENCH_QUICK, "cpu_count": os.cpu_count(), "jobs": JOBS}

        # -- cover ladder: vertices/second vs n ----------------------
        ladder_rows = []
        for side, replicas in LADDER:
            graph = ImplicitTorus((side, side, side))
            started = time.perf_counter()
            times = sparse_cobra_cover_times(
                graph, 0, n_replicas=replicas, seed=0, max_rounds=20_000
            )
            elapsed = time.perf_counter() - started
            ladder_rows.append(
                {
                    "n": graph.n_vertices,
                    "replicas": replicas,
                    "mean_cover_rounds": round(float(times.mean()), 1),
                    "seconds": round(elapsed, 3),
                    "vertices_per_second": round(
                        graph.n_vertices * replicas / elapsed
                    ),
                    "max_rss_bytes": _max_rss_bytes(),
                }
            )
        matrix["cover_ladder"] = ladder_rows

        # -- sparse walk: the asserted bar ---------------------------
        walk_kwargs = dict(
            branching=1.0,
            n_replicas=SPARSE_REPLICAS,
            seed=0,
            max_rounds=SPARSE_HORIZON,
            raise_on_timeout=False,
        )

        def dense_loop_walk() -> np.ndarray:
            return batch_cobra_cover_times(walk_cell, 0, **walk_kwargs)

        def engine_walks() -> None:
            for _ in range(WALK_CALLS):
                sparse_cobra_cover_times(walk_cell, 0, **walk_kwargs)

        dense_walk, engine_walk = interleaved_medians(
            [switched(batch_module._DENSE, dense_loop_walk), engine_walks], WALK_SAMPLES
        )
        engine_walk /= WALK_CALLS
        matrix["sparse_walk"] = {
            "n": SPARSE_SIDE * SPARSE_SIDE,
            "replicas": SPARSE_REPLICAS,
            "horizon": SPARSE_HORIZON,
            "batch_seconds": round(dense_walk, 5),
            "sparse_seconds": round(engine_walk, 5),
            "speedup": round(dense_walk / engine_walk, 2),
            "bar": SPARSE_BAR,
        }

        # -- walk shards: full k = 1 cover, reported only ------------
        def walk_shard(replicas: int):
            return lambda: sparse_cobra_cover_times(
                walk_shard_cell,
                0,
                branching=1.0,
                n_replicas=replicas,
                seed=0,
                jobs=1,
                shard_size=replicas,
            )

        shard_seconds = interleaved_medians(
            [walk_shard(replicas) for replicas in WALK_SHARD_REPLICAS], WALK_SAMPLES
        )
        walk_shards = {"n": WALK_SHARD_N}
        for replicas, seconds in zip(WALK_SHARD_REPLICAS, shard_seconds):
            walk_shards[f"seconds_{replicas}_replicas"] = round(seconds, 5)
        matrix["walk_shards"] = walk_shards
        if not BENCH_QUICK:
            matrix["per_round_kernel"] = PER_ROUND_KERNEL

        # -- dense cover: the honest control -------------------------
        def dense_cover() -> np.ndarray:
            return batch_cobra_cover_times(dense_cell, 0, n_replicas=DENSE_REPLICAS, seed=0)

        def sparse_cover() -> np.ndarray:
            return sparse_cobra_cover_times(dense_cell, 0, n_replicas=DENSE_REPLICAS, seed=0)

        engine_dense, sparse_dense, loop_dense = interleaved_medians(
            [
                dense_cover,
                switched(batch_module._SPARSE, sparse_cover),
                switched(batch_module._DENSE, dense_cover),
            ],
            DENSE_SAMPLES,
        )
        matrix["dense_cover"] = {
            "n": DENSE_N,
            "replicas": DENSE_REPLICAS,
            "batch_seconds": round(engine_dense, 5),
            "sparse_seconds": round(sparse_dense, 5),
            "dense_loop_seconds": round(loop_dense, 5),
            "batch_advantage": round(sparse_dense / engine_dense, 2),
            "gain_over_dense_loop": round(loop_dense / engine_dense, 2),
        }

        # -- memmap power-law cell + determinism ---------------------
        with tempfile.TemporaryDirectory() as scratch:
            generated = barabasi_albert(POWER_LAW_N, POWER_LAW_ATTACH, seed=1)
            mapped = load_graph_memmap(
                save_graph_memmap(generated, Path(scratch) / "power_law")
            )
            started = time.perf_counter()
            pooled = sparse_bips_infection_times(
                mapped,
                0,
                n_replicas=8,
                seed=1,
                max_rounds=POWER_LAW_HORIZON,
                raise_on_timeout=False,
                jobs=JOBS,
                shard_size=2,
            )
            elapsed = time.perf_counter() - started
            inline = sparse_bips_infection_times(
                mapped,
                0,
                n_replicas=8,
                seed=1,
                max_rounds=POWER_LAW_HORIZON,
                raise_on_timeout=False,
                jobs=1,
                shard_size=2,
            )
            assert np.array_equal(inline, pooled)
            matrix["memmap_power_law"] = {
                "n": POWER_LAW_N,
                "attach": POWER_LAW_ATTACH,
                "indices_dtype": str(mapped.indices.dtype),
                "pooled_seconds": round(elapsed, 3),
            }

        graph = ImplicitTorus((LADDER[0][0],) * 3)
        inline = sparse_cobra_cover_times(
            graph, 0, n_replicas=8, seed=1, jobs=1, shard_size=2
        )
        pooled = sparse_cobra_cover_times(
            graph, 0, n_replicas=8, seed=1, jobs=JOBS, shard_size=2
        )
        assert np.array_equal(inline, pooled)
        matrix["determinism"] = (
            "jobs=1 vs jobs=4 bit-identical (implicit + memmap shipping)"
        )

        if not BENCH_QUICK:
            top = matrix["cover_ladder"][-1]
            assert top["n"] >= 1_000_000, top
            assert top["max_rss_bytes"] < RSS_LIMIT_BYTES, (
                f"million-vertex rung exceeded the 8 GB RSS budget: {top}"
            )
            assert matrix["sparse_walk"]["speedup"] >= SPARSE_BAR, (
                f"the walk blocks fell below the {SPARSE_BAR}x bar over the "
                f"dense loop on the sparse-walk cell: {matrix['sparse_walk']}"
            )
            assert matrix["dense_cover"]["batch_advantage"] >= 1.0, (
                "the engine lost to its own sparse rounds on the dense-cover "
                f"cell — the switch should leave them here: {matrix['dense_cover']}"
            )
        return matrix

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    summary_keys = (
        "quick",
        "cover_ladder",
        "sparse_walk",
        "walk_shards",
        "per_round_kernel",
        "dense_cover",
        "determinism",
    )
    write_root_summary("scale", {key: matrix[key] for key in summary_keys if key in matrix})
    for key, value in matrix.items():
        benchmark.extra_info[key] = value
