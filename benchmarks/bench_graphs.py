"""Micro-benchmarks of the graph substrate.

Documents the cost of the pieces every experiment pays for: generator
construction, spectral-gap computation on each numeric path, and the
neighbour sampler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import circulant, complete, cycle, random_regular, torus
from repro.graphs.implicit import ImplicitComplete
from repro.graphs.spectral import lambda_second


def bench_random_regular_n64_r8(benchmark):
    # E12's smallest per-round snapshot.
    seeds = iter(range(100_000))
    benchmark(lambda: random_regular(64, 8, seed=next(seeds)))


def bench_random_regular_n512_r8(benchmark):
    # E12's largest per-round snapshot.
    seeds = iter(range(100_000))
    benchmark(lambda: random_regular(512, 8, seed=next(seeds)))


def bench_random_regular_n64_r60(benchmark):
    # Dense degree (2r > n - 1): sampled as the complement of a 3-regular graph.
    seeds = iter(range(100_000))
    benchmark(lambda: random_regular(64, 60, seed=next(seeds)))


def bench_random_regular_n1024_r8(benchmark):
    seeds = iter(range(10_000))
    benchmark(lambda: random_regular(1024, 8, seed=next(seeds)))


def bench_random_regular_n4096_r8(benchmark):
    seeds = iter(range(10_000))
    benchmark.pedantic(
        lambda: random_regular(4096, 8, seed=next(seeds)), rounds=5, iterations=1
    )


def bench_complete_n1024(benchmark):
    benchmark.pedantic(lambda: complete(1024), rounds=5, iterations=1)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("build", [complete, ImplicitComplete], ids=["csr", "implicit"])
def bench_complete_build_and_sample(benchmark, build, n):
    # E1's and E7's K_n: the CSR graph stores n(n - 1) indices, the
    # implicit one reads the same draws in closed form.  One all-vertex
    # draw of two neighbours, as a COBRA round with every vertex active.
    vertices = np.arange(n, dtype=np.int64)

    def build_and_sample():
        return build(n).sample_neighbors(vertices, 2, np.random.default_rng(0))

    benchmark.pedantic(build_and_sample, rounds=5, iterations=1)


def bench_torus_31x31(benchmark):
    benchmark.pedantic(lambda: torus((31, 31)), rounds=5, iterations=1)


def bench_circulant_n513_j8(benchmark):
    benchmark.pedantic(
        lambda: circulant(513, tuple(range(1, 9))), rounds=5, iterations=1
    )


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("method", ["auto", "dense"])
def bench_lambda_random_regular_r8(benchmark, method, n):
    # The paper experiments' λ sizes: "auto" runs one seeded Lanczos
    # run above DENSE_LIMIT (256 vertices), "dense" is eigvalsh.
    graph = random_regular(n, 8, seed=0)
    benchmark.pedantic(
        lambda: lambda_second(graph, method=method), rounds=3, iterations=1
    )


@pytest.mark.parametrize("method", ["auto", "dense"])
def bench_lambda_cycle_n1001(benchmark, method):
    # Records Lanczos's slow case: a ring's eigenvalues crowd the ends
    # of the spectrum, so "auto" (Lanczos here) loses to "dense".
    graph = cycle(1001)
    benchmark.pedantic(
        lambda: lambda_second(graph, method=method), rounds=3, iterations=1
    )


def bench_lambda_sparse_n4096(benchmark):
    graph = random_regular(4096, 8, seed=0)
    benchmark.pedantic(
        lambda: lambda_second(graph, method="sparse"), rounds=3, iterations=1
    )


def bench_sample_with_replacement(benchmark):
    graph = random_regular(4096, 8, seed=0)
    rng = np.random.default_rng(0)
    vertices = np.arange(4096, dtype=np.int64)
    benchmark(graph.sample_neighbors, vertices, 2, rng)
