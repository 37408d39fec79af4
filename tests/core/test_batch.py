"""Tests for the batched ensemble engines against the sequential ones."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
)
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.runner import sample_completion_times
from repro.errors import (
    CoverTimeoutError,
    GraphPropertyError,
    InfectionTimeoutError,
    ProcessTimeoutError,
)
from repro.exact.bips_exact import ExactBips
from repro.exact.cover_exact import ExactCobraCover
from repro.graphs import from_edges, generators

SRC = Path(__file__).resolve().parents[2] / "src"


class TestBatchCobra:
    def test_shapes_and_positivity(self, small_expander):
        times = batch_cobra_cover_times(small_expander, 0, n_replicas=50, seed=0)
        assert times.shape == (50,)
        assert np.all(times > 0)

    def test_deterministic_given_seed(self, small_expander):
        a = batch_cobra_cover_times(small_expander, 0, n_replicas=20, seed=7)
        b = batch_cobra_cover_times(small_expander, 0, n_replicas=20, seed=7)
        assert np.array_equal(a, b)

    def test_k2_on_k2_is_deterministically_two(self):
        times = batch_cobra_cover_times(generators.complete(2), 0, n_replicas=30, seed=1)
        assert np.all(times == 2)

    def test_include_start_shifts_k2(self):
        times = batch_cobra_cover_times(
            generators.complete(2), 0, n_replicas=30, seed=1, include_start_in_cover=True
        )
        assert np.all(times == 1)

    def test_mean_matches_exact_law(self):
        graph = generators.complete(5)
        exact = ExactCobraCover(graph).expected_cover_time(0)
        times = batch_cobra_cover_times(graph, 0, n_replicas=4000, seed=2)
        standard_error = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - exact) < 5 * standard_error + 1e-9

    def test_distribution_matches_sequential(self, small_expander):
        batch = batch_cobra_cover_times(small_expander, 0, n_replicas=300, seed=3)
        sequential = sample_completion_times(
            lambda rng: CobraProcess(small_expander, 0, seed=rng), 300, seed=4
        )
        # Same configuration, independent seeds: means agree within
        # combined standard errors.
        pooled_se = np.sqrt(
            batch.var(ddof=1) / batch.size + sequential.var(ddof=1) / sequential.size
        )
        assert abs(batch.mean() - sequential.mean()) < 5 * pooled_se

    def test_fractional_branching(self, small_expander):
        times = batch_cobra_cover_times(
            small_expander, 0, branching=1.5, n_replicas=30, seed=5
        )
        slower = batch_cobra_cover_times(
            small_expander, 0, branching=1.1, n_replicas=30, seed=5
        )
        assert times.mean() < slower.mean()

    def test_fractional_distribution_matches_sequential(self, small_expander):
        # Theorem 3 regime (k = 1 + rho): the batch fast path must agree
        # in distribution with independent CobraProcess replicas.
        batch = batch_cobra_cover_times(
            small_expander, 0, branching=1.5, n_replicas=300, seed=13
        )
        sequential = sample_completion_times(
            lambda rng: CobraProcess(small_expander, 0, branching=1.5, seed=rng),
            300,
            seed=14,
        )
        pooled_se = np.sqrt(
            batch.var(ddof=1) / batch.size + sequential.var(ddof=1) / sequential.size
        )
        assert abs(batch.mean() - sequential.mean()) < 5 * pooled_se

    def test_timeout_behaviour(self, small_expander):
        with pytest.raises(CoverTimeoutError):
            batch_cobra_cover_times(small_expander, 0, n_replicas=5, seed=6, max_rounds=1)
        times = batch_cobra_cover_times(
            small_expander, 0, n_replicas=5, seed=6, max_rounds=1, raise_on_timeout=False
        )
        assert np.all(times == -1)

    def test_validation(self, small_expander):
        with pytest.raises(ValueError, match="n_replicas"):
            batch_cobra_cover_times(small_expander, 0, n_replicas=0)


class TestBatchBips:
    def test_shapes_and_positivity(self, small_expander):
        times = batch_bips_infection_times(small_expander, 0, n_replicas=50, seed=0)
        assert times.shape == (50,)
        assert np.all(times > 0)

    def test_k2_on_k2_is_deterministically_one(self):
        times = batch_bips_infection_times(generators.complete(2), 0, n_replicas=30, seed=1)
        assert np.all(times == 1)

    def test_mean_matches_exact_law(self):
        graph = generators.complete(5)
        exact = ExactBips(graph, 0).expected_infection_time()
        times = batch_bips_infection_times(graph, 0, n_replicas=4000, seed=2)
        standard_error = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - exact) < 5 * standard_error + 1e-9

    def test_distribution_matches_sequential(self, small_expander):
        batch = batch_bips_infection_times(small_expander, 0, n_replicas=300, seed=3)
        sequential = sample_completion_times(
            lambda rng: BipsProcess(small_expander, 0, seed=rng), 300, seed=4
        )
        pooled_se = np.sqrt(
            batch.var(ddof=1) / batch.size + sequential.var(ddof=1) / sequential.size
        )
        assert abs(batch.mean() - sequential.mean()) < 5 * pooled_se

    def test_fractional_branching_speeds_up(self, small_expander):
        fast = batch_bips_infection_times(
            small_expander, 0, branching=2.0, n_replicas=40, seed=5
        )
        slow = batch_bips_infection_times(
            small_expander, 0, branching=1.25, n_replicas=40, seed=5
        )
        assert fast.mean() < slow.mean()

    def test_timeout_behaviour(self, small_expander):
        times = batch_bips_infection_times(
            small_expander, 0, n_replicas=5, seed=6, max_rounds=1, raise_on_timeout=False
        )
        assert np.all(times == -1)

    def test_isolated_vertex_raises(self):
        # Vertex 4 has no neighbour, so no round can infect it.
        graph = from_edges(5, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphPropertyError, match="isolated vertex 4"):
            batch_bips_infection_times(graph, 0, n_replicas=4, seed=0)
        with pytest.raises(GraphPropertyError, match="isolated vertex 4"):
            batch_bips_traces(graph, 0, n_replicas=4, seed=0)

    def test_bips_ensembles_never_import_scipy(self):
        # The counts kernels are NumPy-only: scipy would add megabytes
        # of resident memory and a fraction of a second to every worker.
        script = (
            "import sys\n"
            "from repro.core.batch import batch_bips_infection_times, batch_bips_traces\n"
            "from repro.core.sparse import sparse_bips_infection_times\n"
            "from repro.graphs.generators import barabasi_albert, random_regular\n"
            "for graph in (random_regular(256, 8, seed=1), barabasi_albert(200, 3, seed=1)):\n"
            "    batch_bips_infection_times(graph, 0, n_replicas=8, seed=1)\n"
            "    batch_bips_traces(graph, 0, branching=1.5, n_replicas=8, seed=1)\n"
            "    sparse_bips_infection_times(graph, 0, n_replicas=8, seed=1)\n"
            "print('scipy' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "False"

    def test_timeout_raises_infection_flavour(self, small_expander):
        # BIPS timeouts carry the infection-flavoured subclass (the
        # batch engines used to raise CoverTimeoutError with a "did not
        # infect" message); both flavours share ProcessTimeoutError.
        with pytest.raises(InfectionTimeoutError, match="did not infect"):
            batch_bips_infection_times(
                small_expander, 0, n_replicas=5, seed=6, max_rounds=1
            )
        with pytest.raises(ProcessTimeoutError):
            batch_bips_infection_times(
                small_expander, 0, n_replicas=5, seed=6, max_rounds=1
            )
        with pytest.raises(ProcessTimeoutError):
            batch_cobra_cover_times(
                small_expander, 0, n_replicas=5, seed=6, max_rounds=1
            )
