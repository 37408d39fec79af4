"""The dense-state memory guard: fail fast instead of OOM mid-campaign."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core import batch
from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.core.memory import (
    LIMIT_ENV,
    check_dense_state_budget,
    dense_state_limit_bytes,
    estimate_dense_shard_bytes,
)
from repro.core.sparse import sparse_cobra_cover_times
from repro.errors import ExperimentError
from repro.graphs import generators


@pytest.fixture
def tiny_limit(monkeypatch):
    """Pin the budget to 1 KiB so any dense call must trip the guard."""
    monkeypatch.setenv(LIMIT_ENV, str(1024))


class TestLimitResolution:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(LIMIT_ENV, "123456")
        assert dense_state_limit_bytes() == 123456

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(LIMIT_ENV, "0")
        assert dense_state_limit_bytes() is None

    def test_detected_limit_is_positive_or_none(self, monkeypatch):
        monkeypatch.delenv(LIMIT_ENV, raising=False)
        limit = dense_state_limit_bytes()
        assert limit is None or limit > 0


class TestEstimate:
    @pytest.mark.parametrize(
        "process, run, mandatory",
        [
            ("cobra", batch_cobra_cover_times, 2),
            ("bips", batch_bips_infection_times, 2),
            ("cobra", batch_cobra_cover_times, 3),
        ],
        ids=["cobra", "bips", "cobra-k3"],
    )
    def test_tracks_the_traced_peak_of_a_dense_shard(self, process, run, mandatory):
        # One 32-row inline shard held in the dense loop from round 1, at
        # an integer branching (k = branching mandatory picks): COBRA's
        # temporaries grow with k.
        graph = generators.random_regular(4096, 8, seed=0)
        with mock.patch.object(batch, "_SWITCH", batch._DENSE):
            tracemalloc.start()
            try:
                run(
                    graph,
                    0,
                    branching=float(mandatory),
                    n_replicas=32,
                    shard_size=32,
                    seed=1,
                    jobs=1,
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        estimate = estimate_dense_shard_bytes(process, 4096, 32, False, mandatory)
        assert estimate / 2 <= peak <= 2 * estimate

    def test_bips_counts_index_vectors(self):
        # Six one-byte (rows, n) matrices (eight when tracing), plus the
        # armed positions, uniforms and thresholds at 8 bytes per cell.
        assert estimate_dense_shard_bytes("bips", 100, 10, False, 2) == 10 * (6 + 24) * 100
        assert estimate_dense_shard_bytes("bips", 100, 10, True, 2) == 10 * (8 + 24) * 100

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="unknown process"):
            estimate_dense_shard_bytes("push", 100, 10, False, 2)


class TestGuardTrips:
    def test_cobra_raises_with_clear_message(self, tiny_limit, small_expander):
        with pytest.raises(ExperimentError, match="engine='sparse'") as caught:
            batch_cobra_cover_times(small_expander, 0, n_replicas=64, seed=0)
        message = str(caught.value)
        assert "bytes" in message and LIMIT_ENV in message

    def test_bips_raises_too(self, tiny_limit, small_expander):
        with pytest.raises(ExperimentError, match="dense BIPS state"):
            batch_bips_infection_times(small_expander, 0, n_replicas=64, seed=0)

    def test_trace_engines_guarded(self, tiny_limit, small_expander):
        with pytest.raises(ExperimentError, match="engine='sparse'"):
            batch_cobra_traces(small_expander, 0, n_replicas=64, seed=0)
        with pytest.raises(ExperimentError, match="engine='sparse'"):
            batch_bips_traces(small_expander, 0, n_replicas=64, seed=0)

    def test_sparse_engine_not_guarded(self, tiny_limit, small_expander):
        times = sparse_cobra_cover_times(small_expander, 0, n_replicas=8, seed=0)
        assert np.all(times >= 1)

    def test_disabled_guard_lets_dense_run(self, monkeypatch, small_expander):
        monkeypatch.setenv(LIMIT_ENV, "0")
        times = batch_cobra_cover_times(small_expander, 0, n_replicas=8, seed=0)
        assert np.all(times >= 1)

    def test_generous_limit_lets_dense_run(self, monkeypatch, small_expander):
        monkeypatch.setenv(LIMIT_ENV, str(1 << 40))
        times = batch_cobra_cover_times(small_expander, 0, n_replicas=8, seed=0)
        assert np.all(times >= 1)


class TestCheckDirectly:
    def test_accounts_for_concurrent_shards(self, monkeypatch, small_expander):
        monkeypatch.setenv(LIMIT_ENV, str(1 << 40))
        # Never raises under a huge budget, pooled or not.
        check_dense_state_budget(
            small_expander,
            process="cobra",
            mandatory=2,
            n_replicas=64,
            record=False,
            shard_size=8,
            jobs=4,
        )

    def test_cobra_temporaries_count_against_the_budget(self, monkeypatch, small_expander):
        # A budget ten times the three bool matrices of 64 rows at a
        # 64-column pitch still cannot hold the round's int64 temporaries.
        monkeypatch.setenv(LIMIT_ENV, str(10 * 3 * 64 * 64))
        with pytest.raises(ExperimentError, match="dense COBRA state"):
            check_dense_state_budget(
                small_expander,
                process="cobra",
                mandatory=2,
                n_replicas=64,
                record=False,
                shard_size=None,
                jobs=None,
            )

    def test_message_names_required_bytes(self, monkeypatch, small_expander):
        monkeypatch.setenv(LIMIT_ENV, "100")
        with pytest.raises(ExperimentError, match=r"needs ~[\d,]+ bytes"):
            check_dense_state_budget(
                small_expander,
                process="cobra",
                mandatory=2,
                n_replicas=64,
                record=False,
                shard_size=None,
                jobs=None,
            )
