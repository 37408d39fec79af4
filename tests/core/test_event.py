"""Tests for the event-driven continuous-time engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import batch_cobra_cover_times
from repro.core.event import (
    event_bips_infection_times,
    event_cobra_cover_times,
    resolve_edge_rates,
)
from repro.errors import CoverTimeoutError, ExperimentError, ProcessError
from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover
from repro.graphs import complete
from repro.graphs.base import Graph


@pytest.fixture
def bridged_triangles() -> Graph:
    """Two triangles joined by the single bridge edge (2, 3)."""
    return Graph.from_adjacency_lists(
        [[1, 2], [0, 2], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]],
        name="bridged-triangles",
    )


class TestDiscreteRoundLimitAgreement:
    """The continuous-time engine against the round engines' time scale."""

    def test_asynchronous_mode_same_scale_as_rounds(self, small_expander):
        # Exponential clocks have unit mean, so asynchronous completion
        # times land on the same scale as round counts (loose factor-two
        # envelope; the laws differ, only the scale is pinned).
        event = event_cobra_cover_times(
            small_expander, 0, n_replicas=100, seed=707
        )
        batch = batch_cobra_cover_times(small_expander, 0, n_replicas=100, seed=707)
        assert batch.mean() / 2 < event.mean() < batch.mean() * 2


class TestDeterminism:
    def test_cobra_bit_identical_across_jobs(self, small_expander):
        kwargs = dict(n_replicas=40, seed=11, shard_size=10)
        solo = event_cobra_cover_times(small_expander, 0, jobs=1, **kwargs)
        four = event_cobra_cover_times(small_expander, 0, jobs=4, **kwargs)
        assert np.array_equal(solo, four)

    def test_bips_bit_identical_across_jobs(self, small_expander):
        kwargs = dict(n_replicas=40, seed=12, shard_size=10)
        solo = event_bips_infection_times(small_expander, 0, jobs=1, **kwargs)
        four = event_bips_infection_times(small_expander, 0, jobs=4, **kwargs)
        assert np.array_equal(solo, four)

    def test_sis_bit_identical_across_jobs(self, small_expander):
        # SIS dynamics with a persistent source: BIPS with recovery.
        kwargs = dict(
            n_replicas=40, seed=13, shard_size=10, recovery_rate=0.05,
            max_time=200.0, raise_on_timeout=False,
        )
        solo = event_bips_infection_times(small_expander, 0, jobs=1, **kwargs)
        four = event_bips_infection_times(small_expander, 0, jobs=4, **kwargs)
        assert np.array_equal(solo, four)

    def test_same_seed_reproduces(self, small_expander):
        first = event_cobra_cover_times(small_expander, 0, n_replicas=20, seed=14)
        second = event_cobra_cover_times(small_expander, 0, n_replicas=20, seed=14)
        assert np.array_equal(first, second)

    def test_transmission_rate_scales_async_times_exactly(self, small_expander):
        # Every exponential clock divides by the rate, so the event
        # order — and hence the consumed randomness — is unchanged.
        slow = event_cobra_cover_times(small_expander, 0, n_replicas=30, seed=16)
        fast = event_cobra_cover_times(
            small_expander, 0, n_replicas=30, seed=16, transmission_rate=2.0
        )
        np.testing.assert_allclose(fast, slow / 2.0, rtol=1e-12)


class TestCobraSemantics:
    def test_complete_graph_covers_instantly_from_anywhere(self):
        times = event_cobra_cover_times(complete(5), 3, n_replicas=25, seed=21)
        assert times.shape == (25,)
        assert np.all(times > 0)

    def test_timeout_raises_and_reports(self, small_expander):
        with pytest.raises(CoverTimeoutError, match="time horizon"):
            event_cobra_cover_times(
                small_expander, 0, n_replicas=5, seed=23, max_time=0.01
            )
        times = event_cobra_cover_times(
            small_expander, 0, n_replicas=5, seed=23, max_time=0.01,
            raise_on_timeout=False,
        )
        assert np.all(times == -1.0)


class TestEdgeRateOverrides:
    def test_zero_weight_bridge_blocks_cover(self, bridged_triangles):
        times = event_cobra_cover_times(
            bridged_triangles, 0, n_replicas=6, seed=31, max_time=200.0,
            edge_rate_overrides=[(2, 3, 0.0)], raise_on_timeout=False,
        )
        assert np.all(times == -1.0)  # the far triangle is unreachable
        open_bridge = event_cobra_cover_times(
            bridged_triangles, 0, n_replicas=6, seed=31, max_time=200.0,
            edge_rate_overrides=[(2, 3, 0.5)],
        )
        assert np.all(open_bridge > 0)

    def test_zero_weight_bridge_blocks_infection(self, bridged_triangles):
        times = event_bips_infection_times(
            bridged_triangles, 0, n_replicas=6, seed=32, max_time=200.0,
            edge_rate_overrides=[(2, 3, 0.0)], raise_on_timeout=False,
        )
        assert np.all(times == -1.0)

    def test_uniform_paths_ignore_overrides_object(self, small_expander):
        assert resolve_edge_rates(small_expander, None) is None
        assert resolve_edge_rates(small_expander, []) is None

    def test_weights_are_symmetric_and_defaulted(self, bridged_triangles):
        weights = resolve_edge_rates(bridged_triangles, [(2, 3, 0.25)])
        graph = bridged_triangles
        row2 = slice(graph.indptr[2], graph.indptr[3])
        row3 = slice(graph.indptr[3], graph.indptr[4])
        assert weights[row2][graph.indices[row2] == 3] == 0.25
        assert weights[row3][graph.indices[row3] == 2] == 0.25
        # Every other position keeps the default weight 1.0.
        assert weights.sum() == weights.size - 2 * (1 - 0.25)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ([(0, 1)], "triples"),
            ("nonsense", "triples"),
            ([(0, 99, 1.0)], "out of range"),
            ([(1, 1, 1.0)], "self-loop"),
            ([(0, 3, 1.0)], "no edge"),
            ([(0, 1, -2.0)], ">= 0"),
            ([(0, 1, float("nan"))], ">= 0"),
            ([(0, 1, 2.0), (1, 0, 3.0)], "duplicate"),
        ],
    )
    def test_malformed_overrides_rejected(self, bridged_triangles, overrides, message):
        with pytest.raises(ProcessError, match=message):
            resolve_edge_rates(bridged_triangles, overrides)

    def test_isolated_last_vertex_accepted(self):
        # The last CSR row is empty: row totals must not index past it.
        graph = Graph.from_adjacency_lists([[1], [0, 2], [1], []], name="p3+1")
        weights = resolve_edge_rates(graph, [(0, 1, 2.0)])
        assert weights.tolist() == [2.0, 2.0, 1.0, 1.0]

    def test_vertex_with_all_zero_weight_rejected(self):
        path3 = Graph.from_adjacency_lists([[1], [0, 2], [1]], name="p3")
        with pytest.raises(ProcessError, match="zero total"):
            resolve_edge_rates(path3, [(1, 2, 0.0)])


class TestBipsAndSis:
    """BIPS, with and without recovery (SIS dynamics around a persistent source)."""

    def test_bips_source_drives_full_infection(self, small_expander):
        times = event_bips_infection_times(small_expander, 0, n_replicas=10, seed=41)
        assert np.all(times > 0)

    def test_recovery_slows_infection(self, petersen):
        # Small graph: simultaneous full infection stays reachable even
        # while vertices keep dropping out at the recovery rate.
        base = event_bips_infection_times(petersen, 0, n_replicas=30, seed=42)
        slowed = event_bips_infection_times(
            petersen, 0, n_replicas=30, seed=42, recovery_rate=0.1
        )
        assert slowed.mean() > base.mean()


class TestValidation:
    def test_bad_replica_counts(self, small_expander):
        for call in (
            event_cobra_cover_times,
            event_bips_infection_times,
        ):
            with pytest.raises(ValueError, match="n_replicas"):
                call(small_expander, 0, n_replicas=0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_transmission_rate(self, small_expander, rate):
        with pytest.raises(ProcessError, match="transmission_rate"):
            event_cobra_cover_times(small_expander, 0, transmission_rate=rate)

    def test_bad_recovery_rate(self, small_expander):
        with pytest.raises(ProcessError, match="recovery_rate"):
            event_bips_infection_times(small_expander, 0, recovery_rate=-0.5)

    def test_bad_max_time(self, small_expander):
        with pytest.raises(ProcessError, match="max_time"):
            event_cobra_cover_times(small_expander, 0, max_time=-3.0)


class TestMeasurementSeam:
    def test_measure_cobra_event_engine(self, small_expander):
        measurement = measure_cobra_cover(
            small_expander, n_samples=8, seed=51, engine="event"
        )
        assert measurement.times.shape == (8,)
        assert measurement.stats.mean > 0

    def test_measure_bips_event_engine_with_rates(self, small_expander):
        measurement = measure_bips_infection(
            small_expander, n_samples=8, seed=52, engine="event",
            transmission_rate=2.0, recovery_rate=0.1,
        )
        assert measurement.times.shape == (8,)

    def test_max_rounds_maps_to_time_horizon(self, small_expander):
        with pytest.raises(CoverTimeoutError, match="time horizon"):
            measure_cobra_cover(
                small_expander, n_samples=4, seed=53, engine="event", max_rounds=1
            )

    def test_rate_options_need_the_event_engine(self, small_expander):
        with pytest.raises(ExperimentError, match="event"):
            measure_cobra_cover(small_expander, engine="batch", transmission_rate=2.0)
        with pytest.raises(ExperimentError, match="event"):
            measure_bips_infection(
                small_expander, engine="sparse", edge_rate_overrides=[(0, 1, 2.0)]
            )

    def test_unknown_engine_rejected(self, small_expander):
        for engine in ("quantum", "process"):
            with pytest.raises(ExperimentError, match="'batch', 'sparse', 'event'"):
                measure_cobra_cover(small_expander, engine=engine)
            with pytest.raises(ExperimentError, match="'batch', 'sparse', 'event'"):
                measure_bips_infection(small_expander, engine=engine)
