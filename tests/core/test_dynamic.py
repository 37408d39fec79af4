"""Tests for the dynamic-graph process extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.dynamic import (
    DynamicBipsProcess,
    DynamicCobraProcess,
    EvolvingRegularGraph,
    static_provider,
)
from repro.core.runner import run_process, sample_completion_times
from repro.errors import ProcessError
from repro.graphs import generators


class TestEvolvingRegularGraph:
    def test_snapshots_are_regular_and_connected(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=0)
        from repro.graphs.properties import is_connected

        for round_index in (1, 2, 3):
            snapshot = provider(round_index)
            assert snapshot.regular_degree == 4
            assert is_connected(snapshot)

    def test_period_one_changes_every_round(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=1)
        assert provider(1) != provider(2)

    def test_period_respected(self):
        provider = EvolvingRegularGraph(32, 4, period=3, seed=2)
        first = provider(1)
        assert provider(2) == first
        assert provider(3) == first
        assert provider(4) != first

    def test_same_round_idempotent(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=3)
        assert provider(5) == provider(5)

    def test_rewind_rejected(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=4)
        provider(5)
        with pytest.raises(ProcessError, match="rewind"):
            provider(1)

    def test_deterministic_sequence(self):
        a = EvolvingRegularGraph(32, 4, period=1, seed=9)
        b = EvolvingRegularGraph(32, 4, period=1, seed=9)
        for round_index in (1, 2, 3):
            assert a(round_index) == b(round_index)

    def test_invalid_period(self):
        with pytest.raises(ProcessError, match="period"):
            EvolvingRegularGraph(32, 4, period=0)


@pytest.mark.parametrize(
    "dynamic, static",
    [(DynamicCobraProcess, CobraProcess), (DynamicBipsProcess, BipsProcess)],
    ids=["cobra", "bips"],
)
@pytest.mark.parametrize("graph_name", ["petersen", "small_expander"])
@pytest.mark.parametrize(
    "options",
    [{"branching": 2.0}, {"branching": 1.5}, {"branching": 2.0, "loss_probability": 0.2}],
    ids=["k2", "k1.5", "k2-loss"],
)
def test_static_provider_returns_the_static_records(
    request, dynamic, static, graph_name, options
):
    graph = request.getfixturevalue(graph_name)
    for seed in range(8):
        runs = [
            run_process(
                process_class(source, 0, seed=seed, **options),
                max_rounds=64,
                record_trace=True,
            )
            for process_class, source in ((dynamic, static_provider(graph)), (static, graph))
        ]
        assert runs[0].trace.records == runs[1].trace.records
        assert runs[0].completion_time == runs[1].completion_time


class TestDynamicCobra:
    def test_static_provider_matches_cobra_distribution(self, small_expander):
        static_times = sample_completion_times(
            lambda rng: CobraProcess(small_expander, 0, seed=rng), 200, seed=0
        )
        dynamic_times = sample_completion_times(
            lambda rng: DynamicCobraProcess(
                static_provider(small_expander), 0, seed=rng
            ),
            200,
            seed=1,
        )
        pooled_se = np.sqrt(
            static_times.var(ddof=1) / 200 + dynamic_times.var(ddof=1) / 200
        )
        assert abs(static_times.mean() - dynamic_times.mean()) < 5 * pooled_se

    def test_covers_under_full_churn(self):
        provider = EvolvingRegularGraph(64, 4, period=1, seed=5)
        process = DynamicCobraProcess(provider, 0, seed=6)
        result = run_process(process, raise_on_timeout=True)
        assert result.completed
        assert result.completion_time > 0

    def test_cover_semantics_from_round_one(self):
        provider = static_provider(generators.complete(2))
        process = DynamicCobraProcess(provider, 0, seed=0)
        process.step()
        assert not process.is_complete
        process.step()
        assert process.is_complete
        assert process.completion_time == 2

    def test_record_consistency(self):
        provider = EvolvingRegularGraph(32, 4, period=2, seed=7)
        process = DynamicCobraProcess(provider, 0, seed=8)
        previous = 0
        for _ in range(10):
            record = process.step()
            assert record.cumulative_count >= previous
            assert record.active_count >= 1
            previous = record.cumulative_count

    def test_vertex_set_change_rejected(self):
        graphs_by_round = {1: generators.cycle(8), 2: generators.cycle(9)}
        provider = lambda t: graphs_by_round[min(t, 2)]
        process = DynamicCobraProcess(provider, 0, seed=0)
        process.step()
        with pytest.raises(ProcessError, match="changed the vertex set"):
            process.step()


class TestDynamicBips:
    def test_source_persistent_under_churn(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=10)
        process = DynamicBipsProcess(provider, 3, seed=11)
        for _ in range(15):
            process.step()
            assert process.active_mask[3]

    def test_infects_under_full_churn(self):
        provider = EvolvingRegularGraph(64, 4, period=1, seed=12)
        process = DynamicBipsProcess(provider, 0, seed=13)
        result = run_process(process, raise_on_timeout=True)
        assert result.completed

    def test_invalid_source(self):
        provider = static_provider(generators.cycle(5))
        with pytest.raises(ProcessError, match="source"):
            DynamicBipsProcess(provider, 9, seed=0)

    def test_fractional_branching_supported(self):
        provider = EvolvingRegularGraph(32, 4, period=1, seed=14)
        process = DynamicBipsProcess(provider, 0, branching=1.5, seed=15)
        result = run_process(process, raise_on_timeout=True)
        assert result.completed
