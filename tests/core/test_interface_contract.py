"""Conformance suite: every engine honours the SpreadingProcess contract.

Parametrised over all process classes so that adding an engine
automatically subjects it to the shared interface rules: defensive
mask copies, record/property consistency, monotone round counter,
seed determinism, and well-formed repr.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.dynamic import (
    DynamicBipsProcess,
    DynamicCobraProcess,
    static_provider,
)
from repro.core.process import RoundRecord, SpreadingProcess
from repro.core.pull import PullProcess
from repro.core.push import PushProcess
from repro.core.pushpull import PushPullProcess
from repro.core.randomwalk import RandomWalkProcess
from repro.core.sis import SisProcess
from repro.graphs import generators

GRAPH = generators.random_regular(48, 4, seed=123)

FACTORIES = {
    "dynamic-cobra": lambda seed: DynamicCobraProcess(
        static_provider(GRAPH), 0, seed=seed
    ),
    "dynamic-bips": lambda seed: DynamicBipsProcess(
        static_provider(GRAPH), 0, seed=seed
    ),
    "cobra": lambda seed: CobraProcess(GRAPH, 0, seed=seed),
    "cobra-fractional": lambda seed: CobraProcess(GRAPH, 0, branching=1.5, seed=seed),
    "cobra-lossy": lambda seed: CobraProcess(GRAPH, 0, loss_probability=0.2, seed=seed),
    "bips": lambda seed: BipsProcess(GRAPH, 0, seed=seed),
    "bips-lossy": lambda seed: BipsProcess(GRAPH, 0, loss_probability=0.2, seed=seed),
    "sis": lambda seed: SisProcess(GRAPH, 0, seed=seed),
    "push": lambda seed: PushProcess(GRAPH, 0, seed=seed),
    "pull": lambda seed: PullProcess(GRAPH, 0, seed=seed),
    "push-pull": lambda seed: PushPullProcess(GRAPH, 0, seed=seed),
    "walk": lambda seed: RandomWalkProcess(GRAPH, 0, seed=seed),
    "multi-walk": lambda seed: RandomWalkProcess(GRAPH, 0, n_walkers=4, seed=seed),
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


class TestContract:
    def test_is_spreading_process(self, factory):
        assert isinstance(factory(0), SpreadingProcess)

    def test_masks_are_defensive_copies(self, factory):
        process = factory(0)
        mask = process.active_mask
        mask[:] = False
        assert process.active_count >= 0
        assert not np.array_equal(process.active_mask, mask) or process.active_count == 0
        cumulative = process.cumulative_mask
        cumulative[:] = True
        assert process.cumulative_count <= GRAPH.n_vertices

    def test_counts_match_masks(self, factory):
        process = factory(1)
        for _ in range(6):
            process.step()
            assert process.active_count == int(process.active_mask.sum())
            assert process.cumulative_count == int(process.cumulative_mask.sum())

    def test_round_counter_increments(self, factory):
        process = factory(2)
        for expected in range(1, 6):
            record = process.step()
            assert process.round_index == expected
            assert record.round_index == expected

    def test_records_are_round_records(self, factory):
        record = factory(3).step()
        assert isinstance(record, RoundRecord)
        assert record.active_count >= 0
        assert record.cumulative_count >= 0
        assert record.transmissions >= 0

    def test_run_returns_trace_of_requested_length(self, factory):
        trace = factory(4).run(5)
        assert len(trace) == 5

    def test_run_rejects_negative(self, factory):
        from repro.errors import ProcessError

        with pytest.raises(ProcessError, match="non-negative"):
            factory(5).run(-1)

    def test_seed_determinism(self, factory):
        a, b = factory(42), factory(42)
        for _ in range(6):
            assert a.step() == b.step()

    def test_completion_time_none_before_completion(self, factory):
        process = factory(6)
        if not process.is_complete:
            assert process.completion_time is None

    def test_completion_time_set_with_is_complete(self, factory):
        process = factory(7)
        for _ in range(3000):
            if process.is_complete:
                break
            record = process.step()
            if record.active_count == 0:
                pytest.skip("process died (lossy/SIS); completion not reachable")
        if process.is_complete:
            assert process.completion_time is not None
            assert 0 <= process.completion_time <= process.round_index

    def test_repr_mentions_class_and_graph(self, factory):
        process = factory(8)
        text = repr(process)
        assert type(process).__name__ in text
        assert "round=" in text

    def test_active_vertices_sorted_and_consistent(self, factory):
        process = factory(9)
        process.step()
        vertices = process.active_vertices()
        assert np.all(np.diff(vertices) > 0) or vertices.size <= 1
        mask = process.active_mask
        assert np.array_equal(np.flatnonzero(mask), vertices)

    def test_first_hits_record_entry_into_the_cumulative_set(self, factory):
        process = factory(10)
        # The initial set reports 0 until a later round covers it.
        expected = np.where(process.active_mask, 0, -1)
        covered = process.cumulative_mask
        for _ in range(6):
            process.step()
            now = process.cumulative_mask
            expected[now & ~covered] = process.round_index
            covered = now
        assert np.array_equal(process.first_hit_times(), expected)
