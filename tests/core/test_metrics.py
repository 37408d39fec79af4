"""Tests for trace metrics in :mod:`repro.core.metrics`."""

from __future__ import annotations

import pytest

from repro.core.cobra import CobraProcess
from repro.core.metrics import summarize_trace
from repro.core.process import RoundRecord, Trace
from repro.core.runner import run_process


def make_trace(rows: list[tuple[int, int, int, int, int]]) -> Trace:
    return Trace(
        RoundRecord(
            round_index=t,
            active_count=active,
            cumulative_count=cumulative,
            newly_reached=new,
            transmissions=msgs,
        )
        for t, active, cumulative, new, msgs in rows
    )


class TestSummarizeTrace:
    def test_empty(self):
        summary = summarize_trace(Trace())
        assert summary.rounds == 0
        assert summary.total_transmissions == 0

    def test_aggregates(self):
        trace = make_trace([(1, 2, 2, 2, 4), (2, 4, 5, 3, 8), (3, 3, 6, 1, 6)])
        summary = summarize_trace(trace)
        assert summary.rounds == 3
        assert summary.total_transmissions == 18
        assert summary.peak_transmissions_per_round == 8
        assert summary.mean_transmissions_per_round == pytest.approx(6.0)
        assert summary.peak_active == 4
        assert summary.final_cumulative == 6

    def test_on_real_run(self, small_expander):
        result = run_process(CobraProcess(small_expander, 0, seed=0), record_trace=True)
        summary = summarize_trace(result.trace)
        assert summary.rounds == result.rounds_run
        assert summary.final_cumulative == small_expander.n_vertices
        assert summary.total_transmissions >= summary.rounds  # >= 1 msg/round
