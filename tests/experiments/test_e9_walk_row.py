"""E9's k = 1 row reads its cover times from the sparse walk kernel.

A single token sends one message per round, so the row's message totals
are its cover times and its peak per-round load is 1.  The row must
equal what the dense trace kernel records for the same seed and cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import batch_cobra_traces
from repro.core.runner import default_max_rounds
from repro.experiments.e9_branching_sweep import _measure_cobra_traces
from repro.graphs import generators


@pytest.mark.parametrize("seed", [1, 2])
def test_k1_row_equals_the_dense_trace_kernel(seed):
    graph = generators.random_regular(256, 8, seed=seed)
    cap = default_max_rounds(graph)
    # 40 replicas span two shards.
    sample_seed = (seed, 100, 91)
    times, totals, peaks = _measure_cobra_traces(graph, 1.0, 40, sample_seed, cap)
    traces = batch_cobra_traces(
        graph, 0, branching=1.0, n_replicas=40, seed=sample_seed, max_rounds=cap
    )
    np.testing.assert_array_equal(times, traces.completion_times)
    np.testing.assert_array_equal(totals, traces.total_transmissions())
    np.testing.assert_array_equal(peaks, traces.peak_transmissions())
