"""Property-based tests for the extensions: loss, batch, distinct draws."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.exact.duality import duality_gap

from tests.properties.strategies import connected_small_graphs, seeds


@settings(max_examples=15, deadline=None)
@given(
    graph=connected_small_graphs(max_vertices=6),
    loss=st.sampled_from([0.1, 0.3, 0.5]),
    branching=st.sampled_from([1.0, 1.5, 2.0]),
    data=st.data(),
)
def test_duality_under_loss_on_arbitrary_graphs(graph, loss, branching, data):
    """Theorem 4 extends to thinned choice sets on any graph."""
    n = graph.n_vertices
    source = data.draw(st.integers(0, n - 1))
    start = data.draw(st.integers(0, n - 1))
    assert (
        duality_gap(
            graph, [start], source, 6, branching=branching, loss_probability=loss
        )
        < 1e-10
    )


@settings(max_examples=25, deadline=None)
@given(graph=connected_small_graphs(), loss=st.sampled_from([0.0, 0.2, 0.5]), seed=seeds)
def test_lossy_cobra_invariants(graph, loss, seed):
    """Cover stays monotone; death (if any) is absorbing."""
    process = CobraProcess(graph, 0, loss_probability=loss, seed=seed)
    previous_cumulative = 0
    died = False
    for _ in range(12):
        record = process.step()
        assert record.cumulative_count >= previous_cumulative
        previous_cumulative = record.cumulative_count
        if died:
            assert record.active_count == 0
        died = record.active_count == 0


@settings(max_examples=25, deadline=None)
@given(graph=connected_small_graphs(), loss=st.sampled_from([0.0, 0.3, 0.7]), seed=seeds)
def test_lossy_bips_source_immortal(graph, loss, seed):
    process = BipsProcess(graph, 0, loss_probability=loss, seed=seed)
    for _ in range(12):
        process.step()
        assert process.is_infected(0)
        assert process.active_count >= 1


@settings(max_examples=20, deadline=None)
@given(graph=connected_small_graphs(), data=st.data())
def test_loss_only_reduces_expected_growth(graph, data):
    """More loss never increases the exact one-step expectation."""
    n = graph.n_vertices
    source = data.draw(st.integers(0, n - 1))
    others = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    infected = sorted(set(others) | {source})

    from repro.exact.bips_exact import ExactBips
    from repro.exact.subsets import mask_from_vertices, popcount_table

    sizes = popcount_table(n).astype(np.float64)
    mask = mask_from_vertices(infected)
    previous = np.inf
    for loss in (0.0, 0.25, 0.5, 0.75):
        engine = ExactBips(graph, source, loss_probability=loss)
        expectation = float((engine.step_distribution(mask) * sizes).sum())
        assert expectation <= previous + 1e-9
        previous = expectation


@settings(max_examples=15, deadline=None)
@given(graph=connected_small_graphs(min_vertices=4, max_vertices=7), seed=seeds)
def test_batch_cover_times_positive_and_bounded(graph, seed):
    from repro.core.batch import batch_cobra_cover_times

    times = batch_cobra_cover_times(
        graph, 0, n_replicas=10, seed=seed, max_rounds=100_000
    )
    assert np.all(times >= 1)
    # Coverage cannot beat the doubling limit: need at least
    # ceil(log2(n)) rounds of growth... conservatively >= 1 checked
    # above; the sharp bound holds for the farthest vertex:
    from repro.graphs.properties import eccentricity

    assert np.all(times >= eccentricity(graph, 0))
