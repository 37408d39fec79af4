"""Tests for the batched trace engines against the sequential ones."""

from __future__ import annotations

import numpy as np
import pytest

from repro._rng import spawn_generators
from repro.core.batch import (
    _watched_ensemble,
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.core.bips import BipsProcess
from repro.core.cobra import CobraProcess
from repro.core.metrics import summarize_trace
from repro.core.runner import run_process
from repro.errors import CoverTimeoutError
from repro.graphs import generators


def _sequential_cobra_traces(graph, branching, n_samples, seed):
    """(times, total msgs, peak msgs, active counts per round) stepped."""
    times, totals, peaks, actives = [], [], [], []
    for rng in spawn_generators(seed, n_samples):
        process = CobraProcess(graph, 0, branching=branching, seed=rng)
        result = run_process(process, record_trace=True, raise_on_timeout=True)
        summary = summarize_trace(result.trace)
        times.append(result.completion_time)
        totals.append(summary.total_transmissions)
        peaks.append(summary.peak_transmissions_per_round)
        actives.append(result.trace.active_counts())
    return (
        np.asarray(times),
        np.asarray(totals),
        np.asarray(peaks),
        actives,
    )


def _assert_means_agree(a: np.ndarray, b: np.ndarray, sigmas: float = 5.0) -> None:
    """Means agree within ``sigmas`` pooled standard errors."""
    pooled = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert abs(a.mean() - b.mean()) < sigmas * pooled + 1e-9


class TestCobraTraces:
    def test_times_bit_identical_to_times_engine(self, small_expander):
        # Recording consumes no randomness: both engines draw the same
        # streams, so the completion times are equal, not just equal in
        # distribution.
        times = batch_cobra_cover_times(small_expander, 0, n_replicas=40, seed=9)
        traces = batch_cobra_traces(small_expander, 0, n_replicas=40, seed=9)
        assert np.array_equal(traces.completion_times, times)

    def test_shapes_and_padding(self, small_expander):
        n = small_expander.n_vertices
        traces = batch_cobra_traces(small_expander, 0, n_replicas=30, seed=1)
        times = traces.completion_times
        assert traces.n_replicas == 30
        assert traces.active_counts.shape == (30, traces.rounds)
        assert traces.rounds == times.max()
        # Columns beyond a replica's completion stay zero, so row
        # reductions need no masking.
        for replica in range(30):
            stop = times[replica]
            assert np.all(traces.active_counts[replica, stop:] == 0)
            assert np.all(traces.transmissions[replica, stop:] == 0)
        # Every vertex is covered exactly once across the rounds.
        assert np.all(traces.newly_counts.sum(axis=1) == n)
        cumulative = traces.cumulative_counts()
        assert np.all(cumulative[np.arange(30), times - 1] == n)

    def test_k2_on_k2_trace_is_deterministic(self):
        traces = batch_cobra_traces(generators.complete(2), 0, n_replicas=20, seed=3)
        assert np.all(traces.completion_times == 2)
        assert traces.rounds == 2
        # One active token per round, two pushes per round, one fresh
        # vertex per round.
        assert np.all(traces.active_counts == 1)
        assert np.all(traces.transmissions == 2)
        assert np.all(traces.newly_counts == 1)

    def test_total_and_peak_messages_match_sequential(self, small_expander):
        seq_times, seq_totals, seq_peaks, _ = _sequential_cobra_traces(
            small_expander, 2.0, 200, 5
        )
        traces = batch_cobra_traces(small_expander, 0, n_replicas=200, seed=6)
        _assert_means_agree(seq_times.astype(float), traces.completion_times.astype(float))
        _assert_means_agree(seq_totals.astype(float), traces.total_transmissions().astype(float))
        _assert_means_agree(seq_peaks.astype(float), traces.peak_transmissions().astype(float))

    def test_round_curve_matches_sequential(self, small_expander):
        # Mean |C_t| of the first rounds agrees between the stepped and
        # the batched engine (the distributional round-curve contract).
        _, _, _, seq_actives = _sequential_cobra_traces(small_expander, 2.0, 200, 7)
        traces = batch_cobra_traces(small_expander, 0, n_replicas=200, seed=8)
        for round_index in range(3):
            sequential = np.asarray([curve[round_index] for curve in seq_actives])
            batched = traces.active_counts[:, round_index]
            _assert_means_agree(sequential.astype(float), batched.astype(float))

    def test_fractional_branching_messages_match_sequential(self, small_expander):
        _, seq_totals, _, _ = _sequential_cobra_traces(small_expander, 1.5, 200, 15)
        traces = batch_cobra_traces(
            small_expander, 0, branching=1.5, n_replicas=200, seed=16
        )
        _assert_means_agree(seq_totals.astype(float), traces.total_transmissions().astype(float))

    def test_jobs_invariance_of_all_arrays(self, small_expander):
        inline = batch_cobra_traces(small_expander, 0, n_replicas=80, seed=4, jobs=1)
        pooled = batch_cobra_traces(small_expander, 0, n_replicas=80, seed=4, jobs=3)
        assert np.array_equal(inline.completion_times, pooled.completion_times)
        assert np.array_equal(inline.active_counts, pooled.active_counts)
        assert np.array_equal(inline.newly_counts, pooled.newly_counts)
        assert np.array_equal(inline.transmissions, pooled.transmissions)

    def test_timeout_behaviour(self, small_expander):
        with pytest.raises(CoverTimeoutError):
            batch_cobra_traces(small_expander, 0, n_replicas=5, seed=6, max_rounds=1)
        traces = batch_cobra_traces(
            small_expander, 0, n_replicas=5, seed=6, max_rounds=1, raise_on_timeout=False
        )
        assert np.all(traces.completion_times == -1)
        assert traces.rounds == 1
        # A timed-out replica's trajectory spans every recorded round.
        assert traces.active_trajectory(0).size == 2

    def test_include_start_in_cover_shifts_cumulative(self):
        traces = batch_cobra_traces(
            generators.complete(2), 0, n_replicas=10, seed=1, include_start_in_cover=True
        )
        assert traces.initial_cumulative == 1
        assert np.all(traces.completion_times == 1)

    def test_validation(self, small_expander):
        with pytest.raises(ValueError, match="n_replicas"):
            batch_cobra_traces(small_expander, 0, n_replicas=0)


class TestBipsTraces:
    def test_times_bit_identical_to_times_engine(self, small_expander):
        times = batch_bips_infection_times(small_expander, 0, n_replicas=40, seed=9)
        traces = batch_bips_traces(small_expander, 0, n_replicas=40, seed=9)
        assert np.array_equal(traces.completion_times, times)

    def test_trajectory_shape_and_completion(self, small_expander):
        n = small_expander.n_vertices
        traces = batch_bips_traces(small_expander, 0, n_replicas=25, seed=2)
        times = traces.completion_times
        assert np.all(traces.active_counts[np.arange(25), times - 1] == n)
        for replica in range(25):
            trajectory = traces.active_trajectory(replica)
            assert trajectory[0] == 1  # |A_0| = {source}
            assert trajectory[-1] == n
            assert trajectory.size == times[replica] + 1

    def test_integer_branching_transmissions_are_constant(self, small_expander):
        # Every non-source vertex contacts exactly k neighbours per
        # round, so each live round records (n-1)k contacts.
        n = small_expander.n_vertices
        traces = batch_bips_traces(small_expander, 0, n_replicas=20, seed=3)
        live = traces.transmissions > 0
        assert np.all(traces.transmissions[live] == (n - 1) * 2)

    def test_round_curve_matches_sequential(self, small_expander):
        sequential = []
        for rng in spawn_generators(41, 200):
            process = BipsProcess(small_expander, 0, branching=2.0, seed=rng)
            result = run_process(process, record_trace=True, raise_on_timeout=True)
            sequential.append(result.trace.active_counts())
        traces = batch_bips_traces(small_expander, 0, n_replicas=200, seed=42)
        for round_index in range(3):
            stepped = np.asarray([curve[round_index] for curve in sequential])
            batched = traces.active_counts[:, round_index]
            _assert_means_agree(stepped.astype(float), batched.astype(float))

    def test_jobs_invariance_of_all_arrays(self, small_expander):
        inline = batch_bips_traces(small_expander, 0, n_replicas=80, seed=4, jobs=1)
        pooled = batch_bips_traces(small_expander, 0, n_replicas=80, seed=4, jobs=3)
        assert np.array_equal(inline.completion_times, pooled.completion_times)
        assert np.array_equal(inline.active_counts, pooled.active_counts)
        assert np.array_equal(inline.newly_counts, pooled.newly_counts)
        assert np.array_equal(inline.transmissions, pooled.transmissions)

    def test_fractional_branching_trace(self, small_expander):
        n = small_expander.n_vertices
        traces = batch_bips_traces(
            small_expander, 0, branching=1.5, n_replicas=40, seed=5
        )
        live = traces.transmissions > 0
        # Between k and k+1 contacts per non-source vertex per round.
        assert np.all(traces.transmissions[live] >= (n - 1) * 1)
        assert np.all(traces.transmissions[live] <= (n - 1) * 2)

    def test_timeout_behaviour(self, small_expander):
        traces = batch_bips_traces(
            small_expander, 0, n_replicas=5, seed=6, max_rounds=1, raise_on_timeout=False
        )
        assert np.all(traces.completion_times == -1)
        assert traces.rounds == 1


class TestTimeoutAggregateContract:
    """The documented semantics of aggregates under ``raise_on_timeout=False``.

    Timed-out rows stay fully populated through every recorded round
    and are *included* in ``total_transmissions`` /
    ``peak_transmissions`` / ``cumulative_counts`` as observed up to
    the round cap; ``completed_mask`` is the filter for callers who
    want completed runs only.
    """

    def _mixed_traces(self):
        # BIPS on K5 with a tight cap: some replicas finish within two
        # rounds, others are cut off, so both populations coexist.
        traces = batch_bips_traces(
            generators.complete(5),
            0,
            n_replicas=64,
            seed=11,
            max_rounds=2,
            raise_on_timeout=False,
        )
        mask = traces.completed_mask()
        assert mask.any() and not mask.all(), "seed must give a mixed ensemble"
        return traces, mask

    def test_completed_mask_matches_completion_times(self):
        traces, mask = self._mixed_traces()
        assert np.array_equal(mask, traces.completion_times >= 0)

    def test_timed_out_rows_are_fully_populated(self):
        traces, mask = self._mixed_traces()
        n = 5
        # A timed-out BIPS replica keeps contacting in every recorded
        # round: no trailing zero columns, unlike completed rows.
        assert np.all(traces.transmissions[~mask] >= (n - 1) * 2)
        assert np.all(traces.active_counts[~mask] >= 1)

    def test_total_transmissions_includes_truncated_rows(self):
        traces, mask = self._mixed_traces()
        totals = traces.total_transmissions()
        # The aggregate is over all rows and equals the row sums of the
        # matrix — timed-out rows contribute their observed (truncated)
        # totals rather than being dropped or zeroed.
        assert totals.shape == (traces.n_replicas,)
        assert np.array_equal(totals, traces.transmissions.sum(axis=1))
        assert np.all(totals[~mask] == traces.rounds * (5 - 1) * 2)

    def test_peak_transmissions_includes_truncated_rows(self):
        traces, mask = self._mixed_traces()
        peaks = traces.peak_transmissions()
        assert np.array_equal(peaks, traces.transmissions.max(axis=1))
        assert np.all(peaks[~mask] == (5 - 1) * 2)

    def test_cumulative_and_active_counts_for_timeouts(self):
        traces, mask = self._mixed_traces()
        cumulative = traces.cumulative_counts()
        # BIPS completion is *simultaneous* full infection, so a
        # timed-out row never shows n active vertices in any column —
        # but its cumulative (ever-infected) count may still reach n.
        assert np.all(traces.active_counts[~mask] < 5)
        assert np.all(cumulative[~mask] <= 5)
        completed_final = cumulative[
            np.flatnonzero(mask), traces.completion_times[mask] - 1
        ]
        assert np.all(completed_final == 5)

    def test_cobra_all_timed_out_aggregates(self, small_expander):
        traces = batch_cobra_traces(
            small_expander, 0, n_replicas=6, seed=6, max_rounds=2,
            raise_on_timeout=False,
        )
        assert not traces.completed_mask().any()
        assert traces.rounds == 2
        assert np.array_equal(
            traces.total_transmissions(), traces.transmissions.sum(axis=1)
        )
        assert np.all(traces.cumulative_counts()[:, -1] < small_expander.n_vertices)


class TestWatchedEnsemble:
    """The private watched-set mode behind the Monte-Carlo duality tier."""

    @pytest.mark.parametrize("process", ["cobra", "bips"])
    def test_times_bit_identical_to_times_engine(self, small_expander, process):
        times, seen = _watched_ensemble(
            process, small_expander, 0, np.array([5, 9]),
            branching=1.5, n_replicas=70, rounds=6, seed=4,
        )
        engine = batch_cobra_cover_times if process == "cobra" else batch_bips_infection_times
        expected = engine(
            small_expander, 0, branching=1.5, n_replicas=70, seed=4, max_rounds=6,
            raise_on_timeout=False,
        )
        assert np.array_equal(times, expected)
        assert seen.shape == (70, 6) and seen.dtype == bool

    @pytest.mark.parametrize("process", ["cobra", "bips"])
    def test_watching_every_vertex_marks_the_live_rounds(self, small_expander, process):
        # The active set is never empty while a replica runs, so watching
        # all of V sets exactly the columns up to each completion round.
        everything = np.arange(small_expander.n_vertices)
        times, seen = _watched_ensemble(
            process, small_expander, 0, everything,
            branching=2.0, n_replicas=40, rounds=40, seed=2,
        )
        assert np.all(times > 0)
        rounds = np.arange(1, 41)
        assert np.array_equal(seen, rounds <= times[:, None])

    def test_start_set_and_watched_source(self, petersen):
        # C_0 = {0, 3}, watching vertex 7: a replica's first set bit is
        # its hitting round, never 0 (round 0 is not recorded).
        times, seen = _watched_ensemble(
            "cobra", petersen, np.array([0, 3]), np.array([7]),
            branching=2.0, n_replicas=50, rounds=8, seed=1,
        )
        first = np.where(seen.any(axis=1), seen.argmax(axis=1) + 1, -1)
        assert np.all((first >= 1) | (first == -1))
        assert np.all((times < 0) | (first >= 1) & (first <= times))
