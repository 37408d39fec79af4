"""Tests for summary statistics in :mod:`repro.analysis.stats`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.stats import proportion_ci, summarize


class TestSummarize:
    def test_known_sample(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == pytest.approx(3.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.std == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))

    def test_quartile_ordering(self):
        rng = np.random.default_rng(0)
        stats = summarize(rng.normal(size=200))
        assert stats.minimum <= stats.q25 <= stats.median <= stats.q75 <= stats.maximum

    def test_ci_brackets_mean(self):
        stats = summarize([2.0, 4.0, 6.0, 8.0])
        assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.mean == 7.0
        assert stats.std == 0.0
        assert stats.sem == 0.0
        assert stats.ci_low == stats.ci_high == 7.0

    def test_ci_narrows_with_samples(self):
        rng = np.random.default_rng(1)
        small = summarize(rng.normal(size=20))
        large = summarize(rng.normal(size=2000))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            summarize([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            summarize(np.zeros((2, 2)))

    def test_str_contains_mean(self):
        assert "mean=3.000" in str(summarize([3.0, 3.0]))


class TestProportionCi:
    def test_brackets_point_estimate(self):
        low, high = proportion_ci(30, 100)
        assert low < 0.3 < high

    def test_extreme_zero(self):
        low, high = proportion_ci(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_extreme_all(self):
        low, high = proportion_ci(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1.0

    def test_narrows_with_trials(self):
        low_small, high_small = proportion_ci(5, 10)
        low_large, high_large = proportion_ci(500, 1000)
        assert (high_large - low_large) < (high_small - low_small)

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            proportion_ci(1, 0)
        with pytest.raises(ValueError, match="successes"):
            proportion_ci(5, 3)
