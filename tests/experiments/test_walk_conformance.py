"""The k = 1 walk measurement samples the exact random-walk cover law.

:func:`repro.experiments.sweep.measure_random_walk_cover` runs the walk
as single-token COBRA on the sparse engine with the start counted as
visited at round 0.  Its samples are compared with the exact law of
that process, ``ExactCobraCover(graph, branching=1.0,
include_start_in_cover=True)``, on Petersen, the odd cycle C9 and K7:

* a chi-square goodness-of-fit test of 4,000 cover times against the
  exact pmf, with adjacent rounds pooled until every bin expects at
  least five samples and the rounds past the horizon pooled into one
  tail bin;
* the closed-form means of the cycle, ``n(n - 1)/2 = 36``, and of the
  complete graph, the coupon collector's ``(n - 1)·H(n - 1) = 14.7``,
  inside each sample's 99.9% normal interval.

The false-positive budget is ``α = 1e-3`` per test, five tests in all;
at the pinned seeds the outcome is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.exact.cover_exact import ExactCobraCover
from repro.experiments.sweep import measure_random_walk_cover
from repro.graphs import generators

ALPHA = 1e-3
SAMPLES = 4000
#: Two-sided normal quantile of the 99.9% interval.
Z_999 = stats.norm.ppf(1 - ALPHA / 2)

#: (graph, horizon of the exact law); past the horizon every round
#: expects fewer than five of the 4,000 samples.
CASES = {
    "petersen": (generators.petersen(), 80),
    "C9": (generators.cycle(9), 100),
    "K7": (generators.complete(7), 45),
}


def _pooled(expected: np.ndarray, observed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent bins left to right until each expects >= 5 samples."""
    pooled_expected: list[float] = []
    pooled_observed: list[int] = []
    mass, count = 0.0, 0
    for bin_expected, bin_observed in zip(expected, observed):
        mass += bin_expected
        count += int(bin_observed)
        if mass >= 5.0:
            pooled_expected.append(mass)
            pooled_observed.append(count)
            mass, count = 0.0, 0
    pooled_expected[-1] += mass
    pooled_observed[-1] += count
    return np.array(pooled_expected), np.array(pooled_observed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_cover_times_follow_the_exact_law(name):
    graph, horizon = CASES[name]
    exact = ExactCobraCover(graph, branching=1.0, include_start_in_cover=True)
    pmf, tail = exact.cover_time_distribution(0, t_max=horizon, tolerance=0.0)
    times = measure_random_walk_cover(graph, n_samples=SAMPLES, seed=0).times

    # Bins: rounds 0..horizon, then everything past the horizon.
    observed = np.bincount(np.minimum(times, horizon + 1), minlength=horizon + 2)
    probabilities = np.append(pmf, tail)
    assert not observed[probabilities == 0.0].any(), "a sample outside the law's support"
    expected, observed = _pooled(SAMPLES * probabilities, observed)
    expected *= SAMPLES / expected.sum()
    assert stats.chisquare(observed, expected).pvalue > ALPHA


@pytest.mark.parametrize(
    ("name", "exact_mean"),
    [("C9", 9 * 8 / 2), ("K7", 6 * sum(1.0 / j for j in range(1, 7)))],
)
def test_closed_form_means_inside_the_sample_interval(name, exact_mean):
    graph, _ = CASES[name]
    summary = measure_random_walk_cover(graph, n_samples=SAMPLES, seed=0).stats
    assert abs(summary.mean - exact_mean) <= Z_999 * summary.sem
