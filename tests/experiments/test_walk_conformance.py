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

import pytest
from scipy import stats

from repro.exact.cover_exact import ExactCobraCover
from repro.experiments.sweep import measure_random_walk_cover
from repro.graphs import generators

from tests.exact_law import exact_law_pvalue

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_cover_times_follow_the_exact_law(name):
    graph, horizon = CASES[name]
    exact = ExactCobraCover(graph, branching=1.0, include_start_in_cover=True)
    pmf, tail = exact.cover_time_distribution(0, t_max=horizon, tolerance=0.0)
    times = measure_random_walk_cover(graph, n_samples=SAMPLES, seed=0).times
    assert exact_law_pvalue(times, pmf, tail) > ALPHA


@pytest.mark.parametrize(
    ("name", "exact_mean"),
    [("C9", 9 * 8 / 2), ("K7", 6 * sum(1.0 / j for j in range(1, 7)))],
)
def test_closed_form_means_inside_the_sample_interval(name, exact_mean):
    graph, _ = CASES[name]
    summary = measure_random_walk_cover(graph, n_samples=SAMPLES, seed=0).stats
    assert abs(summary.mean - exact_mean) <= Z_999 * summary.sem
