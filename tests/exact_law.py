"""Chi-square goodness of fit of sampled completion times to an exact law."""

from __future__ import annotations

import numpy as np
from scipy import stats


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


def exact_law_pvalue(times: np.ndarray, pmf: np.ndarray, tail: float) -> float:
    """Chi-square p-value of ``times`` against ``pmf`` over rounds ``0..len(pmf) - 1``.

    The rounds past the horizon form one bin of mass ``tail``; adjacent
    bins are pooled until every bin expects at least five samples.  A
    sample outside the law's support fails outright.
    """
    horizon = pmf.size - 1
    observed = np.bincount(np.minimum(times, horizon + 1), minlength=horizon + 2)
    probabilities = np.append(pmf, tail)
    assert not observed[probabilities == 0.0].any(), "a sample outside the law's support"
    expected, observed = _pooled(times.size * probabilities, observed)
    expected *= times.size / expected.sum()
    return float(stats.chisquare(observed, expected).pvalue)
