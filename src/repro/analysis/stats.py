"""Summary statistics with confidence intervals for ensemble measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample.

    ``ci_low``/``ci_high`` bracket the mean with a normal-approximation
    95% interval (``mean ± 1.96 sem``).
    """

    count: int
    mean: float
    std: float
    sem: float
    ci_low: float
    ci_high: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} ± {1.96 * self.sem:.3f} "
            f"(median {self.median:.3f}, range {self.minimum:.0f}..{self.maximum:.0f})"
        )


def summarize(values: Sequence[float] | np.ndarray) -> SummaryStats:
    """Compute a :class:`SummaryStats` for a non-empty sample."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"expected a non-empty 1-D sample, got shape {array.shape}")
    count = int(array.size)
    mean = float(array.mean())
    std = float(array.std(ddof=1)) if count > 1 else 0.0
    sem = std / math.sqrt(count) if count > 1 else 0.0
    half_width = 1.96 * sem
    q25, median, q75 = (float(q) for q in np.percentile(array, [25, 50, 75]))
    return SummaryStats(
        count=count,
        mean=mean,
        std=std,
        sem=sem,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
        minimum=float(array.min()),
        q25=q25,
        median=median,
        q75=q75,
        maximum=float(array.max()),
    )


def proportion_ci(successes: int, trials: int, *, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation for proportions near 0 or 1
    (e.g. duality tail probabilities and extinction frequencies).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denominator
    half_width = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, centre - half_width), min(1.0, centre + half_width)
