"""Statistical checks for sample uniformity and independence.

The framework's central guarantee (Theorem 1) is that accepted samples are
uniform over the set union and independent across draws.  These helpers turn
that guarantee into testable statements:

* :func:`chi_square_uniformity` — goodness-of-fit of observed sample counts
  against the uniform distribution over a known population;
* :func:`frequency_table` — observed counts per population element;
* :func:`max_absolute_deviation` — worst-case deviation of empirical
  frequencies from ``1/|U|``;
* :func:`serial_independence_statistic` — a lag-1 serial correlation check on
  the sequence of sampled values (independent draws should show none).

The chi-square p-value uses the Wilson–Hilferty normal approximation so the
library keeps its numpy-only dependency footprint; with ``scipy`` installed
the exact distribution is used instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

try:  # pragma: no cover - exercised only when scipy is present
    from scipy import stats as _scipy_stats
except Exception:  # pragma: no cover - fallback path
    _scipy_stats = None


@dataclass
class ChiSquareResult:
    """Result of a chi-square goodness-of-fit test."""

    statistic: float
    degrees_of_freedom: int
    p_value: float
    sample_size: int
    population_size: int

    def rejects_uniformity(self, alpha: float = 0.01) -> bool:
        """True when uniformity is rejected at significance level ``alpha``."""
        return self.p_value < alpha


def frequency_table(samples: Iterable[Hashable]) -> Dict[Hashable, int]:
    """Observed count of every sampled value."""
    return dict(Counter(samples))


def chi_square_uniformity(
    samples: Sequence[Hashable],
    population: Sequence[Hashable],
) -> ChiSquareResult:
    """Chi-square test of the samples against uniformity over ``population``.

    Values outside the population are counted against a dedicated "unknown"
    cell with expected count 0 — any such observation makes the statistic
    infinite, which is the correct verdict (the sampler produced an impossible
    tuple).
    """
    population_list = list(dict.fromkeys(population))
    if not population_list:
        raise ValueError("population must be non-empty")
    n = len(samples)
    if n == 0:
        raise ValueError("at least one sample is required")
    expected = n / len(population_list)
    counts = frequency_table(samples)
    members = set(population_list)
    unknown = sum(count for value, count in counts.items() if value not in members)
    if unknown:
        return ChiSquareResult(
            statistic=float("inf"),
            degrees_of_freedom=len(population_list) - 1,
            p_value=0.0,
            sample_size=n,
            population_size=len(population_list),
        )
    statistic = sum(
        (counts.get(value, 0) - expected) ** 2 / expected for value in population_list
    )
    dof = len(population_list) - 1
    return ChiSquareResult(
        statistic=statistic,
        degrees_of_freedom=dof,
        p_value=chi_square_sf(statistic, dof),
        sample_size=n,
        population_size=len(population_list),
    )


def chi_square_sf(statistic: float, degrees_of_freedom: int) -> float:
    """Survival function of the chi-square distribution.

    Uses scipy when available, otherwise the Wilson–Hilferty cube-root normal
    approximation, which is accurate enough for hypothesis testing at the
    sample sizes used in the tests.
    """
    if degrees_of_freedom <= 0:
        raise ValueError("degrees_of_freedom must be positive")
    if math.isinf(statistic):
        return 0.0
    if _scipy_stats is not None:
        return float(_scipy_stats.chi2.sf(statistic, degrees_of_freedom))
    k = float(degrees_of_freedom)
    z = ((statistic / k) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / math.sqrt(2.0 / (9.0 * k))
    return 1.0 - NormalDist().cdf(z)


def max_absolute_deviation(
    samples: Sequence[Hashable], population: Sequence[Hashable]
) -> float:
    """Largest deviation of empirical frequencies from the uniform ``1/|U|``."""
    population_list = list(dict.fromkeys(population))
    counts = frequency_table(samples)
    n = len(samples)
    if n == 0 or not population_list:
        raise ValueError("samples and population must be non-empty")
    uniform = 1.0 / len(population_list)
    return max(abs(counts.get(value, 0) / n - uniform) for value in population_list)


def serial_independence_statistic(samples: Sequence[Hashable]) -> float:
    """Lag-1 repetition rate of the sampled values, normalized by chance.

    For i.i.d. draws from a uniform distribution over ``m`` values, the
    probability that two consecutive draws coincide is ``1/m``; the returned
    statistic is the observed consecutive-repeat rate divided by that baseline
    (≈ 1 for independent samplers, substantially above 1 for sticky ones).
    """
    n = len(samples)
    if n < 2:
        return 1.0
    distinct = len(set(samples))
    if distinct <= 1:
        return float("inf")
    repeats = sum(1 for a, b in zip(samples, samples[1:]) if a == b)
    observed_rate = repeats / (n - 1)
    baseline = 1.0 / distinct
    return observed_rate / baseline


__all__ = [
    "ChiSquareResult",
    "frequency_table",
    "chi_square_uniformity",
    "chi_square_sf",
    "max_absolute_deviation",
    "serial_independence_statistic",
]
