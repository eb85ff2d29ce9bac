"""Summary statistics for noisy runtime measurements.

The paper's evaluation machinery is built on a small number of statistical
quantities:

* the sample mean and (unbiased) sample variance of a set of observations,
* the 95% confidence interval of the mean and the *CI/mean* ratio used for
  post-hoc validation of fixed sampling plans (Section 4.3 of the paper),
* the Mean Absolute Error (MAE) used in the motivation study (Figure 1),
* the Root Mean Squared Error (RMSE) used to score models (Equation 1).

Everything here operates on plain sequences or numpy arrays and has no
knowledge of benchmarks, models or the learning loop, so it can be tested
in isolation and reused by the profiler, the dataset generator and the
experiment harness alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SampleSummary",
    "summarize",
    "confidence_interval_halfwidth",
    "ci_to_mean_ratio",
    "mean_absolute_error",
    "root_mean_squared_error",
    "geometric_mean",
    "welford_update",
    "RunningStats",
]


@dataclass(frozen=True)
class SampleSummary:
    """Summary of a set of repeated runtime observations.

    Attributes
    ----------
    count:
        Number of observations.
    mean:
        Sample mean.
    variance:
        Unbiased sample variance (``ddof=1``); zero when ``count < 2``.
    std:
        Square root of ``variance``.
    ci_halfwidth:
        Half-width of the 95% confidence interval of the mean (Student-t);
        zero when ``count < 2``.
    minimum / maximum:
        Extremes of the observations.
    """

    count: int
    mean: float
    variance: float
    std: float
    ci_halfwidth: float
    minimum: float
    maximum: float

    @property
    def ci_to_mean(self) -> float:
        """Ratio of the CI half-width to the mean (the paper's validation metric)."""
        return ci_to_mean_ratio(self.mean, self.ci_halfwidth)

    def passes_ci_validation(self, threshold: float = 0.01) -> bool:
        """Return ``True`` if the CI/mean ratio is within ``threshold``.

        The paper's post-hoc validation (Section 4.3) uses a 95% confidence
        level and a 1% CI/mean threshold by default, with 5% as the "more
        generous" alternative.
        """
        return self.ci_to_mean <= threshold


def summarize(observations: Sequence[float], confidence: float = 0.95) -> SampleSummary:
    """Compute a :class:`SampleSummary` from raw observations.

    Parameters
    ----------
    observations:
        One or more runtime measurements (seconds).
    confidence:
        Confidence level for the interval half-width (default 95%).
    """
    values = np.asarray(list(observations), dtype=float)
    if values.size == 0:
        raise ValueError("summarize() requires at least one observation")
    count = int(values.size)
    mean = float(values.mean())
    if count >= 2:
        variance = float(values.var(ddof=1))
    else:
        variance = 0.0
    std = math.sqrt(variance)
    half = confidence_interval_halfwidth(values, confidence=confidence)
    return SampleSummary(
        count=count,
        mean=mean,
        variance=variance,
        std=std,
        ci_halfwidth=half,
        minimum=float(values.min()),
        maximum=float(values.max()),
    )


def _t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value for ``confidence`` at ``df``.

    ``scipy.stats`` is imported here rather than at module load: it is the
    single largest import of the package, and only the CI computations
    need it.
    """
    from scipy import stats

    return float(stats.t.ppf(0.5 + confidence / 2.0, df=df))


def confidence_interval_halfwidth(
    observations: Sequence[float], confidence: float = 0.95
) -> float:
    """Half-width of the Student-t confidence interval for the mean.

    Returns zero for fewer than two observations (no statistical certainty
    is possible, matching the paper's remark that two observations is the
    minimum for any certainty).
    """
    values = np.asarray(list(observations), dtype=float)
    n = values.size
    if n < 2:
        return 0.0
    sem = float(values.std(ddof=1)) / math.sqrt(n)
    if sem == 0.0:
        return 0.0
    return _t_critical(confidence, n - 1) * sem


def ci_to_mean_ratio(mean: float, ci_halfwidth: float) -> float:
    """CI half-width divided by the mean, guarding against a zero mean."""
    if mean == 0.0:
        return float("inf") if ci_halfwidth > 0 else 0.0
    return abs(ci_halfwidth / mean)


def mean_absolute_error(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Mean absolute error between two equally long sequences."""
    pred = np.asarray(list(predicted), dtype=float)
    obs = np.asarray(list(observed), dtype=float)
    if pred.shape != obs.shape:
        raise ValueError(
            f"shape mismatch: predicted {pred.shape} vs observed {obs.shape}"
        )
    if pred.size == 0:
        raise ValueError("mean_absolute_error() requires at least one pair")
    return float(np.mean(np.abs(pred - obs)))


def root_mean_squared_error(
    predicted: Sequence[float], observed: Sequence[float]
) -> float:
    """Root mean squared error (Equation 1 in the paper)."""
    pred = np.asarray(list(predicted), dtype=float)
    obs = np.asarray(list(observed), dtype=float)
    if pred.shape != obs.shape:
        raise ValueError(
            f"shape mismatch: predicted {pred.shape} vs observed {obs.shape}"
        )
    if pred.size == 0:
        raise ValueError("root_mean_squared_error() requires at least one pair")
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (used for the speed-up summary)."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("geometric_mean() requires at least one value")
    if np.any(vals <= 0):
        raise ValueError("geometric_mean() requires strictly positive values")
    return float(np.exp(np.mean(np.log(vals))))


def welford_update(
    count: int, mean: float, m2: float, new_value: float
) -> tuple[int, float, float]:
    """One step of Welford's online mean/variance algorithm.

    Returns the updated ``(count, mean, m2)`` triple where ``m2`` is the sum
    of squared deviations from the running mean.
    """
    count += 1
    delta = new_value - mean
    mean += delta / count
    delta2 = new_value - mean
    m2 += delta * delta2
    return count, mean, m2


class RunningStats:
    """Incrementally updated mean/variance/CI for a stream of observations.

    The sequential-analysis learner adds observations to a configuration one
    at a time; this class keeps its summary current in O(1) per observation
    using Welford's algorithm.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        value = float(value)
        self._count, self._mean, self._m2 = welford_update(
            self._count, self._mean, self._m2, value
        )
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Incorporate several observations."""
        for value in values:
            self.add(value)

    def copy(self) -> "RunningStats":
        """An independent snapshot carrying the exact accumulator state.

        The copy reproduces the original's Welford state bit for bit, so a
        stopping rule evaluated against ``copy + new observations`` matches
        one evaluated against a single stats object that saw the whole
        stream (the measurement brokers rely on this).
        """
        clone = RunningStats()
        clone._count = self._count
        clone._mean = self._mean
        clone._m2 = self._m2
        clone._min = self._min
        clone._max = self._max
        return clone

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no observations recorded")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance; zero when fewer than two observations."""
        if self._count == 0:
            raise ValueError("no observations recorded")
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def summary(self, confidence: float = 0.95) -> SampleSummary:
        """Materialise the current state as a :class:`SampleSummary`."""
        if self._count == 0:
            raise ValueError("no observations recorded")
        if self._count >= 2 and self.std > 0:
            sem = self.std / math.sqrt(self._count)
            half = _t_critical(confidence, self._count - 1) * sem
        else:
            half = 0.0
        return SampleSummary(
            count=self._count,
            mean=self._mean,
            variance=self.variance,
            std=self.std,
            ci_halfwidth=half,
            minimum=self._min,
            maximum=self._max,
        )
