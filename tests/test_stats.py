"""Unit and property tests for repro.measurement.stats."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.stats import (
    RunningStats,
    SampleSummary,
    ci_to_mean_ratio,
    confidence_interval_halfwidth,
    geometric_mean,
    mean_absolute_error,
    root_mean_squared_error,
    summarize,
    welford_update,
)


class TestSummarize:
    def test_single_observation(self):
        summary = summarize([2.5])
        assert summary.count == 1
        assert summary.mean == 2.5
        assert summary.variance == 0.0
        assert summary.ci_halfwidth == 0.0
        assert summary.minimum == summary.maximum == 2.5

    def test_known_values(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(2.0)
        assert summary.variance == pytest.approx(1.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0

    def test_ci_halfwidth_matches_student_t(self):
        values = [1.0, 2.0, 3.0, 4.0]
        summary = summarize(values)
        from scipy import stats as sps

        sem = np.std(values, ddof=1) / math.sqrt(4)
        expected = sps.t.ppf(0.975, df=3) * sem
        assert summary.ci_halfwidth == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_validation_threshold(self):
        low_noise = summarize([1.0, 1.0000001, 0.9999999, 1.0])
        assert low_noise.passes_ci_validation(threshold=0.01)
        high_noise = summarize([1.0, 2.0, 0.5, 3.0])
        assert not high_noise.passes_ci_validation(threshold=0.01)

    def test_identical_values_zero_ci(self):
        summary = summarize([3.0] * 10)
        assert summary.variance == 0.0
        assert summary.ci_halfwidth == 0.0
        assert summary.ci_to_mean == 0.0


class TestConfidenceInterval:
    def test_fewer_than_two_observations(self):
        assert confidence_interval_halfwidth([1.0]) == 0.0

    def test_shrinks_with_more_observations(self):
        rng = np.random.default_rng(0)
        small = rng.normal(1.0, 0.1, size=5)
        large = np.concatenate([small, rng.normal(1.0, 0.1, size=95)])
        assert confidence_interval_halfwidth(large) < confidence_interval_halfwidth(small)

    def test_halfwidths_use_the_exact_student_t_quantile(self):
        """Both half-width paths multiply the standard error by exactly
        ``scipy.stats.t.ppf(0.5 + confidence / 2, df)``, for df 1-40."""
        from scipy import stats as sps

        rng = np.random.default_rng(4)
        for df in range(1, 41):
            values = rng.lognormal(0.0, 0.3, size=df + 1)
            running = RunningStats()
            running.extend(values)
            for confidence in (0.9, 0.95, 0.99):
                t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=df))
                sem = float(values.std(ddof=1)) / math.sqrt(df + 1)
                assert confidence_interval_halfwidth(values, confidence) == t_crit * sem
                running_sem = running.std / math.sqrt(df + 1)
                assert running.summary(confidence).ci_halfwidth == t_crit * running_sem

    def test_zero_mean_ratio(self):
        assert ci_to_mean_ratio(0.0, 0.0) == 0.0
        assert ci_to_mean_ratio(0.0, 0.5) == math.inf

    def test_ratio_is_absolute(self):
        assert ci_to_mean_ratio(-2.0, 0.5) == pytest.approx(0.25)


class TestErrors:
    def test_mae(self):
        assert mean_absolute_error([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)

    def test_rmse(self):
        assert root_mean_squared_error([1.0, 2.0], [2.0, 4.0]) == pytest.approx(
            math.sqrt((1 + 4) / 2)
        )

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert root_mean_squared_error(a, b) >= mean_absolute_error(a, b) - 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            root_mean_squared_error([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error([], [])
        with pytest.raises(ValueError):
            root_mean_squared_error([], [])

    def test_perfect_prediction(self):
        values = [0.1, 0.2, 0.3]
        assert root_mean_squared_error(values, values) == 0.0
        assert mean_absolute_error(values, values) == 0.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_matches_paper_summary_shape(self):
        # A mixture of speed-ups and one slowdown, like Table 1.
        speedups = [0.29, 13.93, 3.59, 7.07, 23.52, 26.0, 3.69, 3.55, 3.62, 1.11, 1.18]
        assert geometric_mean(speedups) == pytest.approx(3.97, abs=0.05)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestRunningStats:
    def test_matches_batch_summary(self, rng):
        values = rng.lognormal(0.0, 0.3, size=40)
        running = RunningStats()
        running.extend(values)
        batch = summarize(values)
        online = running.summary()
        assert online.count == batch.count
        assert online.mean == pytest.approx(batch.mean)
        assert online.variance == pytest.approx(batch.variance)
        assert online.ci_halfwidth == pytest.approx(batch.ci_halfwidth)
        assert online.minimum == pytest.approx(batch.minimum)
        assert online.maximum == pytest.approx(batch.maximum)

    def test_empty_raises(self):
        running = RunningStats()
        with pytest.raises(ValueError):
            _ = running.mean
        with pytest.raises(ValueError):
            running.summary()

    def test_single_value(self):
        running = RunningStats()
        running.add(5.0)
        assert running.count == 1
        assert running.mean == 5.0
        assert running.variance == 0.0


class TestWelford:
    def test_single_step(self):
        count, mean, m2 = welford_update(0, 0.0, 0.0, 3.0)
        assert count == 1
        assert mean == 3.0
        assert m2 == 0.0


# --------------------------------------------------------------------------
# Property-based tests
# --------------------------------------------------------------------------

finite_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_floats, min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_summary_bounds_property(values):
    summary = summarize(values)
    # Allow one ulp of slack: the mean of identical values can differ from
    # them by a rounding error.
    slack = 1e-9 * max(abs(summary.minimum), abs(summary.maximum), 1.0)
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
    assert summary.variance >= 0.0
    assert summary.ci_halfwidth >= 0.0


@given(st.lists(finite_floats, min_size=2, max_size=50))
@settings(max_examples=60, deadline=None)
def test_running_stats_matches_numpy_property(values):
    running = RunningStats()
    running.extend(values)
    assert running.mean == pytest.approx(float(np.mean(values)), rel=1e-9)
    assert running.variance == pytest.approx(float(np.var(values, ddof=1)), rel=1e-6, abs=1e-9)


@given(
    st.lists(finite_floats, min_size=1, max_size=30),
    st.lists(finite_floats, min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_rmse_dominates_mae_property(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert root_mean_squared_error(a, b) >= mean_absolute_error(a, b) - 1e-9


@given(st.lists(finite_floats, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_geometric_mean_bounds_property(values):
    gm = geometric_mean(values)
    slack = 1e-9 * max(abs(max(values)), 1.0)
    assert min(values) - slack <= gm <= max(values) + slack
