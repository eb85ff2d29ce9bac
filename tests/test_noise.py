"""Tests for the measurement-noise substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.noise import (
    FrequencyDrift,
    GaussianJitter,
    HeavyTailedSpikes,
    HeteroskedasticLayoutNoise,
    LognormalInterference,
    NoiseModel,
    NoiseProfile,
    noise_model_from_profile,
)


def apply_once(component, runtime, rng, sensitivity=0.0):
    """One run through one component: its level, its draw, then its array step."""
    level = component.level(sensitivity)
    if level <= 0:
        return runtime
    return float(
        component.perturb(np.array([runtime]), np.array([component.draw(rng)]), level)[0]
    )


class TestComponents:
    def test_lognormal_zero_sigma_is_identity(self, rng):
        component = LognormalInterference(sigma=0.0)
        assert apply_once(component, 2.0, rng) == 2.0

    def test_lognormal_perturbs(self, rng):
        component = LognormalInterference(sigma=0.05)
        values = [apply_once(component, 2.0, rng) for _ in range(200)]
        assert np.std(values) > 0
        assert all(v > 0 for v in values)

    def test_jitter_keeps_positive(self, rng):
        component = GaussianJitter(sigma_seconds=10.0)
        values = [apply_once(component, 0.001, rng) for _ in range(100)]
        assert all(v > 0 for v in values)

    def test_spikes_only_slow_down(self, rng):
        component = HeavyTailedSpikes(probability=1.0, scale=0.5)
        values = [apply_once(component, 1.0, rng) for _ in range(100)]
        assert all(v >= 1.0 for v in values)

    def test_spikes_rare_when_probability_low(self, rng):
        component = HeavyTailedSpikes(probability=0.0)
        assert apply_once(component, 1.0, rng) == 1.0

    def test_layout_noise_scales_with_sensitivity(self, rng):
        component = HeteroskedasticLayoutNoise(sigma_low=0.001, sigma_high=0.2)
        quiet = [apply_once(component, 1.0, rng, sensitivity=0.0) for _ in range(300)]
        noisy = [apply_once(component, 1.0, rng, sensitivity=1.0) for _ in range(300)]
        assert np.std(noisy) > np.std(quiet) * 3

    def test_drift_is_bounded(self, rng):
        component = FrequencyDrift(step_sigma=0.01, max_deviation=0.03)
        values = [apply_once(component, 1.0, rng) for _ in range(500)]
        assert max(values) <= 1.03 + 1e-9
        assert min(values) >= 0.97 - 1e-9


class TestNoiseModel:
    def test_noiseless_model_returns_truth(self, rng):
        model = NoiseModel.noiseless()
        assert model.observe(1.234, rng) == 1.234

    def test_rejects_non_positive_runtime(self, rng):
        model = NoiseModel.noiseless()
        with pytest.raises(ValueError):
            model.observe(0.0, rng)
        with pytest.raises(ValueError):
            model.observe(-1.0, rng)
        with pytest.raises(ValueError):
            model.observe(float("nan"), rng)

    def test_observe_many_shape(self, rng):
        model = noise_model_from_profile(NoiseProfile())
        values = model.observe_many(1.0, 17, rng)
        assert values.shape == (17,)
        assert np.all(values > 0)

    def test_observe_many_rejects_zero_count(self, rng):
        model = NoiseModel.noiseless()
        with pytest.raises(ValueError):
            model.observe_many(1.0, 0, rng)

    def test_reproducible_with_same_seed(self):
        model = noise_model_from_profile(NoiseProfile())
        a = model.observe_many(1.0, 20, np.random.default_rng(7))
        model2 = noise_model_from_profile(NoiseProfile())
        b = model2.observe_many(1.0, 20, np.random.default_rng(7))
        np.testing.assert_allclose(a, b)

    def test_noise_scales_multiplicatively(self, rng):
        """Bigger runtimes should have proportionally bigger absolute noise."""
        model = noise_model_from_profile(
            NoiseProfile(interference_sigma=0.05, spike_probability=0.0, jitter_seconds=0.0)
        )
        small = model.observe_many(0.1, 500, np.random.default_rng(3))
        large = model.observe_many(10.0, 500, np.random.default_rng(3))
        assert np.std(large) > np.std(small) * 50

    def test_profile_with_drift_adds_component(self):
        without = noise_model_from_profile(NoiseProfile(drift_sigma=0.0))
        with_drift = noise_model_from_profile(NoiseProfile(drift_sigma=0.01))
        assert len(with_drift.components) == len(without.components) + 1


class TestCalibration:
    def test_quiet_vs_noisy_profiles(self):
        """A correlation-like profile must be far noisier than an mvt-like one."""
        quiet = noise_model_from_profile(
            NoiseProfile(interference_sigma=0.0008, layout_sigma_high=0.005,
                         spike_probability=0.002)
        )
        noisy = noise_model_from_profile(
            NoiseProfile(interference_sigma=0.03, layout_sigma_high=0.28,
                         spike_probability=0.06, spike_scale=0.35)
        )
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        quiet_obs = quiet.observe_many(1.0, 800, rng_a, sensitivity=0.5)
        noisy_obs = noisy.observe_many(1.0, 800, rng_b, sensitivity=0.5)
        assert np.var(noisy_obs) > np.var(quiet_obs) * 100
