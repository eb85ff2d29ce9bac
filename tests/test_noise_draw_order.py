"""The draw-order contract of the batched noise path.

:meth:`NoiseModel.observe_many` makes every run's scalar draws first, in
the order the historical one-run-at-a-time loop made them, and then
applies each component's arithmetic to the whole request as arrays.  Every
seeded trajectory in the repository (test sets, Table 2's datasets, every
learner measurement) depends on this producing the run-by-run values bit
for bit and leaving the generator and the frequency-drift walk in the same
state.  The run-by-run loop is the oracle in ``tests/oracles/noise.py``.
"""

from __future__ import annotations

import copy

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
from repro.spapt.suite import BENCHMARK_SPECS, benchmark_names
from tests.oracles import noise as oracle

REQUEST_SIZES = (1, 2, 35)
SENSITIVITIES = (0.0, 1.0, 1.7, -0.4, 0.37)


def assert_matches_oracle(model: NoiseModel, requests, seed: int) -> None:
    """Serve ``requests`` — ``(true_runtime, count, sensitivity)`` — in turn
    from one generator, on the model and on a deep copy through the oracle,
    comparing values, generator state and drift state after each."""
    reference = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    for true_runtime, count, sensitivity in requests:
        got = model.observe_many(true_runtime, count, rng, sensitivity)
        want = oracle.observe_many(
            reference, true_runtime, count, oracle_rng, sensitivity
        )
        assert got.shape == (count,)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert (
            np.array(model.drift_state()).tobytes()
            == np.array(reference.drift_state()).tobytes()
        )


def mixed_requests(true_runtime: float):
    """Every request size at every sensitivity, interleaved, so drift and
    generator state carry from one request into the next."""
    return [
        (true_runtime, count, sensitivity)
        for sensitivity in SENSITIVITIES
        for count in REQUEST_SIZES
    ]


@pytest.mark.parametrize("name", benchmark_names())
def test_spapt_profiles_match_oracle(name):
    spec = BENCHMARK_SPECS[name]
    model = noise_model_from_profile(spec.noise_profile)
    assert_matches_oracle(
        model, mixed_requests(spec.target_runtime_seconds), seed=len(name)
    )


@pytest.mark.parametrize("probability", [0.0, 1.0, 0.3])
def test_spike_probabilities_match_oracle(probability):
    model = noise_model_from_profile(
        NoiseProfile(spike_probability=probability, spike_scale=0.2, drift_sigma=0.01)
    )
    assert_matches_oracle(model, mixed_requests(0.5), seed=3)


def test_all_sigmas_zero_draw_nothing():
    model = NoiseModel(
        [
            LognormalInterference(sigma=0.0),
            HeteroskedasticLayoutNoise(sigma_low=0.0, sigma_high=0.0),
            HeavyTailedSpikes(probability=0.0),
            GaussianJitter(sigma_seconds=0.0),
            FrequencyDrift(step_sigma=0.0),
        ]
    )
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    values = model.observe_many(1.25, 35, rng, sensitivity=1.0)
    assert np.all(values == 1.25)
    assert rng.bit_generator.state == before
    assert_matches_oracle(model, mixed_requests(1.25), seed=5)


def test_zero_sensitivity_layout_sigma_draws_only_above_zero():
    # sigma_low 0: the layout component is inactive at sensitivity <= 0
    # and draws at sensitivity > 0, run by run as the oracle does.
    model = NoiseModel(
        [
            HeteroskedasticLayoutNoise(sigma_low=0.0, sigma_high=0.1),
            GaussianJitter(sigma_seconds=1e-3),
        ]
    )
    assert_matches_oracle(model, mixed_requests(0.2), seed=6)


def test_drift_walk_hitting_its_clip_matches_oracle():
    model = NoiseModel(
        [
            LognormalInterference(sigma=0.01),
            FrequencyDrift(step_sigma=0.02, max_deviation=0.03),
        ]
    )
    reference = copy.deepcopy(model)
    walk = []
    rng = np.random.default_rng(11)
    for _ in range(200):
        oracle.observe(reference, 1.0, rng, 0.0)
        walk.extend(reference.drift_state())
    assert max(walk) == 0.03 and min(walk) == -0.03  # the clip binds both ways
    assert_matches_oracle(model, [(1.0, 35, 0.0)] * 6 + [(1.0, 1, 0.0)] * 20, seed=11)


def test_clamps_match_oracle():
    # Jitter far above the runtime: the jitter floor (1 % of the runtime)
    # and the model's floor (0.1 % of the true runtime) both bind.
    model = NoiseModel(
        [
            LognormalInterference(sigma=0.5),
            GaussianJitter(sigma_seconds=1e-2),
        ]
    )
    assert_matches_oracle(model, mixed_requests(1e-4), seed=12)


def test_restored_drift_state_matches_oracle():
    model = noise_model_from_profile(NoiseProfile(drift_sigma=0.004))
    model.restore_drift_state([-0.0])
    assert_matches_oracle(model, mixed_requests(0.9), seed=13)


def test_observe_is_a_request_of_one_run():
    model = noise_model_from_profile(NoiseProfile(drift_sigma=0.004))
    twin = copy.deepcopy(model)
    rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
    for sensitivity in SENSITIVITIES:
        one = model.observe(0.8, rng_a, sensitivity)
        assert isinstance(one, float)
        assert one == twin.observe_many(0.8, 1, rng_b, sensitivity)[0]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_exp_on_array_equals_exp_on_each_scalar():
    # The array step's np.exp must agree with the scalar np.exp of the
    # run-by-run path, at every request size (SIMD body and tail alike).
    draws = np.random.default_rng(31).normal(0.0, 0.3, size=4096)
    scalars = np.array([float(np.exp(float(value))) for value in draws])
    assert np.exp(draws).tobytes() == scalars.tobytes()
    for size in REQUEST_SIZES + (3, 7, 8, 9, 17):
        for start in range(0, 256, 5):
            chunk = draws[start : start + size]
            assert np.exp(chunk).tobytes() == scalars[start : start + size].tobytes()
    table = draws[:35 * 4].reshape(35, 4)  # a strided column, as observe_many reads
    assert np.exp(table[:, 2]).tobytes() == scalars[2 : 35 * 4 : 4].tobytes()
