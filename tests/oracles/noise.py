"""Run-by-run reference of the measurement-noise path.

Before requests were batched, a noise model observed one run at a time:
each component's ``apply`` perturbed the runtime with its own scalar
draws, in component order, and the model clamped the result at a
thousandth of the true runtime.  :func:`observe_many` keeps that loop,
reading each component's parameters, so ``tests/test_noise_draw_order.py``
can check that :meth:`repro.measurement.noise.NoiseModel.observe_many`
makes the same draws in the same order and returns the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.measurement.noise import (
    FrequencyDrift,
    GaussianJitter,
    HeavyTailedSpikes,
    HeteroskedasticLayoutNoise,
    LognormalInterference,
    NoiseModel,
)

__all__ = ["apply", "observe", "observe_many"]


def apply(component, runtime: float, rng: np.random.Generator, sensitivity: float) -> float:
    """One run of ``component``, as its historical per-run ``apply`` did."""
    if isinstance(component, LognormalInterference):
        if component.sigma <= 0:
            return runtime
        return runtime * float(np.exp(rng.normal(0.0, component.sigma)))
    if isinstance(component, GaussianJitter):
        if component.sigma_seconds <= 0:
            return runtime
        perturbed = runtime + float(rng.normal(0.0, component.sigma_seconds))
        return max(perturbed, runtime * 0.01)
    if isinstance(component, HeavyTailedSpikes):
        if component.probability <= 0:
            return runtime
        if rng.random() < component.probability:
            return runtime * (1.0 + float(rng.exponential(component.scale)))
        return runtime
    if isinstance(component, HeteroskedasticLayoutNoise):
        sensitivity = min(max(sensitivity, 0.0), 1.0)
        sigma = component.sigma_low + (
            component.sigma_high - component.sigma_low
        ) * sensitivity
        if sigma <= 0:
            return runtime
        return runtime * float(np.exp(rng.normal(0.0, sigma)))
    if isinstance(component, FrequencyDrift):
        if component.step_sigma <= 0:
            return runtime
        component._state += float(rng.normal(0.0, component.step_sigma))
        component._state = min(
            max(component._state, -component.max_deviation),
            component.max_deviation,
        )
        return runtime * (1.0 + component._state)
    raise TypeError(f"no reference for {type(component).__name__}")


def observe(
    model: NoiseModel, true_runtime: float, rng: np.random.Generator, sensitivity: float
) -> float:
    """One observation: every component in order, then the clamp."""
    observed = float(true_runtime)
    for component in model.components:
        observed = apply(component, observed, rng, sensitivity)
    return max(observed, true_runtime * 1e-3)


def observe_many(
    model: NoiseModel,
    true_runtime: float,
    count: int,
    rng: np.random.Generator,
    sensitivity: float,
) -> np.ndarray:
    """``count`` observations, one run at a time."""
    return np.array(
        [observe(model, true_runtime, rng, sensitivity) for _ in range(count)],
        dtype=float,
    )
