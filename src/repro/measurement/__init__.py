"""Measurement substrate: noise models, the simulated profiler and statistics.

This package replaces the physical measurement apparatus of the paper (a
single-user x86 server timed with ``clock_gettime``) with a controllable,
reproducible simulation of the same phenomena: deterministic "true" runtimes
perturbed by interference, layout, spike and jitter noise, and a profiler
that charges compilation and execution cost exactly as the paper accounts
it.
"""

from .broker import (
    MeasurementBroker,
    MeasurementRequest,
    MeasurementResult,
    ProfilerBroker,
    ReplayBroker,
    ReplayMissError,
    ReplayTrace,
)
from .faults import (
    BrokerPolicy,
    CorruptMeasurementError,
    FaultInjectingBroker,
    FaultPlan,
    MeasurementFailedError,
    MeasurementTimeoutError,
    ResilientBroker,
    TransientMeasurementError,
)
from .noise import (
    FrequencyDrift,
    GaussianJitter,
    HeavyTailedSpikes,
    HeteroskedasticLayoutNoise,
    LognormalInterference,
    NoiseComponent,
    NoiseModel,
    NoiseProfile,
    noise_model_from_profile,
)
from .profiler import CostLedger, Profiler, TunableProgram
from .stats import (
    RunningStats,
    SampleSummary,
    confidence_interval_halfwidth,
    ci_to_mean_ratio,
    geometric_mean,
    mean_absolute_error,
    root_mean_squared_error,
    summarize,
    welford_update,
)

__all__ = [
    "MeasurementBroker",
    "MeasurementRequest",
    "MeasurementResult",
    "ProfilerBroker",
    "ReplayBroker",
    "ReplayMissError",
    "ReplayTrace",
    "BrokerPolicy",
    "CorruptMeasurementError",
    "FaultInjectingBroker",
    "FaultPlan",
    "MeasurementFailedError",
    "MeasurementTimeoutError",
    "ResilientBroker",
    "TransientMeasurementError",
    "FrequencyDrift",
    "GaussianJitter",
    "HeavyTailedSpikes",
    "HeteroskedasticLayoutNoise",
    "LognormalInterference",
    "NoiseComponent",
    "NoiseModel",
    "NoiseProfile",
    "noise_model_from_profile",
    "CostLedger",
    "Profiler",
    "TunableProgram",
    "RunningStats",
    "SampleSummary",
    "confidence_interval_halfwidth",
    "ci_to_mean_ratio",
    "geometric_mean",
    "mean_absolute_error",
    "root_mean_squared_error",
    "summarize",
    "welford_update",
]
