"""Measurement-noise models for simulated profiling runs.

The paper goes to some length (Sections 1 and 2, Table 2) to characterise the
noise that plagues runtime measurements on real machines:

* **interference** from other processes competing for cores, caches and
  memory bandwidth — multiplicative, bursty, occasionally extreme;
* **frequency/thermal effects** (e.g. Turbo Boost) — slow multiplicative
  drift;
* **memory-layout effects** (ASLR, physical page allocation) — the layout is
  fixed per *execution*, so it behaves like a per-run random offset whose
  magnitude depends on how sensitive the generated code is to conflict
  misses, i.e. it is *heteroskedastic* across the optimization space;
* **timer quantisation and OS jitter** — small additive noise;
* **heavy-tailed spikes** — a daemon waking up at the wrong moment.

Because we replace real hardware with a cost-model substrate
(:mod:`repro.machine`), the noise must be recreated synthetically.  Each
noise component below perturbs a *true* runtime into an *observed* runtime.
A :class:`NoiseModel` composes components and is attached to a benchmark by
the SPAPT substrate, calibrated so that the per-benchmark variance and
CI/mean spreads resemble Table 2 of the paper (low for ``lu``/``mvt``/
``hessian``, extreme for ``correlation``).

All randomness flows through a caller-supplied :class:`numpy.random.Generator`
so experiments are reproducible.

**Draw order.**  :meth:`NoiseModel.observe_many` is the only noise path
(:meth:`NoiseModel.observe` is a request of one run).  A request of
``count`` runs first makes, run by run, every active component's scalar
draws in component order — the order in which one run at a time through
every component draws — so the generator and the frequency-drift walk end
where run-by-run observation leaves them.  Then each component's
arithmetic runs once over the whole request as arrays, in component order.
A ``Normal(0, sigma)`` draw is made as ``standard_normal()`` and scaled by
``sigma`` in the array step, which is how ``Generator.normal`` computes
it; every elementwise operation is the same IEEE operation as its scalar
form (``np.exp`` on an array equals ``np.exp`` on each of its scalars), so
the observations are bit-identical to the run-by-run ones.  A request of
one run takes the same array steps on scalars.
``tests/test_noise_draw_order.py`` pins this against the run-by-run oracle
in ``tests/oracles/noise.py``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "NoiseComponent",
    "LognormalInterference",
    "GaussianJitter",
    "HeavyTailedSpikes",
    "HeteroskedasticLayoutNoise",
    "FrequencyDrift",
    "NoiseModel",
    "NoiseProfile",
    "noise_model_from_profile",
]


class NoiseComponent(ABC):
    """A single source of measurement noise.

    A component perturbs the runtimes of one measurement request — one or
    more runs of one configuration — in three steps:

    * :meth:`level` is called once per request and returns the request's
      noise level (a sigma, a probability or a step); a component whose
      level is not positive is inactive and draws nothing;
    * :meth:`draw` makes one run's scalar draws from the generator and
      returns them as one float;
    * :meth:`perturb` then applies the component's arithmetic to the whole
      request at once, given the runtimes so far, one draw per run and
      the level.

    No step builds a closure per request: a normal component's ``draw``
    is ``Generator.standard_normal`` itself.  The ``sensitivity`` argument is
    a per-configuration scalar in ``[0, 1]`` produced by the benchmark
    substrate; it lets a component be heteroskedastic — stronger in some
    regions of the optimization space than others — which is the property
    Table 2 documents and the sequential-analysis learner exploits.
    """

    @abstractmethod
    def level(self, sensitivity: float = 0.0) -> float:
        """The request's noise level; not positive means inactive."""

    @abstractmethod
    def draw(self, rng: np.random.Generator) -> float:
        """One run's scalar draws, as one float."""

    @abstractmethod
    def perturb(self, runtimes: np.ndarray, draws: np.ndarray, level: float) -> np.ndarray:
        """Return ``runtimes`` perturbed by this component, one draw per run."""


def _standard_normal(component: NoiseComponent) -> Callable[[np.random.Generator], float]:
    """``draw`` of a component whose draw is one standard normal:
    ``Generator.standard_normal`` itself.  Read on access, so importing
    this module does not import ``numpy.random`` (which moves where the
    interpreter places that import's memory)."""
    return np.random.Generator.standard_normal


@dataclass
class LognormalInterference(NoiseComponent):
    """Multiplicative interference from competing processes.

    The observed runtime is ``runtime * exp(eps)`` with
    ``eps ~ Normal(0, sigma)``.  A lognormal factor is the standard model for
    contention-induced slowdowns: it is always positive, skewed towards
    slowdowns, and scales with the runtime itself.
    """

    sigma: float = 0.005

    draw = property(_standard_normal)

    def level(self, sensitivity=0.0):
        return self.sigma

    def perturb(self, runtimes, draws, level):
        return runtimes * np.exp(level * draws)


@dataclass
class GaussianJitter(NoiseComponent):
    """Small additive noise from timer resolution and OS scheduling jitter.

    ``sigma_seconds`` is an absolute perturbation; the result is clamped to
    stay positive.
    """

    sigma_seconds: float = 1e-4

    draw = property(_standard_normal)

    def level(self, sensitivity=0.0):
        return self.sigma_seconds

    def perturb(self, runtimes, draws, level):
        return np.maximum(runtimes + level * draws, runtimes * 0.01)


@dataclass
class HeavyTailedSpikes(NoiseComponent):
    """Occasional large slowdowns (a daemon or cron job stealing the core).

    With probability ``probability`` the run is slowed down by a factor drawn
    from ``1 + Exponential(scale)``.
    """

    probability: float = 0.01
    scale: float = 0.05

    def level(self, sensitivity=0.0):
        return self.probability

    def draw(self, rng):
        if rng.random() < self.probability:
            return 1.0 + rng.exponential(self.scale)
        return 1.0

    def perturb(self, runtimes, draws, level):
        return runtimes * draws


@dataclass
class HeteroskedasticLayoutNoise(NoiseComponent):
    """Memory-layout (ASLR / page-colouring) noise that varies across the space.

    Curtsinger & Berger (STABILIZER) and de Oliveira et al. showed that
    layout-induced variation can dwarf the effect of the optimizations being
    studied, and that its magnitude depends on the code being measured.  The
    benchmark substrate supplies a per-configuration ``sensitivity`` in
    ``[0, 1]`` (e.g. configurations whose working set sits near a cache-size
    boundary are sensitive); the multiplicative noise sigma interpolates
    between ``sigma_low`` and ``sigma_high`` accordingly.
    """

    sigma_low: float = 0.002
    sigma_high: float = 0.08

    draw = property(_standard_normal)

    def level(self, sensitivity=0.0):
        sensitivity = min(max(sensitivity, 0.0), 1.0)
        return self.sigma_low + (self.sigma_high - self.sigma_low) * sensitivity

    def perturb(self, runtimes, draws, level):
        return runtimes * np.exp(level * draws)


@dataclass
class FrequencyDrift(NoiseComponent):
    """Slow multiplicative drift from DVFS / Turbo Boost / thermal throttling.

    Modelled as a bounded random walk shared across consecutive observations:
    each run nudges the current frequency factor and applies it.  The state
    is intentionally kept inside the component so that back-to-back
    observations of the *same* configuration are correlated, as they are on a
    machine whose clock is drifting.  The walk advances in the draw step, so
    it ends a request where run-by-run stepping would leave it.
    """

    step_sigma: float = 0.002
    max_deviation: float = 0.03
    _state: float = field(default=0.0, repr=False)

    def level(self, sensitivity=0.0):
        return self.step_sigma

    def draw(self, rng):
        # ``0.0 + step * z`` is ``Generator.normal(0.0, step)``'s own
        # arithmetic, so even the sign of a zero state matches.
        bound = self.max_deviation
        state = self._state + (0.0 + self.step_sigma * rng.standard_normal())
        self._state = state = min(max(state, -bound), bound)
        return state

    def perturb(self, runtimes, draws, level):
        return runtimes * (1.0 + draws)


@dataclass(frozen=True)
class NoiseProfile:
    """Calibration knobs describing how noisy a benchmark's measurements are.

    The values are chosen per benchmark by :mod:`repro.spapt.suite` so that
    the resulting variance and CI/mean spreads have the same qualitative
    structure as Table 2 of the paper.

    Attributes
    ----------
    interference_sigma:
        Baseline multiplicative noise applied everywhere.
    layout_sigma_high:
        Multiplicative noise in the most layout-sensitive regions.
    spike_probability / spike_scale:
        Frequency and magnitude of heavy-tailed slowdowns.
    jitter_seconds:
        Additive timer jitter.
    drift_sigma:
        Step size of the slow frequency drift (0 disables it).
    """

    interference_sigma: float = 0.004
    layout_sigma_high: float = 0.05
    spike_probability: float = 0.01
    spike_scale: float = 0.05
    jitter_seconds: float = 5e-5
    drift_sigma: float = 0.0


def noise_model_from_profile(profile: NoiseProfile) -> "NoiseModel":
    """Build a :class:`NoiseModel` from a calibration profile."""
    components: list[NoiseComponent] = [
        LognormalInterference(sigma=profile.interference_sigma),
        HeteroskedasticLayoutNoise(
            sigma_low=profile.interference_sigma / 2.0,
            sigma_high=profile.layout_sigma_high,
        ),
        HeavyTailedSpikes(
            probability=profile.spike_probability, scale=profile.spike_scale
        ),
        GaussianJitter(sigma_seconds=profile.jitter_seconds),
    ]
    if profile.drift_sigma > 0:
        components.append(FrequencyDrift(step_sigma=profile.drift_sigma))
    return NoiseModel(components)


class NoiseModel:
    """A composition of noise components applied to a true runtime.

    The model itself is stateless apart from any stateful components (such as
    :class:`FrequencyDrift`); the random generator is supplied per call so the
    profiler controls reproducibility.
    """

    def __init__(self, components: Optional[Sequence[NoiseComponent]] = None) -> None:
        self._components: list[NoiseComponent] = list(components or [])

    @property
    def components(self) -> tuple[NoiseComponent, ...]:
        return tuple(self._components)

    def observe(
        self,
        true_runtime: float,
        rng: np.random.Generator,
        sensitivity: float = 0.0,
    ) -> float:
        """Produce one noisy observation of ``true_runtime``: a request of
        one run through :meth:`observe_many`."""
        return float(self.observe_many(true_runtime, 1, rng, sensitivity)[0])

    def observe_many(
        self,
        true_runtime: float,
        count: int,
        rng: np.random.Generator,
        sensitivity: float = 0.0,
    ) -> np.ndarray:
        """Produce ``count`` independent observations as a numpy array.

        Parameters
        ----------
        true_runtime:
            The deterministic runtime predicted by the machine cost model.
        count:
            Runs in the request (at least 1).
        rng:
            Random generator owned by the caller (profiler or dataset
            generator).
        sensitivity:
            Per-configuration heteroskedasticity knob in ``[0, 1]``.

        Run by run, every active component makes its scalar draws in
        component order; then each component's arithmetic runs over the
        whole request, in component order (see the module docstring).
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if true_runtime <= 0:
            raise ValueError(f"true_runtime must be positive, got {true_runtime!r}")
        if not math.isfinite(true_runtime):
            raise ValueError("true_runtime must be finite")
        active = []
        levels = []
        drawers = []
        for component in self._components:
            level = component.level(sensitivity)
            if level <= 0:
                continue
            active.append(component)
            levels.append(level)
            drawers.append(component.draw)
        draws = [draw(rng) for _ in range(count) for draw in drawers]
        if count == 1:
            # One run (the one-observation plan, each run the CI stopping
            # rule adds): the same arithmetic on scalars, which skips
            # numpy's per-call overhead on 1-element arrays.
            observed = float(true_runtime)
            columns = draws
        else:
            observed = np.full(count, float(true_runtime))
            columns = np.array(draws).reshape(count, len(drawers)).T
        for component, column, level in zip(active, columns, levels):
            observed = component.perturb(observed, column, level)
        return np.maximum(observed, true_runtime * 1e-3, out=np.empty(count))

    def drift_state(self) -> list[float]:
        """The random-walk state of every stateful (frequency-drift)
        component, in component order — empty for drift-free models.

        Together with :meth:`restore_drift_state` this is the
        JSON-serialisable counterpart of checkpointing the whole model:
        the measurement-replay trace records it after every live
        measurement so a partially replayed run can resume the drift walk
        exactly where the recording left it.
        """
        return [
            component._state
            for component in self._components
            if isinstance(component, FrequencyDrift)
        ]

    def restore_drift_state(self, state: Sequence[float]) -> None:
        """Install drift-walk state captured by :meth:`drift_state`."""
        values = [float(v) for v in state]
        drifts = [
            component
            for component in self._components
            if isinstance(component, FrequencyDrift)
        ]
        if len(values) != len(drifts):
            raise ValueError(
                f"drift state has {len(values)} entries, but the model has "
                f"{len(drifts)} frequency-drift components"
            )
        for component, value in zip(drifts, values):
            component._state = value

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """A model with no components — observations equal the true runtime."""
        return cls([])
