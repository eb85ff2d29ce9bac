"""The 11 SPAPT search problems: kernels + search spaces + noise calibration.

A :class:`SpaptBenchmark` bundles everything the rest of the system needs to
treat a SPAPT problem like the paper does:

* the kernel (loop-nest IR) and its machine cost model,
* the tunable search space (unroll / cache-tile / register-tile parameters
  bound to specific loops), sized to approximate the per-benchmark search
  space cardinalities of Table 1,
* a noise profile calibrated so that the spread of measurement variance and
  CI/mean ratios resembles Table 2 (essentially noise-free for ``mvt``,
  ``lu`` and ``hessian``; extremely noisy for ``correlation``),
* a target mean runtime used to place the simulated runtimes in the same
  range as the paper's measurements (the cost model is auto-scaled so the
  untransformed ``-O2`` baseline configuration hits that target).

A benchmark implements the :class:`repro.measurement.profiler.TunableProgram`
protocol, so a :class:`repro.measurement.Profiler` can compile-and-measure
its configurations directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.loopnest import Kernel
from ..machine.cost_model import CostEvaluation, MachineCostModel
from ..measurement.noise import NoiseModel, NoiseProfile, noise_model_from_profile
from .kernels import KERNEL_BUILDERS
from .search_space import SearchSpace, TunableParameter

__all__ = [
    "BenchmarkSpec",
    "SpaptBenchmark",
    "BENCHMARK_SPECS",
    "benchmark_names",
    "get_benchmark",
    "load_suite",
    "PAPER_SEARCH_SPACE_SIZES",
]


#: Search-space cardinalities reported in Table 1 of the paper, used for
#: reporting alongside the cardinalities of our reproduction spaces.
PAPER_SEARCH_SPACE_SIZES: Dict[str, float] = {
    "adi": 3.78e14,
    "atax": 2.57e12,
    "bicgkernel": 5.83e8,
    "correlation": 3.78e14,
    "dgemv3": 1.33e27,
    "gemver": 1.14e16,
    "hessian": 1.95e7,
    "jacobi": 1.95e7,
    "lu": 5.83e8,
    "mm": 3.18e9,
    "mvt": 1.95e7,
}


def _unrolls(*loop_vars: str, max_factor: int = 32) -> List[TunableParameter]:
    return [
        TunableParameter.unroll(f"U_{var}", var, max_factor=max_factor)
        for var in loop_vars
    ]


def _tiles(*loop_vars: str, values: Optional[Sequence[int]] = None) -> List[TunableParameter]:
    if values is None:
        values = (1,) + tuple(range(16, 1025, 16))
    return [
        TunableParameter.cache_tile(f"T_{var}", var, values=values) for var in loop_vars
    ]


def _register_tiles(*loop_vars: str, max_factor: int = 16) -> List[TunableParameter]:
    return [
        TunableParameter.register_tile(f"RT_{var}", var, max_factor=max_factor)
        for var in loop_vars
    ]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one SPAPT search problem."""

    name: str
    kernel_builder: Callable[[], Kernel]
    parameters: Tuple[TunableParameter, ...]
    target_runtime_seconds: float
    noise_profile: NoiseProfile
    compile_base_seconds: float = 1.0
    compile_per_statement_seconds: float = 0.0015
    description: str = ""

    def build_kernel(self) -> Kernel:
        return self.kernel_builder()


def _spec(
    name: str,
    parameters: Sequence[TunableParameter],
    target_runtime: float,
    noise: NoiseProfile,
    compile_base: float,
    description: str,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        kernel_builder=KERNEL_BUILDERS[name],
        parameters=tuple(parameters),
        target_runtime_seconds=target_runtime,
        noise_profile=noise,
        compile_base_seconds=compile_base,
        description=description,
    )


def _build_specs() -> Dict[str, BenchmarkSpec]:
    """Construct the 11 benchmark specifications.

    Noise calibration follows Table 2 of the paper: the mean measurement
    variance spans eight orders of magnitude across benchmarks, from ``mvt``
    (1e-8, essentially deterministic) to ``correlation`` (0.42, so noisy that
    even 35 observations are not always enough).
    """
    specs: Dict[str, BenchmarkSpec] = {}

    specs["adi"] = _spec(
        "adi",
        _unrolls("i1", "i2", "i3", "j1", "j2")
        + _tiles("j1", "j2", "j3")
        + _register_tiles("i1"),
        target_runtime=2.3,
        noise=NoiseProfile(
            interference_sigma=0.010,
            layout_sigma_high=0.060,
            spike_probability=0.02,
            spike_scale=0.08,
            drift_sigma=0.002,
        ),
        compile_base=3.0,
        description="ADI stencil integration; noisy space with structured noisy regions",
    )
    specs["atax"] = _spec(
        "atax",
        _unrolls("i1", "j1", "i2", "j2") + _tiles("j1", "j2") + _register_tiles("i1", "i2"),
        target_runtime=0.85,
        noise=NoiseProfile(
            interference_sigma=0.004,
            layout_sigma_high=0.030,
            spike_probability=0.01,
            spike_scale=0.05,
        ),
        compile_base=1.5,
        description="A^T(Ax); comparatively low noise",
    )
    specs["bicgkernel"] = _spec(
        "bicgkernel",
        _unrolls("i1", "j1", "i2") + _tiles("j1") + _register_tiles("i1", "i2"),
        target_runtime=0.70,
        noise=NoiseProfile(
            interference_sigma=0.004,
            layout_sigma_high=0.035,
            spike_probability=0.01,
            spike_scale=0.05,
        ),
        compile_base=1.5,
        description="BiCG forward and transposed matvec",
    )
    specs["correlation"] = _spec(
        "correlation",
        _unrolls("i1", "j1", "i3", "j3", "k3")
        + _tiles("j2", "j3", "k3")
        + _register_tiles("i3"),
        target_runtime=3.0,
        noise=NoiseProfile(
            interference_sigma=0.030,
            layout_sigma_high=0.280,
            spike_probability=0.06,
            spike_scale=0.35,
            drift_sigma=0.004,
        ),
        compile_base=2.5,
        description="Correlation matrix; extremely noisy measurements (Table 2)",
    )
    specs["dgemv3"] = _spec(
        "dgemv3",
        _unrolls("i1", "j1", "i2", "j2", "i3", "j3", "i4", "i5", max_factor=64)
        + _tiles("j1", "j2", "j3")
        + _register_tiles("i1", "i2", "i3", max_factor=32)
        + _register_tiles("i4", "i5"),
        target_runtime=0.65,
        noise=NoiseProfile(
            interference_sigma=0.005,
            layout_sigma_high=0.035,
            spike_probability=0.012,
            spike_scale=0.06,
        ),
        compile_base=2.0,
        description="Three chained matvecs; very large search space",
    )
    specs["gemver"] = _spec(
        "gemver",
        _unrolls("i1", "j1", "i2", "j2", "i4", "j4")
        + _tiles("j1", "j2", "j4")
        + _register_tiles("i1"),
        target_runtime=1.6,
        noise=NoiseProfile(
            interference_sigma=0.012,
            layout_sigma_high=0.110,
            spike_probability=0.02,
            spike_scale=0.10,
        ),
        compile_base=2.0,
        description="BLAS gemver; sizeable noise but few extreme points",
    )
    specs["hessian"] = _spec(
        "hessian",
        _unrolls("i1", "j1") + _tiles("i1", "j1") + _register_tiles("i1", max_factor=4),
        target_runtime=0.16,
        noise=NoiseProfile(
            interference_sigma=0.0015,
            layout_sigma_high=0.010,
            spike_probability=0.004,
            spike_scale=0.03,
        ),
        compile_base=0.8,
        description="Hessian stencil; small and nearly noise-free",
    )
    specs["jacobi"] = _spec(
        "jacobi",
        _unrolls("i1", "j1", "i2") + _tiles("j1") + _register_tiles("i1", max_factor=8),
        target_runtime=0.80,
        noise=NoiseProfile(
            interference_sigma=0.004,
            layout_sigma_high=0.040,
            spike_probability=0.01,
            spike_scale=0.05,
        ),
        compile_base=1.2,
        description="Jacobi 2-D relaxation with copy-back",
    )
    specs["lu"] = _spec(
        "lu",
        _unrolls("i1", "i2", "j2") + _tiles("j2") + _register_tiles("i2", "k2"),
        target_runtime=0.30,
        noise=NoiseProfile(
            interference_sigma=0.0012,
            layout_sigma_high=0.008,
            spike_probability=0.003,
            spike_scale=0.02,
        ),
        compile_base=1.0,
        description="LU decomposition; essentially deterministic measurements",
    )
    specs["mm"] = _spec(
        "mm",
        _unrolls("i", "j", max_factor=30)
        + _unrolls("k")
        + _tiles("i", "j", "k", values=(1,) + tuple(range(16, 321, 16)))
        + _register_tiles("i", max_factor=8),
        target_runtime=0.50,
        noise=NoiseProfile(
            interference_sigma=0.002,
            layout_sigma_high=0.014,
            spike_probability=0.006,
            spike_scale=0.03,
        ),
        compile_base=1.0,
        description="Dense matrix multiplication (the Figure 1 motivation kernel)",
    )
    specs["mvt"] = _spec(
        "mvt",
        _unrolls("i1", "j1", "i2", "j2") + _tiles("j1", values=(1,) + tuple(range(32, 513, 32))),
        target_runtime=0.15,
        noise=NoiseProfile(
            interference_sigma=0.0008,
            layout_sigma_high=0.005,
            spike_probability=0.002,
            spike_scale=0.02,
        ),
        compile_base=0.8,
        description="mvt matvec pair; the quietest benchmark in Table 2",
    )
    return specs


BENCHMARK_SPECS: Dict[str, BenchmarkSpec] = _build_specs()


def benchmark_names() -> List[str]:
    """The 11 benchmark names in the order the paper lists them."""
    return sorted(BENCHMARK_SPECS)


class SpaptBenchmark:
    """One SPAPT search problem wired to the simulated machine.

    Implements the :class:`repro.measurement.profiler.TunableProgram`
    protocol (``true_runtime``, ``compile_time``, ``noise_sensitivity``,
    ``noise_model``) on top of the machine cost model, and exposes the
    search space and feature encoding used by the learners.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        cache_size: int = 200_000,
    ) -> None:
        self._spec = spec
        self._kernel = spec.build_kernel()
        self._space = SearchSpace(spec.parameters)
        self._validate_parameters()
        model = MachineCostModel(
            self._kernel,
            compile_base_seconds=spec.compile_base_seconds,
            compile_per_statement_seconds=spec.compile_per_statement_seconds,
        )
        baseline = self._space.to_transform_configuration(
            self._space.default_configuration()
        )
        self._model = model.with_time_scale(
            spec.target_runtime_seconds / model.runtime_seconds(baseline)
        )
        self._noise_model = noise_model_from_profile(spec.noise_profile)
        # One evaluation per configuration serves all three protocol methods:
        # the learners revisit configurations many times and dataset
        # generation touches each configuration 35 times.
        self._evaluations = lru_cache(maxsize=cache_size)(self._evaluate)

    def _validate_parameters(self) -> None:
        loop_vars = set(self._kernel.loop_names())
        for param in self._space.parameters:
            if param.loop_var not in loop_vars:
                raise ValueError(
                    f"benchmark {self._spec.name!r}: parameter {param.name!r} refers to "
                    f"unknown loop {param.loop_var!r}"
                )

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def spec(self) -> BenchmarkSpec:
        return self._spec

    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def search_space(self) -> SearchSpace:
        return self._space

    @property
    def cost_model(self) -> MachineCostModel:
        return self._model

    @property
    def noise_model(self) -> NoiseModel:
        return self._noise_model

    def restore_noise_model(self, noise_model: NoiseModel) -> None:
        """Install a noise model checkpointed from an earlier instance.

        The noise model is the only *stateful* part of a benchmark (the
        frequency-drift component carries a random-walk state between
        observations); everything else is rebuilt deterministically from
        the spec.  A resumed experiment (see
        :mod:`repro.experiments.runner`) rebuilds the benchmark by name and
        restores the drift state through this hook, keeping the resumed
        measurement stream bit-identical to the uninterrupted one.
        """
        self._noise_model = noise_model

    @property
    def paper_search_space_size(self) -> float:
        return PAPER_SEARCH_SPACE_SIZES[self._spec.name]

    # --------------------------------------------------- TunableProgram API

    def true_runtime(self, configuration: Sequence[int]) -> float:
        """Deterministic mean runtime (seconds) of a configuration."""
        return self._evaluations(self._space.validate(configuration)).runtime_seconds

    def compile_time(self, configuration: Sequence[int]) -> float:
        """Compile time (seconds) of a configuration."""
        return self._evaluations(self._space.validate(configuration)).compile_seconds

    def noise_sensitivity(self, configuration: Sequence[int]) -> float:
        """Heteroskedasticity knob in [0, 1] for the noise substrate."""
        return self._evaluations(self._space.validate(configuration)).noise_sensitivity

    # -------------------------------------------------------------- features

    def features(self, configuration: Sequence[int]) -> np.ndarray:
        """Normalised (scaled and centred) feature vector of a configuration."""
        return self._space.normalize_many([configuration])[0]

    def features_many(self, configurations: Sequence[Sequence[int]]) -> np.ndarray:
        """One feature matrix for a batch of configurations."""
        return self._space.normalize_many(configurations)

    # -------------------------------------------------------------- internal

    def _evaluate(self, configuration: Tuple[int, ...]) -> CostEvaluation:
        return self._model.evaluate(self._space.to_transform_configuration(configuration))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaptBenchmark({self._spec.name!r}, space={self._space.size:.3g}, "
            f"target={self._spec.target_runtime_seconds}s)"
        )


def get_benchmark(name: str) -> SpaptBenchmark:
    """Instantiate one of the 11 SPAPT benchmarks by name."""
    if name not in BENCHMARK_SPECS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
        )
    return SpaptBenchmark(BENCHMARK_SPECS[name])


def load_suite(names: Optional[Sequence[str]] = None) -> List[SpaptBenchmark]:
    """Instantiate several benchmarks (all 11 by default)."""
    selected = list(names) if names is not None else benchmark_names()
    return [get_benchmark(name) for name in selected]
