"""Noise-injection robustness study (the paper's stated future work).

The conclusion of the paper: *"We intend to test the bounds of our technique
by artificially introducing noise into the system to see how robustly it
performs in extreme cases.  Success would allow our strategies to be used in
heavily loaded multi-user environments."*

The simulated substrate makes that study straightforward: this module scales
a benchmark's calibrated noise profile by a sequence of multipliers (0.5x …
4x, where 1x is the calibration of Table 2) and, at every noise level, runs
the Table 1 comparison between the 35-observation baseline and the variable
plan.  The questions it answers:

* does the variable plan keep reaching the common error level cheaper as
  the environment gets noisier (the "heavily loaded machine" scenario)?
* how does the achievable error level itself degrade with noise for each
  plan?
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.comparison import PlanComparison, compare_sampling_plans
from ..core.plans import standard_plans
from ..measurement.noise import NoiseProfile
from ..spapt.suite import BENCHMARK_SPECS, SpaptBenchmark
from .config import ExperimentScale
from .registry import ExperimentSpec, UnitContext, WorkUnit, register
from .reporting import format_table

__all__ = [
    "NoiseLevelResult",
    "NoiseRobustnessResult",
    "NoiseRobustnessSpec",
    "scaled_benchmark",
    "DEFAULT_NOISE_MULTIPLIERS",
]

#: Noise multipliers of the robustness sweep (1x = Table 2's calibration).
DEFAULT_NOISE_MULTIPLIERS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)

BASELINE_PLAN = "all observations"
VARIABLE_PLAN = "variable observations"


def _scale_profile(profile: NoiseProfile, multiplier: float) -> NoiseProfile:
    """Scale every stochastic component of a noise profile by ``multiplier``."""
    if multiplier <= 0:
        raise ValueError("noise multiplier must be positive")
    return NoiseProfile(
        interference_sigma=profile.interference_sigma * multiplier,
        layout_sigma_high=profile.layout_sigma_high * multiplier,
        spike_probability=min(profile.spike_probability * multiplier, 0.5),
        spike_scale=profile.spike_scale * multiplier,
        jitter_seconds=profile.jitter_seconds * multiplier,
        drift_sigma=profile.drift_sigma * multiplier,
    )


def scaled_benchmark(name: str, noise_multiplier: float) -> SpaptBenchmark:
    """A SPAPT benchmark whose noise profile is scaled by ``noise_multiplier``."""
    if name not in BENCHMARK_SPECS:
        raise KeyError(f"unknown benchmark {name!r}")
    spec = BENCHMARK_SPECS[name]
    scaled = replace(spec, noise_profile=_scale_profile(spec.noise_profile, noise_multiplier))
    return SpaptBenchmark(scaled)


@dataclass(frozen=True)
class NoiseLevelResult:
    """Outcome of the plan comparison at one noise level."""

    noise_multiplier: float
    lowest_common_rmse: float
    baseline_cost_seconds: float
    variable_cost_seconds: float
    speedup: float
    baseline_best_rmse: float
    variable_best_rmse: float


@dataclass
class NoiseRobustnessResult:
    benchmark: str
    levels: List[NoiseLevelResult]
    comparisons: Dict[float, PlanComparison]

    def render(self) -> str:
        rows = [
            [
                f"{level.noise_multiplier:g}x",
                f"{level.lowest_common_rmse:.4g}",
                f"{level.baseline_cost_seconds:.4g}",
                f"{level.variable_cost_seconds:.4g}",
                f"{level.speedup:.2f}",
                f"{level.baseline_best_rmse:.4g}",
                f"{level.variable_best_rmse:.4g}",
            ]
            for level in self.levels
        ]
        return format_table(
            headers=[
                "noise level",
                "lowest common RMSE",
                "baseline cost (s)",
                "variable cost (s)",
                "speed-up",
                "baseline best RMSE",
                "variable best RMSE",
            ],
            rows=rows,
            title=(
                f"Noise-injection robustness ({self.benchmark}): plan comparison as the "
                "calibrated noise is scaled"
            ),
        )


def _level_comparison(
    benchmark_name: str, multiplier: float, scale: ExperimentScale
) -> PlanComparison:
    """The plan comparison at one noise level — the robustness work unit.

    Each level builds its own scaled benchmark and runs the comparison
    serially inside the unit (stateful noise carries across the level's
    runs), so the levels themselves are order-independent and shard
    freely.
    """
    benchmark = scaled_benchmark(benchmark_name, multiplier)
    comparison = compare_sampling_plans(
        benchmark, plans=standard_plans(), config=scale.comparison_config()
    )
    # Unit payloads must stay small and picklable: drop the per-run models.
    stripped = {
        plan_name: [dataclasses.replace(r, model=None) for r in results]
        for plan_name, results in comparison.results.items()
    }
    return dataclasses.replace(comparison, results=stripped)


def _level_result(multiplier: float, comparison: PlanComparison) -> NoiseLevelResult:
    return NoiseLevelResult(
        noise_multiplier=float(multiplier),
        lowest_common_rmse=comparison.lowest_common_rmse,
        baseline_cost_seconds=comparison.cost_to_reach[BASELINE_PLAN],
        variable_cost_seconds=comparison.cost_to_reach[VARIABLE_PLAN],
        speedup=comparison.speedup(BASELINE_PLAN, VARIABLE_PLAN),
        baseline_best_rmse=comparison.curves[BASELINE_PLAN].best_error,
        variable_best_rmse=comparison.curves[VARIABLE_PLAN].best_error,
    )


class NoiseRobustnessSpec(ExperimentSpec):
    """The noise-injection study as registry work units: one per noise
    multiplier, on the study benchmark (``mm`` when the scale includes it,
    otherwise the scale's first benchmark)."""

    name = "noise_robustness"
    title = "Noise robustness"
    multipliers: Tuple[float, ...] = DEFAULT_NOISE_MULTIPLIERS

    @staticmethod
    def study_benchmark(scale: ExperimentScale) -> str:
        return "mm" if "mm" in scale.benchmarks else scale.benchmarks[0]

    def fingerprint_extras(self) -> Tuple[float, ...]:
        return self.multipliers

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        benchmark = self.study_benchmark(scale)
        return [
            WorkUnit(
                artifact=self.name,
                key=(benchmark, f"{multiplier:g}x"),
                params={"benchmark": benchmark, "multiplier": multiplier},
            )
            for multiplier in self.multipliers
        ]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> PlanComparison:
        return _level_comparison(
            str(unit.params["benchmark"]), float(unit.params["multiplier"]), scale
        )

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> NoiseRobustnessResult:
        ordered = sorted(
            payloads, key=lambda pair: float(pair[0].params["multiplier"])
        )
        levels = [
            _level_result(float(unit.params["multiplier"]), comparison)
            for unit, comparison in ordered
        ]
        comparisons = {
            float(unit.params["multiplier"]): comparison
            for unit, comparison in ordered
        }
        return NoiseRobustnessResult(
            benchmark=self.study_benchmark(scale),
            levels=levels,
            comparisons=comparisons,
        )


register(NoiseRobustnessSpec())
