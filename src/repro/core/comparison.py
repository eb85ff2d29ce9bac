"""Head-to-head comparison of sampling plans on one benchmark.

This is the driver behind Table 1, Figure 5 and Figure 6: for one SPAPT
benchmark it runs the active learner once per sampling plan per repetition
(sharing a held-out test set within each repetition), averages the learning
curves across repetitions, and computes the Table 1 metrics — the lowest
error level every plan reaches, the cost each plan needs to first reach it,
and the resulting speed-up of the paper's variable plan over the baseline.

Every (benchmark × plan × repetition) run is seeded by :func:`run_seeds`,
independently of execution order, so the experiment registry
(:mod:`repro.experiments.registry`) can shard the runs over processes and
hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..spapt.suite import SpaptBenchmark
from .acquisition import AcquisitionFunction, ALCAcquisition, make_acquisition
from .curves import LearningCurve, average_curves, lowest_common_error, time_to_reach
from .evaluation import build_test_set
from .learner import ActiveLearner, LearnerConfig, LearningResult
from .plans import SamplingPlan, make_plan, standard_plans

__all__ = [
    "ComparisonConfig",
    "PlanComparison",
    "assemble_comparison",
    "compare_sampling_plans",
    "resolve_acquisition",
    "resolve_plans",
    "run_seeds",
    "speedup_between",
]

PlanLike = object  # a SamplingPlan or a registered plan name (str)


def resolve_plans(plans: Optional[Sequence[PlanLike]]) -> List[SamplingPlan]:
    """Normalise a plan axis: ``None`` → the paper's three standard plans,
    strings → :func:`~repro.core.plans.make_plan` lookups, plan instances
    pass through.  This is what lets an experiment spec declare its plan
    axis as a list of names."""
    if plans is None:
        return standard_plans()
    resolved = [
        make_plan(plan) if isinstance(plan, str) else plan for plan in plans
    ]
    if not resolved:
        raise ValueError("at least one sampling plan is required")
    return resolved


def resolve_acquisition(
    acquisition: Optional[object],
) -> AcquisitionFunction:
    """Normalise an acquisition axis: ``None`` → ALC, strings → lookup."""
    if acquisition is None:
        return ALCAcquisition()
    if isinstance(acquisition, str):
        return make_acquisition(acquisition)
    return acquisition


@dataclass(frozen=True)
class ComparisonConfig:
    """Scale knobs for a plan comparison.

    The paper repeats every experiment ten times with fresh random seeds and
    tests on 2 500 held-out configurations; the defaults here are laptop
    sized and every knob is explicit so the harness (and the user) can dial
    the experiment up to paper scale.
    """

    learner: LearnerConfig = field(default_factory=LearnerConfig)
    repetitions: int = 2
    test_size: int = 300
    test_observations: int = 35
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.test_size < 1:
            raise ValueError("test_size must be at least 1")
        if self.test_observations < 1:
            raise ValueError("test_observations must be at least 1")

    @classmethod
    def paper_scale(cls) -> "ComparisonConfig":
        """The experimental scale used by the paper (Sections 4.4-4.5)."""
        return cls(
            learner=LearnerConfig.paper_scale(),
            repetitions=10,
            test_size=2500,
            test_observations=35,
        )


@dataclass
class PlanComparison:
    """Outcome of comparing several sampling plans on one benchmark."""

    benchmark_name: str
    curves: Dict[str, LearningCurve]
    results: Dict[str, List[LearningResult]]
    lowest_common_rmse: float
    cost_to_reach: Dict[str, float]

    def speedup(self, baseline: str, contender: str) -> float:
        """Cost of ``baseline`` divided by cost of ``contender`` (>1 means faster)."""
        if baseline not in self.cost_to_reach or contender not in self.cost_to_reach:
            raise KeyError("unknown plan name")
        contender_cost = self.cost_to_reach[contender]
        if contender_cost <= 0:
            raise ValueError("contender cost must be positive")
        return self.cost_to_reach[baseline] / contender_cost


def run_seeds(
    config: ComparisonConfig, repetition: int, plan_index: int = 0
) -> Tuple[int, int]:
    """The ``(test_seed, run_seed)`` pair of one (repetition × plan) run.

    The held-out test set's seed depends only on the repetition, so every
    plan of a repetition is scored on the same configurations; the
    learner's seed also depends on ``plan_index``, the run's position on
    its comparison axis (the sampling plan for Table 1, the variant for
    the ablations).  Neither depends on execution order.
    """
    return (
        config.seed + 7919 * repetition,
        config.seed + 104729 * repetition + 1299709 * plan_index + 1,
    )


def assemble_comparison(
    benchmark_name: str,
    plan_names: Sequence[str],
    per_plan_results: Dict[str, List[LearningResult]],
) -> PlanComparison:
    """Fold per-run results into the averaged curves and Table 1 metrics.

    ``plan_names`` are plain labels, so the same fold serves the sampling
    plan comparison and any other single-axis comparison of learner runs
    (the ablation specs group runs by acquisition or model name).
    """
    per_plan_curves = {
        name: [result.curve for result in per_plan_results[name]]
        for name in plan_names
    }
    averaged = {
        name: average_curves(curves) for name, curves in per_plan_curves.items()
    }
    common_rmse = lowest_common_error(averaged.values())
    cost_to_reach = {
        name: time_to_reach(curve, common_rmse) for name, curve in averaged.items()
    }
    return PlanComparison(
        benchmark_name=benchmark_name,
        curves=averaged,
        results=per_plan_results,
        lowest_common_rmse=common_rmse,
        cost_to_reach=cost_to_reach,
    )


def compare_sampling_plans(
    benchmark: SpaptBenchmark,
    plans: Optional[Sequence[SamplingPlan]] = None,
    config: Optional[ComparisonConfig] = None,
    acquisition: Optional[AcquisitionFunction] = None,
) -> PlanComparison:
    """Run every sampling plan on ``benchmark`` and summarise the comparison.

    The runs execute in-process, repetition by repetition, on the given
    instance: stateful noise components (frequency drift) carry over from
    run to run.  This is the path for customised instances the registry
    cannot rebuild by name, such as a scaled noise profile.

    ``plans`` entries and ``acquisition`` may be given as registered names
    (strings) instead of instances.
    """
    plans = resolve_plans(plans)
    config = config if config is not None else ComparisonConfig()
    acquisition = resolve_acquisition(acquisition)

    per_plan_results: Dict[str, List[LearningResult]] = {plan.name: [] for plan in plans}
    for repetition in range(config.repetitions):
        test_seed, _ = run_seeds(config, repetition)
        test_set = build_test_set(
            benchmark,
            size=config.test_size,
            observations=config.test_observations,
            rng=np.random.default_rng(test_seed),
        )
        for plan_index, plan in enumerate(plans):
            _, run_seed = run_seeds(config, repetition, plan_index)
            learner = ActiveLearner(
                benchmark,
                plan=plan,
                acquisition=acquisition,
                config=config.learner,
                rng=np.random.default_rng(run_seed),
            )
            per_plan_results[plan.name].append(learner.run(test_set))
    return assemble_comparison(
        benchmark.name, [plan.name for plan in plans], per_plan_results
    )


def speedup_between(
    comparison: PlanComparison,
    baseline: str = "all observations",
    contender: str = "variable observations",
) -> float:
    """Convenience wrapper for the Table 1 / Figure 5 speed-up numbers."""
    return comparison.speedup(baseline, contender)
