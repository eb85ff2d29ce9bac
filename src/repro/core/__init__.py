"""Active learning with sequential analysis — the paper's contribution."""

from .acquisition import (
    AcquisitionFunction,
    ALCAcquisition,
    ALMAcquisition,
    RandomAcquisition,
    acquisition_names,
    make_acquisition,
)
from .candidates import CandidatePool
from .comparison import (
    ComparisonConfig,
    PlanComparison,
    assemble_comparison,
    compare_sampling_plans,
    resolve_acquisition,
    resolve_plans,
    speedup_between,
)
from .curves import (
    CurvePoint,
    LearningCurve,
    average_curves,
    lowest_common_error,
    speedup_factor,
    time_to_reach,
)
from .evaluation import TestSet, build_test_set, evaluate_rmse
from .learner import ActiveLearner, LearnerConfig, LearningResult
from .plans import (
    SamplingPlan,
    adaptive_ci_plan,
    fixed_plan,
    make_plan,
    plan_names,
    sequential_plan,
    standard_plans,
)
from .session import DONE, LEARNING, SEEDING, TuningSession

__all__ = [
    "AcquisitionFunction",
    "ALCAcquisition",
    "ALMAcquisition",
    "RandomAcquisition",
    "acquisition_names",
    "make_acquisition",
    "CandidatePool",
    "ComparisonConfig",
    "PlanComparison",
    "assemble_comparison",
    "compare_sampling_plans",
    "resolve_acquisition",
    "resolve_plans",
    "speedup_between",
    "CurvePoint",
    "LearningCurve",
    "average_curves",
    "lowest_common_error",
    "speedup_factor",
    "time_to_reach",
    "TestSet",
    "build_test_set",
    "evaluate_rmse",
    "ActiveLearner",
    "LearnerConfig",
    "LearningResult",
    "SamplingPlan",
    "adaptive_ci_plan",
    "fixed_plan",
    "make_plan",
    "plan_names",
    "sequential_plan",
    "standard_plans",
    "TuningSession",
    "SEEDING",
    "LEARNING",
    "DONE",
]
