"""Machine model: cache hierarchy, core model, runtime and compile-time costs.

Replaces the paper's physical evaluation machine (Intel Core i7-4770K,
gcc 4.7.2) with an analytical model that maps (kernel, transformation
configuration) to a deterministic runtime and compile time.
"""

from .cache import CacheLevel, MemoryHierarchy, haswell_hierarchy
from .cpu import CoreModel, haswell_core
from .cost_model import (
    CostBreakdown,
    CostEvaluation,
    MachineCostModel,
    TransformConfiguration,
)

__all__ = [
    "CacheLevel",
    "MemoryHierarchy",
    "haswell_hierarchy",
    "CoreModel",
    "haswell_core",
    "CostBreakdown",
    "CostEvaluation",
    "MachineCostModel",
    "TransformConfiguration",
]
