"""Learning curves: model error as a function of cumulative profiling cost.

The paper's headline results are read off curves of Root Mean Squared Error
versus *evaluation time* (cumulative compilation plus profiling seconds):
Figure 6 plots the curves themselves and Table 1 reports, per benchmark, the
lowest error level reached by every compared approach together with the time
each approach needed to first reach it.

:class:`LearningCurve` stores one run's curve; :func:`average_curves`
averages repetitions onto a common cost grid (the paper averages ten runs);
:func:`lowest_common_error` and :func:`time_to_reach` implement the Table 1
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CurvePoint",
    "LearningCurve",
    "average_curves",
    "lowest_common_error",
    "time_to_reach",
    "speedup_factor",
]


@dataclass(frozen=True)
class CurvePoint:
    """One evaluation of the intermediate model during training."""

    cost_seconds: float
    rmse: float
    training_examples: int
    observations: int

    def __post_init__(self) -> None:
        if self.cost_seconds < 0:
            raise ValueError("cost cannot be negative")
        if self.rmse < 0:
            raise ValueError("rmse cannot be negative")


class LearningCurve:
    """A monotone-in-cost sequence of :class:`CurvePoint`."""

    def __init__(self, label: str, points: Optional[Sequence[CurvePoint]] = None) -> None:
        self.label = label
        self._points: List[CurvePoint] = list(points or [])
        self._validate()

    def _validate(self) -> None:
        costs = [p.cost_seconds for p in self._points]
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise ValueError("curve points must be ordered by non-decreasing cost")

    def add(self, point: CurvePoint) -> None:
        if self._points and point.cost_seconds < self._points[-1].cost_seconds:
            raise ValueError("curve points must be appended in cost order")
        self._points.append(point)

    @property
    def points(self) -> Tuple[CurvePoint, ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def costs(self) -> np.ndarray:
        return np.array([p.cost_seconds for p in self._points], dtype=float)

    def errors(self) -> np.ndarray:
        return np.array([p.rmse for p in self._points], dtype=float)

    @property
    def final_cost(self) -> float:
        if not self._points:
            raise ValueError("curve has no points")
        return self._points[-1].cost_seconds

    @property
    def best_error(self) -> float:
        """Lowest RMSE reached anywhere on the curve."""
        if not self._points:
            raise ValueError("curve has no points")
        return float(min(p.rmse for p in self._points))

    def error_at_cost(self, cost: float) -> float:
        """Best (lowest) error achieved at or before ``cost`` seconds.

        Using the running minimum rather than pointwise interpolation makes
        the metric monotone, which is what "time needed to *first reach* an
        error level" requires.
        """
        if not self._points:
            raise ValueError("curve has no points")
        best = np.inf
        for point in self._points:
            if point.cost_seconds > cost:
                break
            best = min(best, point.rmse)
        return float(best)

    def time_to_error(self, target_rmse: float) -> Optional[float]:
        """Cost at which the curve first reaches ``target_rmse`` (None if never)."""
        for point in self._points:
            if point.rmse <= target_rmse:
                return point.cost_seconds
        return None


def average_curves(curves: Sequence[LearningCurve], grid_size: int = 200) -> LearningCurve:
    """Average several repetitions of the same approach onto a common cost grid.

    Each curve is evaluated (running minimum) on a grid spanning the range of
    costs every repetition covers, then averaged pointwise — the procedure the
    paper uses to average its ten experimental runs.
    """
    curves = [c for c in curves if len(c) > 0]
    if not curves:
        raise ValueError("average_curves() needs at least one non-empty curve")
    if len(curves) == 1:
        return curves[0]
    start = max(c.costs()[0] for c in curves)
    end = min(c.final_cost for c in curves)
    if end <= start:
        # Repetitions barely overlap in cost; fall back to the shortest range.
        end = max(c.final_cost for c in curves)
        start = min(c.costs()[0] for c in curves)
    grid = np.linspace(start, end, grid_size)
    averaged_points: List[CurvePoint] = []
    for cost in grid:
        errors = [c.error_at_cost(cost) for c in curves]
        finite = [e for e in errors if np.isfinite(e)]
        if not finite:
            continue
        averaged_points.append(
            CurvePoint(
                cost_seconds=float(cost),
                rmse=float(np.mean(finite)),
                training_examples=0,
                observations=0,
            )
        )
    return LearningCurve(curves[0].label, averaged_points)


def lowest_common_error(curves: Iterable[LearningCurve]) -> float:
    """The lowest RMSE that *every* curve manages to reach.

    This is Table 1's "lowest common RMSE": the best error of the worst
    approach, i.e. the max over curves of each curve's best error.
    """
    best_errors = [curve.best_error for curve in curves]
    if not best_errors:
        raise ValueError("lowest_common_error() needs at least one curve")
    return float(max(best_errors))


def time_to_reach(curve: LearningCurve, target_rmse: float) -> float:
    """Cost needed by ``curve`` to first reach ``target_rmse``.

    Raises ``ValueError`` if the curve never reaches the target (callers are
    expected to use :func:`lowest_common_error`, which guarantees
    reachability for every compared curve).
    """
    cost = curve.time_to_error(target_rmse)
    if cost is None:
        raise ValueError(
            f"curve {curve.label!r} never reaches RMSE {target_rmse:.6g}"
        )
    return cost


def speedup_factor(
    baseline: LearningCurve, contender: LearningCurve, levels: int = 20
) -> float:
    """Multi-level speed-up: AUC-style ratio of costs across error levels.

    Table 1's cost-to-reach speed-up compares the two curves at a *single*
    error level (the lowest one both reach), which makes it sensitive to
    exactly where that level falls.  Following the Speed-up Factor idea of
    arXiv:2602.13359 this metric instead sweeps ``levels`` error levels
    spanning the range both curves cover — from the worse of the two
    starting errors down to the lowest common error — computes the
    baseline/contender cost ratio at every level, and aggregates with the
    geometric mean (equivalently: the ratio of the areas under the two
    log-cost-versus-error curves).  Values above 1 mean the contender is
    cheaper across the whole error range, not just at one point.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    lo = float(max(baseline.best_error, contender.best_error))
    hi = float(min(baseline.errors()[0], contender.errors()[0]))
    if hi < lo:
        # One curve starts below the other's floor: only the common floor
        # is comparable, so degrade to the single-level ratio.
        hi = lo
    log_ratios = []
    for target in np.linspace(hi, lo, num=levels):
        baseline_cost = time_to_reach(baseline, float(target))
        contender_cost = time_to_reach(contender, float(target))
        if baseline_cost <= 0 or contender_cost <= 0:
            continue  # both at the free starting point: no information
        log_ratios.append(np.log(baseline_cost) - np.log(contender_cost))
    if not log_ratios:
        return 1.0
    return float(np.exp(np.mean(log_ratios)))
