"""Figure 6: RMSE versus evaluation time for the three sampling plans.

Figure 6 of the paper shows, for six representative benchmarks (adi, atax,
correlation, gemver, jacobi and mvt), how the model error evolves with
cumulative profiling cost under the three plans — 35 observations, one
observation and variable observations per training point.  The qualitative
patterns it documents are:

* **adi / correlation** — noisy spaces where the single-observation plan
  plateaus at a higher error than the other two;
* **atax / bicgkernel** — quiet spaces where a single observation is enough
  and the 35-observation baseline simply wastes time;
* **gemver / dgemv3 / hessian** — large wins for the variable plan;
* **jacobi / lu / mm / mvt** — modest but consistent wins.

The result holds the averaged curves (cost, RMSE series) for each plan so
the benchmark harness can print them and tests can assert on their shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.comparison import PlanComparison
from ..core.curves import LearningCurve
from .config import ExperimentScale
from .registry import ExperimentSpec, UnitContext, WorkUnit, register
from .reporting import format_table

__all__ = [
    "Figure6Panel",
    "Figure6Result",
    "Figure6Spec",
    "PAPER_FIGURE6_BENCHMARKS",
]

#: The six benchmarks shown in Figure 6 of the paper.
PAPER_FIGURE6_BENCHMARKS = ("adi", "atax", "correlation", "gemver", "jacobi", "mvt")


@dataclass
class Figure6Panel:
    """One sub-figure: the three learning curves of a single benchmark."""

    benchmark: str
    curves: Dict[str, LearningCurve]
    comparison: PlanComparison

    def series(self, plan_name: str) -> List[tuple]:
        """(cost_seconds, rmse) pairs for one plan's averaged curve."""
        curve = self.curves[plan_name]
        return [(p.cost_seconds, p.rmse) for p in curve.points]

    def render(self, samples: int = 8) -> str:
        rows = []
        for name, curve in self.curves.items():
            points = curve.points
            step = max(len(points) // samples, 1)
            sampled = points[::step]
            for point in sampled:
                rows.append([name, f"{point.cost_seconds:.4g}", f"{point.rmse:.4g}"])
        return format_table(
            headers=["plan", "evaluation time (s)", "RMSE (s)"],
            rows=rows,
            title=f"Figure 6 panel: {self.benchmark}",
        )


@dataclass
class Figure6Result:
    panels: Dict[str, Figure6Panel]

    def render(self) -> str:
        return "\n\n".join(panel.render() for panel in self.panels.values())


class Figure6Spec(ExperimentSpec):
    """Figure 6 as a registry artifact: derived from Table 1's per-unit
    learner runs.  The fold restricts Table 1's comparisons to the paper's
    six Figure 6 benchmarks (every scale benchmark when none of the six is
    in scope), so the learning curves come from the same work units that
    produced the Table 1 rows — nothing is recomputed."""

    name = "figure6"
    title = "Figure 6"
    depends_on = ("table1",)

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return []

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Any:
        raise RuntimeError("figure6 has no work units; it folds from table1")

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Figure6Result:
        comparisons: Dict[str, PlanComparison] = deps["table1"].comparisons
        names = [b for b in PAPER_FIGURE6_BENCHMARKS if b in comparisons]
        if not names:
            names = list(comparisons)
        panels = {
            name: Figure6Panel(
                benchmark=name,
                curves=comparisons[name].curves,
                comparison=comparisons[name],
            )
            for name in names
        }
        return Figure6Result(panels=panels)


register(Figure6Spec())
