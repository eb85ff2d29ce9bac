"""Figure 5: reduction of profiling cost per benchmark (the speed-up bars).

Figure 5 is a bar chart of the Table 1 speed-ups — how much less profiling
time the variable-observation approach needs than the 35-observation
baseline to reach the same error level — ordered per benchmark, with the
geometric mean as the summary bar.  The spec folds the bars from Table 1's
result and renders them as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence, Tuple

from ..measurement.stats import geometric_mean
from .config import ExperimentScale
from .registry import ExperimentSpec, UnitContext, WorkUnit, register
from .reporting import format_table
from .table1 import Table1Result

__all__ = [
    "Figure5Bar",
    "Figure5Result",
    "Figure5Spec",
    "figure5_from_table1",
]


@dataclass(frozen=True)
class Figure5Bar:
    benchmark: str
    speedup: float
    paper_speedup: float


@dataclass
class Figure5Result:
    bars: List[Figure5Bar]

    @property
    def geometric_mean_speedup(self) -> float:
        return geometric_mean([bar.speedup for bar in self.bars])

    def render(self, width: int = 40) -> str:
        """ASCII bar chart plus the underlying numbers."""
        maximum = max(max(bar.speedup for bar in self.bars), 1.0)
        rows = []
        for bar in sorted(self.bars, key=lambda b: b.speedup):
            length = max(int(round(width * bar.speedup / maximum)), 1)
            rows.append(
                [
                    bar.benchmark,
                    f"{bar.speedup:.2f}x",
                    f"{bar.paper_speedup:.2f}x",
                    "#" * length,
                ]
            )
        rows.append(
            ["geometric mean", f"{self.geometric_mean_speedup:.2f}x", "3.97x", ""]
        )
        return format_table(
            headers=["benchmark", "speed-up", "paper", "profiling-cost reduction"],
            rows=rows,
            title="Figure 5: reduction of profiling cost vs the 35-observation baseline",
        )


def figure5_from_table1(table1: Table1Result) -> Figure5Result:
    """Build the Figure 5 bars from an existing Table 1 result."""
    bars = [
        Figure5Bar(
            benchmark=row.benchmark,
            speedup=row.speedup,
            paper_speedup=row.paper_speedup,
        )
        for row in table1.rows
    ]
    return Figure5Result(bars=bars)


class Figure5Spec(ExperimentSpec):
    """Figure 5 as a registry artifact: purely derived — it contributes no
    work units and folds its bars straight from Table 1's result (the
    dependency resolver schedules ``table1`` first, and nothing is
    computed twice)."""

    name = "figure5"
    title = "Figure 5"
    depends_on = ("table1",)

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return []

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Any:
        raise RuntimeError("figure5 has no work units; it folds from table1")

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Figure5Result:
        return figure5_from_table1(deps["table1"])


register(Figure5Spec())
