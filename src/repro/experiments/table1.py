"""Table 1: lowest common RMSE, profiling cost and speed-up per benchmark.

For every benchmark the paper reports the size of its search space, the
lowest RMSE level reached by both the 35-observation baseline and the
variable-observation approach, the profiling cost (seconds of simulated
compilation + execution) each needed to first reach that level, the
resulting speed-up, and the geometric-mean speed-up across all 11
benchmarks (3.97x in the paper, with a maximum of 26x on gemver and one
regression, adi at 0.29x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.comparison import PlanComparison, assemble_comparison
from ..core.curves import speedup_factor
from ..core.learner import LearningResult
from ..core.plans import standard_plans
from ..measurement.stats import geometric_mean
from ..spapt.suite import get_benchmark
from .config import ExperimentScale
from .registry import (
    ExperimentSpec,
    UnitContext,
    WorkUnit,
    execute_learner_run,
    group_learner_results,
    register,
    slugify,
)
from .reporting import format_scientific, format_table

__all__ = [
    "Table1Row",
    "Table1Result",
    "Table1Spec",
    "table1_from_comparisons",
    "PAPER_TABLE1_SPEEDUPS",
]

BASELINE_PLAN = "all observations"
VARIABLE_PLAN = "variable observations"

#: Speed-ups reported in Table 1 of the paper, for side-by-side reporting.
PAPER_TABLE1_SPEEDUPS: Dict[str, float] = {
    "adi": 0.29,
    "atax": 13.93,
    "bicgkernel": 3.59,
    "correlation": 7.07,
    "dgemv3": 23.52,
    "gemver": 26.00,
    "hessian": 3.69,
    "jacobi": 3.55,
    "lu": 3.62,
    "mm": 1.11,
    "mvt": 1.18,
}


@dataclass(frozen=True)
class Table1Row:
    """One benchmark's row of Table 1.

    ``speedup`` is the paper's single-level metric (cost ratio at the
    lowest common RMSE); ``speedup_factor`` is the multi-level AUC-ratio
    of :func:`repro.core.curves.speedup_factor`, reported alongside it.
    """

    benchmark: str
    search_space_size: float
    paper_search_space_size: float
    lowest_common_rmse: float
    baseline_cost_seconds: float
    our_cost_seconds: float
    speedup: float
    speedup_factor: float
    paper_speedup: float


@dataclass
class Table1Result:
    """All rows plus the geometric-mean speed-up."""

    rows: List[Table1Row]
    comparisons: Dict[str, PlanComparison]

    @property
    def geometric_mean_speedup(self) -> float:
        return geometric_mean([row.speedup for row in self.rows])

    @property
    def paper_geometric_mean_speedup(self) -> float:
        return geometric_mean([row.paper_speedup for row in self.rows])

    @property
    def geometric_mean_speedup_factor(self) -> float:
        return geometric_mean([row.speedup_factor for row in self.rows])

    def to_rows(self) -> List[List[object]]:
        data: List[List[object]] = []
        for row in self.rows:
            data.append(
                [
                    row.benchmark,
                    format_scientific(row.search_space_size),
                    f"{row.lowest_common_rmse:.4g}",
                    f"{row.baseline_cost_seconds:.4g}",
                    f"{row.our_cost_seconds:.4g}",
                    f"{row.speedup:.2f}",
                    f"{row.speedup_factor:.2f}",
                    f"{row.paper_speedup:.2f}",
                ]
            )
        data.append(
            [
                "geometric mean",
                "",
                "",
                "",
                "",
                f"{self.geometric_mean_speedup:.2f}",
                f"{self.geometric_mean_speedup_factor:.2f}",
                f"{self.paper_geometric_mean_speedup:.2f}",
            ]
        )
        return data

    def render(self) -> str:
        return format_table(
            headers=[
                "benchmark",
                "search space",
                "lowest common RMSE",
                "cost of the baseline (s)",
                "cost of our approach (s)",
                "speed-up",
                "speed-up factor",
                "paper speed-up",
            ],
            rows=self.to_rows(),
            title="Table 1: profiling cost to reach the lowest common error",
        )


def table1_from_comparisons(
    names: Sequence[str], comparisons: Dict[str, PlanComparison]
) -> Table1Result:
    """Fold finished per-benchmark plan comparisons
    (:class:`~repro.core.comparison.PlanComparison`) into Table 1 rows."""
    rows: List[Table1Row] = []
    for name in names:
        benchmark = get_benchmark(name)
        comparison = comparisons[name]
        rows.append(
            Table1Row(
                benchmark=name,
                search_space_size=float(benchmark.search_space.size),
                paper_search_space_size=benchmark.paper_search_space_size,
                lowest_common_rmse=comparison.lowest_common_rmse,
                baseline_cost_seconds=comparison.cost_to_reach[BASELINE_PLAN],
                our_cost_seconds=comparison.cost_to_reach[VARIABLE_PLAN],
                speedup=comparison.speedup(BASELINE_PLAN, VARIABLE_PLAN),
                speedup_factor=speedup_factor(
                    comparison.curves[BASELINE_PLAN],
                    comparison.curves[VARIABLE_PLAN],
                ),
                paper_speedup=PAPER_TABLE1_SPEEDUPS.get(name, float("nan")),
            )
        )
    return Table1Result(rows=rows, comparisons=comparisons)


class Table1Spec(ExperimentSpec):
    """Table 1 as registry work units: one learner run per
    (benchmark × sampling plan × repetition) cell, seeded by
    :func:`~repro.core.comparison.run_seeds`.  Every unit rebuilds its
    benchmark, so benchmarks with stateful drift noise start each unit
    with a fresh noise state and the table is the same at any worker
    count, in memory or sharded.  The drift walk is the benchmark's only
    state, so a unit that reuses its repetition's memoized test set and
    the noise state after that set's build runs exactly as one that
    builds the set itself."""

    name = "table1"
    title = "Table 1"

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        plans = standard_plans()
        return [
            WorkUnit(
                artifact=self.name,
                key=(name, slugify(plan.name), f"r{repetition:03d}"),
                params={
                    "benchmark": name,
                    "plan_name": plan.name,
                    "plan_index": plan_index,
                    "repetition": repetition,
                },
            )
            for name in scale.benchmarks
            for repetition in range(scale.repetitions)
            for plan_index, plan in enumerate(plans)
        ]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> LearningResult:
        plan_index = int(unit.params["plan_index"])
        return execute_learner_run(
            benchmark_name=str(unit.params["benchmark"]),
            plan=standard_plans()[plan_index],
            plan_index=plan_index,
            repetition=int(unit.params["repetition"]),
            config=scale.comparison_config(),
            context=context,
        )

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Table1Result:
        plan_names = [plan.name for plan in standard_plans()]
        names = list(scale.benchmarks)
        grouped = group_learner_results(
            payloads, names, plan_names, axis_param="plan_name"
        )
        comparisons = {
            name: assemble_comparison(name, plan_names, grouped[name])
            for name in names
        }
        return table1_from_comparisons(names, comparisons)


register(Table1Spec())
