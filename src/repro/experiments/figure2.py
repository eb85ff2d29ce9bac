"""Figure 2: adi runtime versus unroll factor with a single sample per point.

The figure demonstrates that even single-sample measurements reveal the
structure of the space to a human eye: adi's runtime sits on a plateau for
small unroll factors of loop ``i1``, climbs from around a factor of 10, and
levels off at a higher plateau for large factors — despite the noise.  The
active learner exploits exactly this: points that fit the local pattern are
probably fine with one sample; points that stick out deserve more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from ..measurement.profiler import Profiler
from ..spapt.suite import get_benchmark
from .config import ExperimentScale
from .registry import ExperimentSpec, UnitContext, WorkUnit, register
from .reporting import format_table

__all__ = ["Figure2Point", "Figure2Result", "Figure2Spec"]

#: The swept benchmark, its swept unroll parameter and the largest unroll
#: factor shown.
BENCHMARK = "adi"
LOOP_PARAMETER = "U_i1"
MAX_UNROLL = 30


@dataclass(frozen=True)
class Figure2Point:
    unroll_factor: int
    observed_runtime: float
    true_runtime: float


@dataclass
class Figure2Result:
    benchmark: str
    loop_parameter: str
    points: List[Figure2Point]

    @property
    def low_plateau(self) -> float:
        """Mean observed runtime over the smallest quarter of unroll factors."""
        ordered = sorted(self.points, key=lambda p: p.unroll_factor)
        quarter = max(len(ordered) // 4, 1)
        return float(np.mean([p.observed_runtime for p in ordered[:quarter]]))

    @property
    def high_plateau(self) -> float:
        """Mean observed runtime over the largest quarter of unroll factors."""
        ordered = sorted(self.points, key=lambda p: p.unroll_factor)
        quarter = max(len(ordered) // 4, 1)
        return float(np.mean([p.observed_runtime for p in ordered[-quarter:]]))

    def render(self) -> str:
        rows = [
            [p.unroll_factor, f"{p.observed_runtime:.4g}", f"{p.true_runtime:.4g}"]
            for p in sorted(self.points, key=lambda p: p.unroll_factor)
        ]
        table = format_table(
            headers=["unroll factor", "observed runtime (s)", "true mean runtime (s)"],
            rows=rows,
            title=f"Figure 2: runtime vs {self.loop_parameter} unroll factor ({self.benchmark})",
        )
        summary = (
            f"\nlow plateau ~{self.low_plateau:.3g}s, "
            f"high plateau ~{self.high_plateau:.3g}s "
            f"(ratio {self.high_plateau / self.low_plateau:.2f}x)"
        )
        return table + summary


class Figure2Spec(ExperimentSpec):
    """Figure 2 as a registry artifact: a single unit, because the sweep
    takes one observation per point from one sequential RNG stream."""

    name = "figure2"
    title = "Figure 2"

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return [WorkUnit(artifact=self.name, key=("sweep",))]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Figure2Result:
        benchmark = get_benchmark(BENCHMARK)
        profiler = Profiler(benchmark, rng=np.random.default_rng(scale.seed + 202))
        space = benchmark.search_space
        index = [p.name for p in space.parameters].index(LOOP_PARAMETER)
        baseline = list(space.default_configuration())
        points: List[Figure2Point] = []
        for value in space.parameters[index].values:
            if value > MAX_UNROLL:
                break
            configuration = list(baseline)
            configuration[index] = int(value)
            observed = float(profiler.measure(tuple(configuration), repetitions=1)[0])
            points.append(
                Figure2Point(
                    unroll_factor=int(value),
                    observed_runtime=observed,
                    true_runtime=benchmark.true_runtime(tuple(configuration)),
                )
            )
        return Figure2Result(
            benchmark=benchmark.name, loop_parameter=LOOP_PARAMETER, points=points
        )

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Figure2Result:
        (_, result), = payloads
        return result


register(Figure2Spec())
