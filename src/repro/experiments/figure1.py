"""Figure 1: error and optimal sample size over the mm unroll plane.

The paper's motivation study fixes every mm parameter except the unroll
factors of the two outer loops, profiles each point of the resulting 30x30
plane 35 times, and shows

* (a) the Mean Absolute Error that a *single* observation would incur
  relative to the 35-observation mean,
* (b) the MAE of a post-hoc "optimal" sampling plan that keeps removing
  observations while the error stays below a threshold (0.1 ms in the
  paper), and
* (c) how many observations that optimal plan keeps at each point.

The take-away is that for most points one observation suffices, but not for
all of them, and the points that need more cannot be known in advance —
hence sequential analysis.  The threshold here is expressed as a fraction of
the benchmark's mean runtime so the figure is scale-free with respect to the
simulated runtimes.
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

__all__ = ["Figure1Cell", "Figure1Result", "Figure1Spec"]

#: The benchmark whose unroll plane the figure sweeps (its two outer loops
#: are unrolled by the ``U_i`` and ``U_j`` parameters).
BENCHMARK = "mm"

#: The optimal plan's MAE threshold as a fraction of the first point's
#: mean runtime.
MAE_THRESHOLD_FRACTION = 0.002


@dataclass(frozen=True)
class Figure1Cell:
    """One point of the unroll-factor plane."""

    unroll_i: int
    unroll_j: int
    mean_runtime: float
    single_sample_mae: float
    optimal_samples: int
    optimal_mae: float


@dataclass
class Figure1Result:
    benchmark: str
    cells: List[Figure1Cell]
    observations_per_point: int
    mae_threshold: float

    @property
    def total_fixed_plan_runs(self) -> int:
        """Executions a fixed plan would need for the whole plane."""
        return len(self.cells) * self.observations_per_point

    @property
    def total_optimal_runs(self) -> int:
        """Executions the post-hoc optimal plan needs (the paper: ~half)."""
        return sum(cell.optimal_samples for cell in self.cells)

    def grid(self, field: str) -> np.ndarray:
        """The requested field as a 2-D grid indexed by (unroll_i, unroll_j)."""
        unroll_i_values = sorted({cell.unroll_i for cell in self.cells})
        unroll_j_values = sorted({cell.unroll_j for cell in self.cells})
        grid = np.zeros((len(unroll_i_values), len(unroll_j_values)))
        for cell in self.cells:
            i = unroll_i_values.index(cell.unroll_i)
            j = unroll_j_values.index(cell.unroll_j)
            grid[i, j] = getattr(cell, field)
        return grid

    def render(self) -> str:
        single = self.grid("single_sample_mae")
        samples = self.grid("optimal_samples")
        rows = [
            ["points in the plane", len(self.cells)],
            ["observations per point (fixed plan)", self.observations_per_point],
            ["total runs, fixed plan", self.total_fixed_plan_runs],
            ["total runs, optimal plan", self.total_optimal_runs],
            ["run reduction", f"{self.total_fixed_plan_runs / max(self.total_optimal_runs, 1):.2f}x"],
            ["single-sample MAE max", f"{single.max():.4g}"],
            ["single-sample MAE mean", f"{single.mean():.4g}"],
            ["points needing only 1 sample", int(np.sum(samples == 1))],
            ["points needing > 5 samples", int(np.sum(samples > 5))],
            ["max samples needed", int(samples.max())],
        ]
        return format_table(
            headers=["quantity", "value"],
            rows=rows,
            title=f"Figure 1 summary ({self.benchmark} unroll plane)",
        )


def _optimal_sample_count(
    observations: np.ndarray, threshold: float, rng: np.random.Generator
) -> Tuple[int, float]:
    """Smallest random subsample whose mean stays within ``threshold`` of the full mean.

    Mirrors the paper's procedure: starting from the full sample, remove
    observations at random while the absolute deviation of the reduced mean
    from the full mean stays below the threshold; report how many samples
    survive.
    """
    full_mean = float(observations.mean())
    order = rng.permutation(observations.size)
    shuffled = observations[order]
    kept = observations.size
    while kept > 1:
        candidate = shuffled[: kept - 1]
        if abs(float(candidate.mean()) - full_mean) > threshold:
            break
        kept -= 1
    return kept, abs(float(shuffled[:kept].mean()) - full_mean)


class Figure1Spec(ExperimentSpec):
    """Figure 1 as a registry artifact.

    The plane sweep threads one RNG through every cell (the profiler and
    the optimal-plan subsampling draw from the same stream in cell order),
    so the computation is inherently sequential and the declared
    decomposition is a single unit — the registry still gives it the
    manifest/result/resume machinery, it just cannot shard internally.
    """

    name = "figure1"
    title = "Figure 1"

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return [WorkUnit(artifact=self.name, key=("plane",))]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Figure1Result:
        benchmark = get_benchmark(BENCHMARK)
        rng = np.random.default_rng(scale.seed + 101)
        profiler = Profiler(benchmark, rng=rng)
        space = benchmark.search_space
        parameter_names = [p.name for p in space.parameters]
        index_i = parameter_names.index("U_i")
        index_j = parameter_names.index("U_j")
        baseline = list(space.default_configuration())

        grid = scale.figure1_grid
        unroll_values = np.unique(
            np.linspace(1, 30, num=min(grid, 30), dtype=int)
        )
        observations_per_point = scale.dataset_observations

        cells: List[Figure1Cell] = []
        threshold = None
        for unroll_i in unroll_values:
            for unroll_j in unroll_values:
                configuration = list(baseline)
                configuration[index_i] = int(unroll_i)
                configuration[index_j] = int(unroll_j)
                observations = profiler.measure(
                    tuple(configuration), repetitions=observations_per_point
                )
                mean = float(observations.mean())
                if threshold is None:
                    threshold = MAE_THRESHOLD_FRACTION * mean
                single_mae = float(np.mean(np.abs(observations - mean)))
                optimal_samples, optimal_mae = _optimal_sample_count(
                    observations, threshold, rng
                )
                cells.append(
                    Figure1Cell(
                        unroll_i=int(unroll_i),
                        unroll_j=int(unroll_j),
                        mean_runtime=mean,
                        single_sample_mae=single_mae,
                        optimal_samples=optimal_samples,
                        optimal_mae=optimal_mae,
                    )
                )
        return Figure1Result(
            benchmark=benchmark.name,
            cells=cells,
            observations_per_point=observations_per_point,
            mae_threshold=float(threshold if threshold is not None else 0.0),
        )

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Figure1Result:
        (_, result), = payloads
        return result


register(Figure1Spec())
