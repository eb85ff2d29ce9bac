"""Table 2: spread of measurement variance and CI/mean across benchmarks.

The paper characterises how noisy each benchmark's measurements are by
profiling its dataset (10 000 configurations x 35 observations) and
reporting, per benchmark, the min/mean/max of

* the per-configuration runtime variance,
* the 95% confidence-interval-to-mean ratio computed from 35 observations,
* the same ratio computed from only 5 observations.

The point of the table is that noise varies by orders of magnitude both
across benchmarks (``mvt`` is essentially deterministic, ``correlation`` is
extremely noisy) and across the space of a single benchmark — exactly the
situation an adaptive sampling plan exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..measurement.stats import confidence_interval_halfwidth, ci_to_mean_ratio
from ..spapt.dataset import Dataset, generate_dataset
from ..spapt.suite import get_benchmark
from .config import ExperimentScale
from .registry import ExperimentSpec, UnitContext, WorkUnit, register
from .reporting import format_scientific, format_table

__all__ = ["Table2Row", "Table2Result", "Table2Spec"]


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's noise-characterisation row."""

    benchmark: str
    variance_min: float
    variance_mean: float
    variance_max: float
    ci35_min: float
    ci35_mean: float
    ci35_max: float
    ci5_min: float
    ci5_mean: float
    ci5_max: float


@dataclass
class Table2Result:
    rows: List[Table2Row]
    datasets: Dict[str, Dataset]

    def to_rows(self) -> List[List[object]]:
        return [
            [
                row.benchmark,
                format_scientific(row.variance_min),
                format_scientific(row.variance_mean),
                format_scientific(row.variance_max),
                format_scientific(row.ci35_min),
                format_scientific(row.ci35_mean),
                format_scientific(row.ci35_max),
                format_scientific(row.ci5_min),
                format_scientific(row.ci5_mean),
                format_scientific(row.ci5_max),
            ]
            for row in self.rows
        ]

    def render(self) -> str:
        return format_table(
            headers=[
                "benchmark",
                "var min",
                "var mean",
                "var max",
                "35-sample CI/mean min",
                "mean",
                "max",
                "5-sample CI/mean min",
                "mean",
                "max",
            ],
            rows=self.to_rows(),
            title="Table 2: spread of variance and 95% CI relative to the mean",
        )


def _ci_ratio_for_subsample(
    observations: Sequence[float], sample_size: int, rng: np.random.Generator
) -> float:
    """CI/mean ratio of a random subsample of the stored observations."""
    values = np.asarray(observations, dtype=float)
    if sample_size >= values.size:
        sample = values
    else:
        sample = rng.choice(values, size=sample_size, replace=False)
    half = confidence_interval_halfwidth(sample)
    return ci_to_mean_ratio(float(sample.mean()), half)


def benchmark_noise_row(
    name: str, index: int, scale: ExperimentScale, small_sample: int = 5
) -> Tuple[Table2Row, Dataset]:
    """One benchmark's Table 2 row (and its profiled dataset).

    This is the Table 2 work-unit body: the RNG is seeded from the
    benchmark's *position* in the suite (``scale.seed + 31 * index``), so
    the rows are independent of execution order.
    """
    benchmark = get_benchmark(name)
    rng = np.random.default_rng(scale.seed + 31 * index)
    dataset = generate_dataset(
        benchmark,
        configurations=scale.dataset_configurations,
        observations_per_configuration=scale.dataset_observations,
        rng=rng,
    )
    variances = dataset.variances()
    ci_full = []
    ci_small = []
    for entry in dataset.entries:
        observations = np.asarray(entry.observations)
        half = confidence_interval_halfwidth(observations)
        ci_full.append(ci_to_mean_ratio(float(observations.mean()), half))
        ci_small.append(_ci_ratio_for_subsample(observations, small_sample, rng))
    row = Table2Row(
        benchmark=name,
        variance_min=float(variances.min()),
        variance_mean=float(variances.mean()),
        variance_max=float(variances.max()),
        ci35_min=float(np.min(ci_full)),
        ci35_mean=float(np.mean(ci_full)),
        ci35_max=float(np.max(ci_full)),
        ci5_min=float(np.min(ci_small)),
        ci5_mean=float(np.mean(ci_small)),
        ci5_max=float(np.max(ci_small)),
    )
    return row, dataset


class Table2Spec(ExperimentSpec):
    """Table 2 as registry work units: one per benchmark (its RNG depends
    only on the benchmark's suite position, so units shard freely)."""

    name = "table2"
    title = "Table 2"

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return [
            WorkUnit(
                artifact=self.name,
                key=(name,),
                params={"benchmark": name, "index": index},
            )
            for index, name in enumerate(scale.benchmarks)
        ]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Tuple[Table2Row, Tuple]:
        row, dataset = benchmark_noise_row(
            str(unit.params["benchmark"]), int(unit.params["index"]), scale
        )
        # Payloads must pickle: ship the entries, not the Dataset, whose
        # benchmark reference carries unpicklable memoisation caches.
        return row, dataset.entries

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Table2Result:
        indexed = sorted(payloads, key=lambda pair: int(pair[0].params["index"]))
        rows = [row for _, (row, _) in indexed]
        datasets = {
            str(unit.params["benchmark"]): Dataset(
                get_benchmark(str(unit.params["benchmark"])), entries
            )
            for unit, (_, entries) in indexed
        }
        return Table2Result(rows=rows, datasets=datasets)


register(Table2Spec())
