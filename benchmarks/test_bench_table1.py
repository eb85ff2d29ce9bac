"""Benchmark regenerating Table 1 (lowest common RMSE, cost, speed-up).

Runs the three sampling plans (35 observations, 1 observation, variable) on a
subset of SPAPT benchmarks and prints the Table 1 rows: the lowest error
level every plan reaches, the simulated profiling cost each plan needs to
first reach it, and the speed-up of the paper's variable plan over the
35-observation baseline (paper: geometric mean 3.97x, maximum 26x).
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts

#: Representative subset: one quiet benchmark, one noisy one, the motivation
#: kernel.  ``python -m repro.experiments.run_all --only table1`` renders the
#: full 11-benchmark table (see ``docs/reproduction.md``).
BENCHMARKS = ("mm", "lu", "gemver")


@pytest.mark.benchmark(group="table1")
def test_bench_table1(benchmark, scale_factory):
    scale = scale_factory(BENCHMARKS)
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["table1"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["table1"]
    print()
    print(result.render())
    assert len(result.rows) == len(BENCHMARKS)
    assert result.geometric_mean_speedup > 0
