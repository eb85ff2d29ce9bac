"""Benchmark regenerating Figure 5 (per-benchmark profiling-cost reduction bars).

Reruns the Table 1 comparison on a subset of benchmarks and prints the
speed-up bars; in the paper the bars range from 0.29x (adi) to 26x (gemver)
with a geometric mean of 3.97x.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts

BENCHMARKS = ("mm", "atax", "gemver")


@pytest.mark.benchmark(group="figure5")
def test_bench_figure5(benchmark, scale_factory):
    scale = scale_factory(BENCHMARKS)
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["figure5"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["figure5"]
    print()
    print(result.render())
    assert len(result.bars) == len(BENCHMARKS)
