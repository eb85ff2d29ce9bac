"""Benchmark regenerating Figure 1 (mm unroll plane: error vs sample size).

Profiles the mm unroll-factor plane and prints the Figure 1 summary: the MAE
a single observation would incur, how many observations a post-hoc optimal
plan keeps per point, and the total-run reduction (paper: 31,500 runs for
the fixed plan vs 15,131 with perfect knowledge, roughly half).
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts


@pytest.mark.benchmark(group="figure1")
def test_bench_figure1(benchmark, scale_factory):
    scale = scale_factory(("mm",))
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["figure1"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["figure1"]
    print()
    print(result.render())
    assert result.total_optimal_runs < result.total_fixed_plan_runs
