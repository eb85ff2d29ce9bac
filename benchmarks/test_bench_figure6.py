"""Benchmark regenerating Figure 6 (RMSE vs evaluation time, three plans).

Produces the learning curves for two of the paper's six Figure 6 panels: a
noisy benchmark (adi) where the single-observation plan should lag, and a
quiet one (atax) where a single observation is enough and the 35-sample
baseline wastes time.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts

PANELS = ("adi", "atax")


@pytest.mark.benchmark(group="figure6")
def test_bench_figure6(benchmark, scale_factory):
    scale = scale_factory(PANELS)
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["figure6"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["figure6"]
    print()
    print(result.render())
    assert set(result.panels) == set(PANELS)
    for panel in result.panels.values():
        for plan in ("all observations", "one observation", "variable observations"):
            assert len(panel.series(plan)) >= 2
