"""Benchmark regenerating Figure 2 (adi runtime vs unroll factor, one sample).

Sweeps the unroll factor of adi's first loop with one observation per point
and prints the series; the expected shape is a plateau (~2.1s in the paper)
climbing from around a factor of 10 to a higher plateau (~3.1s).
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts


@pytest.mark.benchmark(group="figure2")
def test_bench_figure2(benchmark, scale_factory):
    scale = scale_factory(("adi",))
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["figure2"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["figure2"]
    print()
    print(result.render())
    assert result.high_plateau > result.low_plateau
