"""Benchmark regenerating Table 2 (variance and CI/mean spread per benchmark).

Profiles a dataset per benchmark and prints the min/mean/max of the
per-configuration variance and of the 95% CI-to-mean ratio for 35- and
5-observation samples, mirroring Table 2's message: noise differs by orders
of magnitude across benchmarks and across each benchmark's space.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_artifacts

BENCHMARKS = ("mvt", "lu", "mm", "adi", "correlation")


@pytest.mark.benchmark(group="table2")
def test_bench_table2(benchmark, scale_factory):
    scale = scale_factory(BENCHMARKS)
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["table2"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["table2"]
    print()
    print(result.render())
    by_name = {row.benchmark: row for row in result.rows}
    # The Table 2 ordering the paper relies on: correlation is the noisiest,
    # mvt/lu are essentially noise-free.
    assert by_name["correlation"].variance_mean > by_name["mvt"].variance_mean
    assert by_name["correlation"].variance_mean > by_name["lu"].variance_mean
