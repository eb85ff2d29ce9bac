"""Benchmark for the noise-injection robustness study (paper's future work).

Scales the calibrated noise of one benchmark and reruns the sampling-plan
comparison at each level, printing how the variable plan's advantage evolves
as the simulated machine becomes more heavily loaded.
"""

from __future__ import annotations

import pytest

from repro.experiments.noise_robustness import DEFAULT_NOISE_MULTIPLIERS
from repro.experiments.registry import run_artifacts


@pytest.mark.benchmark(group="noise-robustness")
def test_bench_noise_robustness(benchmark, scale_factory):
    scale = scale_factory(("mm",))
    result = benchmark.pedantic(
        run_artifacts, args=(scale, ["noise_robustness"]), rounds=1, iterations=1,
        warmup_rounds=0,
    )["noise_robustness"]
    print()
    print(result.render())
    assert result.benchmark == "mm"
    assert len(result.levels) == len(DEFAULT_NOISE_MULTIPLIERS)
