"""Reproduce the paper's motivation study (Figures 1 and 2, Table 2 flavour).

Three short studies that together motivate sequential analysis:

1. **How noisy are measurements?**  Profile a handful of configurations of a
   quiet benchmark (mvt) and a noisy one (correlation) 35 times each and
   report the CI/mean validation the paper describes in Section 4.3.
2. **Figure 1** — over the mm unroll plane, how much error would a single
   observation incur, and how many observations does a post-hoc optimal
   plan actually need per point?
3. **Figure 2** — the adi runtime vs unroll-factor sweep with one sample per
   point, whose structure is visible despite the noise.

Run with::

    python examples/motivation_noise_study.py
"""

from __future__ import annotations

import numpy as np

from repro.experiments import ExperimentScale, run_artifacts
from repro.measurement import Profiler, summarize
from repro.spapt import get_benchmark


def ci_validation_study() -> None:
    print("=== CI/mean validation (Section 4.3) ===")
    for name in ("mvt", "correlation"):
        benchmark = get_benchmark(name)
        rng = np.random.default_rng(11)
        profiler = Profiler(benchmark, rng=rng)
        failures_1pct = 0
        failures_5pct = 0
        trials = 25
        for _ in range(trials):
            configuration = benchmark.search_space.random_configuration(rng)
            observations = profiler.measure(configuration, repetitions=35)
            summary = summarize(observations)
            if not summary.passes_ci_validation(0.01):
                failures_1pct += 1
            if not summary.passes_ci_validation(0.05):
                failures_5pct += 1
        print(
            f"  {name:<12} {failures_1pct}/{trials} configurations break the 1% CI/mean "
            f"threshold with 35 observations ({failures_5pct} break the 5% threshold)"
        )
    print()


def main() -> None:
    ci_validation_study()

    scale = ExperimentScale.laptop(benchmarks=("mm", "adi"))
    results = run_artifacts(scale, ["figure1", "figure2"])
    print("=== Figure 1: error and optimal sample size over the mm unroll plane ===")
    print(results["figure1"].render())
    print()

    print("=== Figure 2: adi runtime vs unroll factor, one observation per point ===")
    print(results["figure2"].render())


if __name__ == "__main__":
    main()
