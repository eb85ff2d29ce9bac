"""Benchmark of the simulated profiling step: cold cost-model evaluations.

Every held-out test configuration and every measured one is priced by
:class:`~repro.machine.MachineCostModel` through a benchmark's three
``TunableProgram`` methods (``true_runtime``, ``noise_sensitivity``,
``compile_time``).  Each round builds all 11 SPAPT benchmarks afresh
(untimed), so their evaluation caches are empty, and then times those
three calls for 300 seeded configurations of each benchmark plus its
default one.  The per-configuration cost is the recorded mean divided by
``extra_info["configurations"]``::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_cost_model.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.spapt.suite import benchmark_names, get_benchmark, load_suite

CONFIGURATIONS_PER_BENCHMARK = 300


@pytest.fixture(scope="module")
def configurations():
    table = {}
    for name in benchmark_names():
        space = get_benchmark(name).search_space
        chosen = space.sample_distinct(
            CONFIGURATIONS_PER_BENCHMARK, np.random.default_rng(2017)
        )
        table[name] = chosen + [space.default_configuration()]
    return table


@pytest.mark.benchmark(group="cost-model")
def test_bench_cold_cost_evaluation(benchmark, configurations):
    holder = {}

    def fresh_suite():
        holder["suite"] = load_suite()
        return (), {}

    def evaluate_all():
        for bench in holder["suite"]:
            for configuration in configurations[bench.name]:
                bench.true_runtime(configuration)
                bench.noise_sensitivity(configuration)
                bench.compile_time(configuration)

    benchmark.pedantic(
        evaluate_all, setup=fresh_suite, rounds=5, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["configurations"] = sum(map(len, configurations.values()))
