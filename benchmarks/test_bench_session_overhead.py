"""Benchmark pinning the ask/tell session dispatch overhead.

The PR that inverted the learning loop (``TuningSession`` + measurement
brokers) promised the indirection is free: ``ActiveLearner.run`` is a thin
ask/measure/tell driver producing a bit-identical trajectory.  This file
keeps that promise honest two ways:

* the ``session-overhead`` group records the absolute wall time of the
  session-driven run and of a frozen copy of the pre-refactor inline loop
  (the same numeric work on the same RNG stream), tracked in
  ``BENCH_model.json`` and gated by ``check_regression.py``;
* ``test_dispatch_overhead_under_five_percent`` asserts the session driver
  costs less than 5% over the inline loop at bench scale, comparing
  back-to-back pairs so machine noise cancels instead of accumulating.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.candidates import CandidatePool
from repro.core.curves import CurvePoint, LearningCurve
from repro.core.evaluation import build_test_set, evaluate_rmse
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.measurement.profiler import Profiler
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.suite import get_benchmark

CONFIG = LearnerConfig(
    n_initial=5,
    seed_observations=10,
    n_candidates=30,
    max_training_examples=40,
    reference_size=20,
    evaluation_interval=10,
    tree_particles=15,
)


@pytest.fixture(scope="module")
def mm():
    return get_benchmark("mm")


@pytest.fixture(scope="module")
def test_set(mm):
    return build_test_set(mm, size=60, observations=4, rng=np.random.default_rng(7))


def _session_run(mm, test_set):
    learner = ActiveLearner(
        mm,
        plan=sequential_plan(5),
        config=CONFIG,
        rng=np.random.default_rng(2017),
    )
    return learner.run(test_set)


def _inline_run(mm, test_set):
    """Frozen pre-refactor inline loop: identical numeric work and RNG
    stream as the session driver, no request/result dispatch."""
    config = CONFIG
    plan = sequential_plan(5)
    rng = np.random.default_rng(2017)
    space = mm.search_space
    profiler = Profiler(mm, rng=rng)
    pool = CandidatePool(
        space,
        max_observations=plan.max_observations_per_example,
        revisit=plan.revisit,
    )
    model = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=config.tree_particles),
        rng=np.random.default_rng(rng.integers(2 ** 63)),
    )
    curve = LearningCurve(plan.name)

    def record_point(training_examples):
        curve.add(
            CurvePoint(
                cost_seconds=profiler.ledger.total_seconds,
                rmse=evaluate_rmse(model, test_set),
                training_examples=training_examples,
                observations=profiler.ledger.executions,
            )
        )

    n_seed = min(config.n_initial, space.size)
    seed_configurations = space.sample_distinct(n_seed, rng)
    seed_features = mm.features_many(seed_configurations)
    seed_targets = []
    for configuration in seed_configurations:
        profiler.measure(configuration, repetitions=config.seed_observations)
        pool.record(configuration, config.seed_observations)
        seed_targets.append(profiler.mean_runtime(configuration))
    model.fit(seed_features, np.asarray(seed_targets))
    record_point(n_seed)
    training_examples = n_seed

    for iteration in range(n_seed, config.max_training_examples):
        if pool.exhausted():
            break
        candidates = pool.draw_featurized(config.n_candidates, rng)[0]
        if not candidates:
            break
        candidate_features = mm.features_many(candidates)
        size = min(config.reference_size, candidate_features.shape[0])
        indices = rng.choice(candidate_features.shape[0], size=size, replace=False)
        # ALC with a 1e-12 relative tie band, ties drawn uniformly.
        scores = -np.asarray(
            model.expected_average_variance(candidate_features, indices)
        )
        best = float(scores.max())
        ties = np.flatnonzero(scores >= best - 1e-12 * abs(best))
        chosen = candidates[int(rng.choice(ties))]
        observations = np.asarray(
            profiler.measure(chosen, repetitions=plan.observations_per_selection)
        )
        pool.record(chosen, len(observations))
        model.update(mm.features(chosen), float(np.mean(observations)))
        training_examples = iteration + 1
        if (
            (training_examples - n_seed) % config.evaluation_interval == 0
            or training_examples == config.max_training_examples
        ):
            record_point(training_examples)

    if not curve.points or curve.points[-1].training_examples != training_examples:
        record_point(training_examples)
    return curve


@pytest.mark.benchmark(group="session-overhead")
def test_bench_session_driver(benchmark, mm, test_set):
    result = benchmark.pedantic(
        _session_run, args=(mm, test_set), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.training_examples == CONFIG.max_training_examples


@pytest.mark.benchmark(group="session-overhead")
def test_bench_inline_loop(benchmark, mm, test_set):
    curve = benchmark.pedantic(
        _inline_run, args=(mm, test_set), rounds=3, iterations=1, warmup_rounds=1
    )
    assert curve.points[-1].training_examples == CONFIG.max_training_examples


def test_dispatch_overhead_under_five_percent(mm, test_set):
    """Ask/tell + broker dispatch costs < 5% over the inline loop.

    Both callables do the same numeric work on the same RNG stream, so the
    best-of-N difference isolates the dispatch layer.  Minima (not means)
    make the comparison robust to background interference: a loaded
    machine can only slow a run down, never speed it up.
    """
    # The two trajectories must actually agree, or the timing comparison
    # is meaningless.
    session_result = _session_run(mm, test_set)
    inline_curve = _inline_run(mm, test_set)
    assert [
        (p.cost_seconds, p.rmse, p.training_examples) for p in session_result.curve.points
    ] == [(p.cost_seconds, p.rmse, p.training_examples) for p in inline_curve.points]

    # Timer jitter on a shared box dwarfs the dispatch layer (individual
    # runs vary by tens of percent), so compare back-to-back *pairs*: each
    # pair shares whatever load the machine is under at that instant, and
    # the best pair isolates the dispatch cost.  A genuine regression
    # inflates every pair; noise cannot deflate all of them.
    pair_ratios = []
    for _ in range(4):
        for _ in range(5):
            start = time.perf_counter()
            _inline_run(mm, test_set)
            inline_seconds = time.perf_counter() - start
            start = time.perf_counter()
            _session_run(mm, test_set)
            session_seconds = time.perf_counter() - start
            pair_ratios.append(session_seconds / inline_seconds)
        if min(pair_ratios) <= 1.05:
            break
    best = min(pair_ratios)
    assert best <= 1.05, (
        f"session driver is {best - 1:+.1%} over the inline loop in its best "
        f"back-to-back pair (ratios: {', '.join(f'{r:.2f}' for r in pair_ratios)})"
    )
