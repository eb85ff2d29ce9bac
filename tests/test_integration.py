"""Cross-module integration tests.

These exercise the whole stack — SPAPT kernel -> transformations -> machine
model -> noisy profiler -> dynamic tree -> active learner -> comparison —
and assert the qualitative properties the paper's evaluation rests on.
They are deliberately small (smoke scale) so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.comparison import ComparisonConfig, compare_sampling_plans
from repro.core.evaluation import build_test_set, evaluate_rmse
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import fixed_plan, sequential_plan
from repro.ir.transforms import CacheTile, LoopUnroll, TransformPipeline, UnrollAndJam
from repro.machine.cost_model import MachineCostModel
from repro.measurement.profiler import Profiler
from repro.spapt.suite import get_benchmark

CONFIG = LearnerConfig(
    n_initial=4,
    seed_observations=5,
    n_candidates=20,
    max_training_examples=45,
    reference_size=12,
    evaluation_interval=8,
    tree_particles=12,
)

#: Seeds of the statistical learning-quality claims, fixed before looking
#: at any result: each claim is asserted on its aggregate over all of
#: them, so no single draw of the model's randomness decides it.
QUALITY_SEEDS = (0, 1, 2, 3, 4)


class TestTransformToCostPipeline:
    def test_transformed_ir_and_cost_model_agree_on_structure(self, mm_benchmark):
        """Lowering a configuration through the real IR passes matches the
        closed forms the cost model uses for the same configuration."""
        space = mm_benchmark.search_space
        names = [p.name for p in space.parameters]
        configuration = list(space.default_configuration())
        configuration[names.index("U_k")] = 4
        configuration[names.index("RT_i")] = 2
        configuration[names.index("T_j")] = 64
        lowered = space.to_transform_configuration(configuration)

        pipeline = TransformPipeline(
            [
                CacheTile(("j",), (64,)),
                UnrollAndJam("i", 2),
                LoopUnroll("k", 4),
            ]
        )
        transformed = pipeline(mm_benchmark.kernel)
        from repro.ir.analysis import innermost_bodies

        generated_statements = innermost_bodies(transformed)[0].statements
        model = MachineCostModel(mm_benchmark.kernel)
        # Compile time: 1 s, plus 0.0015 s x (generated statements)^0.8, plus
        # 0.05 s per cache-tiled loop.
        assert model.compile_seconds(lowered) == pytest.approx(
            1.0 + 0.0015 * generated_statements ** 0.8 + 0.05, rel=1e-12
        )

    def test_profiler_cost_reflects_runtime_and_compile_scale(self, mm_benchmark):
        profiler = Profiler(mm_benchmark, rng=np.random.default_rng(0))
        configuration = mm_benchmark.search_space.default_configuration()
        profiler.measure(configuration, repetitions=5)
        expected_runtime = 5 * mm_benchmark.true_runtime(configuration)
        assert profiler.ledger.runtime_seconds == pytest.approx(expected_runtime, rel=0.2)
        assert profiler.ledger.compile_seconds == pytest.approx(
            mm_benchmark.compile_time(configuration)
        )


class TestLearningQuality:
    def test_active_learner_produces_useful_model(self, mm_benchmark):
        """After a short run the model must predict better than a
        global-mean predictor on held-out configurations: over
        :data:`QUALITY_SEEDS`, the mean of final RMSE / σ(test runtimes)
        (σ is the global mean's RMSE) stays below 1."""
        ratios = []
        for seed in QUALITY_SEEDS:
            rng = np.random.default_rng(seed)
            test_set = build_test_set(mm_benchmark, size=60, observations=4, rng=rng)
            learner = ActiveLearner(
                mm_benchmark, plan=sequential_plan(8), config=CONFIG, rng=rng
            )
            result = learner.run(test_set)
            baseline_rmse = float(np.std(test_set.mean_runtimes))
            ratios.append(result.curve.points[-1].rmse / baseline_rmse)
        assert np.mean(ratios) < 1.0, ratios

    def test_variable_plan_costs_less_than_fixed_35(self, mm_benchmark):
        """For the same number of training examples the variable plan must
        charge far less profiling cost than the 35-observation baseline."""
        rng = np.random.default_rng(5)
        test_set = build_test_set(mm_benchmark, size=40, observations=3, rng=rng)
        fixed_result = ActiveLearner(
            mm_benchmark, plan=fixed_plan(35), config=CONFIG, rng=np.random.default_rng(1)
        ).run(test_set)
        variable_result = ActiveLearner(
            mm_benchmark, plan=sequential_plan(35), config=CONFIG, rng=np.random.default_rng(1)
        ).run(test_set)
        assert variable_result.total_cost_seconds < fixed_result.total_cost_seconds
        assert variable_result.total_observations < fixed_result.total_observations

    def test_comparison_speedup_positive_on_quiet_benchmark(self):
        """On a near-noise-free benchmark the variable plan must reach the
        common error level at least as cheaply as the 35-sample baseline:
        the geometric-mean speed-up over :data:`QUALITY_SEEDS` is >= 1."""
        speedups = []
        for seed in QUALITY_SEEDS:
            config = ComparisonConfig(
                learner=CONFIG, repetitions=1, test_size=40, test_observations=3,
                seed=seed,
            )
            comparison = compare_sampling_plans(get_benchmark("lu"), config=config)
            speedups.append(
                comparison.speedup("all observations", "variable observations")
            )
        assert float(np.exp(np.mean(np.log(speedups)))) >= 1.0, speedups

    def test_noisy_benchmark_single_observation_struggles(self):
        """On the noisiest benchmark (correlation), the final error of the
        single-observation plan should not beat the 35-observation baseline
        (Figure 6c's qualitative message)."""
        correlation = get_benchmark("correlation")
        rng = np.random.default_rng(17)
        test_set = build_test_set(correlation, size=50, observations=10, rng=rng)
        config = LearnerConfig(
            n_initial=4,
            seed_observations=10,
            n_candidates=20,
            max_training_examples=50,
            reference_size=12,
            evaluation_interval=10,
            tree_particles=12,
        )
        one = ActiveLearner(
            correlation, plan=fixed_plan(1), config=config, rng=np.random.default_rng(2)
        ).run(test_set)
        many = ActiveLearner(
            correlation, plan=fixed_plan(10), config=config, rng=np.random.default_rng(2)
        ).run(test_set)
        assert many.curve.best_error <= one.curve.best_error * 1.5

    def test_rmse_of_final_model_close_to_truth_on_quiet_benchmark(self):
        mvt = get_benchmark("mvt")
        rng = np.random.default_rng(8)
        test_set = build_test_set(mvt, size=50, observations=3, rng=rng)
        learner = ActiveLearner(mvt, plan=sequential_plan(5), config=CONFIG, rng=rng)
        result = learner.run(test_set)
        spread = float(test_set.mean_runtimes.max() - test_set.mean_runtimes.min())
        assert result.curve.best_error < spread
