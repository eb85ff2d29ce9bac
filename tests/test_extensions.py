"""Tests for the extensions beyond the paper's three evaluated plans.

Covers the raced-profiles-style adaptive-CI sampling plan (related work,
Leather et al.) and the noise-injection robustness study the paper leaves as
future work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import SamplingPlan, adaptive_ci_plan
from repro.experiments.config import ExperimentScale
from repro.experiments.noise_robustness import (
    DEFAULT_NOISE_MULTIPLIERS,
    scaled_benchmark,
)
from repro.experiments.registry import run_artifacts
from repro.spapt.suite import get_benchmark

SMALL = LearnerConfig(
    n_initial=4,
    seed_observations=4,
    n_candidates=12,
    max_training_examples=20,
    reference_size=8,
    evaluation_interval=8,
    tree_particles=8,
)


class TestAdaptiveCIPlan:
    def test_construction(self):
        plan = adaptive_ci_plan(ci_threshold=0.02, max_observations=10)
        assert plan.ci_threshold == 0.02
        assert plan.max_observations_per_example == 10
        assert not plan.revisit
        assert plan.aggregate_mean

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan("bad", 1, 5, False, ci_threshold=0.0)

    def test_quiet_benchmark_stops_early(self):
        """On a near-noise-free benchmark the CI rule should stop well below
        the observation cap for most selections."""
        benchmark = get_benchmark("lu")
        rng = np.random.default_rng(0)
        test_set = build_test_set(benchmark, size=25, observations=2, rng=rng)
        plan = adaptive_ci_plan(ci_threshold=0.05, max_observations=20)
        learner = ActiveLearner(benchmark, plan=plan, config=SMALL, rng=rng)
        result = learner.run(test_set)
        selections = result.training_examples - SMALL.n_initial
        taken = result.total_observations - SMALL.n_initial * SMALL.seed_observations
        average_per_selection = taken / selections
        assert average_per_selection < 20
        assert average_per_selection >= 2  # the plan always takes at least two

    def test_noisy_benchmark_takes_more_observations(self):
        quiet = get_benchmark("lu")
        noisy = get_benchmark("correlation")
        counts = {}
        for name, benchmark in (("quiet", quiet), ("noisy", noisy)):
            rng = np.random.default_rng(1)
            test_set = build_test_set(benchmark, size=20, observations=2, rng=rng)
            plan = adaptive_ci_plan(ci_threshold=0.01, max_observations=12)
            learner = ActiveLearner(benchmark, plan=plan, config=SMALL, rng=rng)
            result = learner.run(test_set)
            selections = result.training_examples - SMALL.n_initial
            taken = result.total_observations - SMALL.n_initial * SMALL.seed_observations
            counts[name] = taken / selections
        assert counts["noisy"] > counts["quiet"]

    def test_observation_cap_respected(self):
        benchmark = get_benchmark("correlation")
        rng = np.random.default_rng(2)
        test_set = build_test_set(benchmark, size=20, observations=2, rng=rng)
        cap = 6
        plan = adaptive_ci_plan(ci_threshold=0.001, max_observations=cap)
        learner = ActiveLearner(benchmark, plan=plan, config=SMALL, rng=rng)
        result = learner.run(test_set)
        for configuration, count in result.observation_counts.items():
            assert count <= max(cap, SMALL.seed_observations)


class TestNoiseRobustness:
    def test_scaled_benchmark_is_noisier(self):
        base = scaled_benchmark("mm", 1.0)
        loud = scaled_benchmark("mm", 6.0)
        configuration = base.search_space.default_configuration()
        base_obs = base.noise_model.observe_many(
            base.true_runtime(configuration), 300, np.random.default_rng(3)
        )
        loud_obs = loud.noise_model.observe_many(
            loud.true_runtime(configuration), 300, np.random.default_rng(3)
        )
        assert np.var(loud_obs) > np.var(base_obs) * 4

    def test_scaling_preserves_true_runtime(self):
        base = scaled_benchmark("mm", 1.0)
        loud = scaled_benchmark("mm", 4.0)
        configuration = base.search_space.default_configuration()
        assert base.true_runtime(configuration) == pytest.approx(
            loud.true_runtime(configuration)
        )

    def test_invalid_inputs(self):
        with pytest.raises(KeyError):
            scaled_benchmark("nope", 1.0)
        with pytest.raises(ValueError):
            scaled_benchmark("mm", 0.0)

    def test_run_noise_robustness_smoke(self):
        scale = ExperimentScale.smoke(benchmarks=("mm",))
        result = run_artifacts(scale, ["noise_robustness"])["noise_robustness"]
        assert result.benchmark == "mm"
        assert [level.noise_multiplier for level in result.levels] == list(
            DEFAULT_NOISE_MULTIPLIERS
        )
        for level in result.levels:
            assert level.speedup > 0
            assert level.baseline_cost_seconds > 0
        assert "Noise-injection robustness" in result.render()
