"""Tests for the core building blocks: plans, acquisition, candidates, curves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    ALCAcquisition,
    ALMAcquisition,
    RandomAcquisition,
    acquisition_names,
    make_acquisition,
)
from repro.core.candidates import CandidatePool
from repro.core.curves import (
    CurvePoint,
    LearningCurve,
    average_curves,
    lowest_common_error,
    speedup_factor,
    time_to_reach,
)
from repro.core.plans import (
    SamplingPlan,
    fixed_plan,
    make_plan,
    plan_names,
    sequential_plan,
    standard_plans,
)
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.search_space import SearchSpace, TunableParameter


class TestSamplingPlans:
    def test_fixed_plan_names(self):
        assert fixed_plan(35).name == "all observations"
        assert fixed_plan(1).name == "one observation"
        assert fixed_plan(10, name="ten").name == "ten"

    def test_fixed_plan_does_not_revisit(self):
        plan = fixed_plan(35)
        assert not plan.revisit
        assert not plan.is_sequential
        assert plan.observations_per_selection == 35
        assert plan.max_observations_per_example == 35

    def test_sequential_plan_is_sequential(self):
        plan = sequential_plan(35)
        assert plan.revisit
        assert plan.is_sequential
        assert plan.observations_per_selection == 1
        assert not plan.aggregate_mean

    def test_standard_plans_match_paper(self):
        plans = standard_plans()
        assert [p.name for p in plans] == [
            "all observations",
            "one observation",
            "variable observations",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan("bad", 0, 1, False)
        with pytest.raises(ValueError):
            SamplingPlan("bad", 5, 3, False)


class _FakeModel:
    """Deterministic model stub for acquisition tests."""

    def __init__(self, variances):
        self._variances = np.asarray(variances, dtype=float)

    def predict(self, X):
        from repro.models.base import Prediction

        X = np.atleast_2d(X)
        return Prediction(mean=np.zeros(X.shape[0]), variance=self._variances[: X.shape[0]])

    def expected_average_variance(self, candidates, reference_rows):
        # Pretend the candidate with the highest own variance removes the most.
        return 1.0 - self._variances[: np.atleast_2d(candidates).shape[0]] * 0.1


def _tie_broken_pick(acquisition, n, seed):
    """``select_batch(..., 1)`` with a seeded generator, checked against an
    independent tie-banded argmax: the best score, with every score within
    a 1e-12 relative band of it drawn from uniformly."""
    candidates, reference = np.zeros((n, 2)), np.array([0])
    rng = np.random.default_rng(seed)
    picks = acquisition.select_batch(None, candidates, reference, rng, 1)
    oracle = np.random.default_rng(seed)
    scores = np.asarray(acquisition.score(None, candidates, reference, oracle))
    best = float(scores.max())
    ties = np.flatnonzero(scores >= best - 1e-12 * abs(best))
    assert picks == [int(oracle.choice(ties))]
    assert rng.bit_generator.state == oracle.bit_generator.state
    return picks[0]


class TestAcquisition:
    def test_alm_selects_highest_variance(self, rng):
        model = _FakeModel([0.1, 0.9, 0.3])
        picks = ALMAcquisition().select_batch(
            model, np.zeros((3, 2)), np.array([0, 1]), rng, 1
        )
        assert picks == [1]

    def test_alc_selects_lowest_expected_average_variance(self, rng):
        model = _FakeModel([0.1, 0.9, 0.3])
        picks = ALCAcquisition().select_batch(
            model, np.zeros((3, 2)), np.array([0, 1]), rng, 1
        )
        assert picks == [1]  # highest variance -> lowest remaining average variance

    def test_random_is_uniformish(self, rng):
        model = _FakeModel([0.5] * 4)
        picks = {
            RandomAcquisition().select_batch(
                model, np.zeros((4, 2)), np.array([0]), rng, 1
            )[0]
            for _ in range(60)
        }
        assert len(picks) > 1

    def test_make_acquisition(self):
        assert isinstance(make_acquisition("alc"), ALCAcquisition)
        assert isinstance(make_acquisition("ALM"), ALMAcquisition)
        assert isinstance(make_acquisition(" random "), RandomAcquisition)
        with pytest.raises(KeyError):
            make_acquisition("bogus")

    def test_tie_break_large_magnitude_scores(self):
        """Float-noise duplicates of a large-magnitude best score are tied.

        With the old absolute ``best - 1e-15`` band, a 1-ulp difference at
        magnitude 1e6 (~1.2e-10, far above the band) excluded the duplicate
        and the 'random' tie break always returned the rounding-accident
        winner.
        """

        class _Scored(ALMAcquisition):
            def score(self, model, candidates, reference_rows, rng):
                best = -1e6
                return np.array(
                    [best - 2.0, np.nextafter(best, -np.inf), best, best - 1.0]
                )

        picks = {_tie_broken_pick(_Scored(), 4, seed) for seed in range(40)}
        assert picks == {1, 2}

    def test_tie_break_small_magnitude_scores(self):
        """Genuinely different tiny scores are NOT lumped together.

        The old absolute 1e-15 band dwarfed scores of magnitude ~1e-18
        (negated ALC variances near the noise floor), treating candidates
        that differ by three orders of magnitude as ties.
        """

        class _Scored(ALMAcquisition):
            def score(self, model, candidates, reference_rows, rng):
                return np.array([-5e-18, -1e-18, -4e-16, -2e-18])

        picks = {_tie_broken_pick(_Scored(), 4, seed) for seed in range(40)}
        assert picks == {1}

    def test_tie_break_exact_ties_uniform(self):
        """Exact ties (identical-leaf candidates) are drawn from uniformly."""

        class _Scored(ALMAcquisition):
            def score(self, model, candidates, reference_rows, rng):
                return np.array([0.5, 0.7, 0.7, 0.1])

        picks = {_tie_broken_pick(_Scored(), 4, seed) for seed in range(40)}
        assert picks == {1, 2}

    def test_tie_break_zero_best_degrades_to_exact(self):
        class _Scored(ALMAcquisition):
            def score(self, model, candidates, reference_rows, rng):
                return np.array([-1e-300, 0.0, -5e-301])

        picks = {_tie_broken_pick(_Scored(), 3, seed) for seed in range(20)}
        assert picks == {1}

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_tie_pick_is_the_draw_choice_makes(self, size):
        """``_pick_best`` makes ``rng.choice(ties)``'s one draw itself: the
        same picks and the same generator state, for ties of 1 to 5."""
        acquisition = ALMAcquisition()
        for seed in range(30):
            layout = np.random.default_rng(1000 + seed)
            scores = layout.random(9) - 2.0
            tied = np.sort(layout.choice(9, size=size, replace=False))
            scores[tied] = 0.25
            available = np.arange(9)
            new_rng = np.random.default_rng(seed)
            choice_rng = np.random.default_rng(seed)
            for _ in range(4):
                pick = acquisition._pick_best(scores, available, new_rng)
                assert pick == int(choice_rng.choice(tied))
            assert new_rng.bit_generator.state == choice_rng.bit_generator.state

    def test_alc_with_real_dynamic_tree_prefers_sparse_noisy_region(self, rng):
        """A candidate in a barely-sampled region must score at least as well
        (lower expected remaining variance is better) than one in a densely
        sampled, low-noise region."""
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=20), rng=np.random.default_rng(0)
        )
        dense = rng.normal(loc=(-1.0, -1.0), scale=0.05, size=(40, 2))
        sparse = np.array([[1.0, 1.0]])
        X = np.vstack([dense, sparse])
        y = np.concatenate([np.full(40, 1.0) + rng.normal(0, 0.01, 40), [5.0]])
        model.fit(X, y)
        # The references are the sparse candidate and ten dense points.
        candidates = np.vstack([[[-1.0, -1.0], [1.0, 1.0]], dense[:10]])
        scores = ALCAcquisition().score(model, candidates, np.arange(1, 12), rng)
        assert scores[1] >= scores[0]


class TestCandidatePool:
    @pytest.fixture
    def space(self):
        return SearchSpace(
            [
                TunableParameter.unroll("U_i", "i", max_factor=4),
                TunableParameter.unroll("U_j", "j", max_factor=4),
            ]
        )

    def test_draw_excludes_seen(self, space, rng):
        pool = CandidatePool(space, max_observations=3, revisit=False)
        seen = (1, 1)
        pool.record(seen)
        for _ in range(5):
            candidates = pool.draw(5, rng)
            assert seen not in candidates

    def test_revisit_pool_includes_unsaturated_examples(self, space, rng):
        pool = CandidatePool(space, max_observations=3, revisit=True)
        pool.record((1, 1), observations=1)
        pool.record((2, 2), observations=3)
        candidates = pool.draw(0, rng)
        assert (1, 1) in candidates
        assert (2, 2) not in candidates

    def test_non_revisit_pool_never_returns_seen(self, space, rng):
        pool = CandidatePool(space, max_observations=3, revisit=False)
        pool.record((1, 1), observations=1)
        assert pool.revisitable() == []

    def test_counts_accumulate(self, space):
        pool = CandidatePool(space, max_observations=5, revisit=True)
        pool.record((1, 2))
        pool.record((1, 2), observations=2)
        assert pool.count((1, 2)) == 3
        assert pool.count((3, 3)) == 0
        assert pool.observation_counts == {(1, 2): 3}

    def test_exhaustion(self, space, rng):
        pool = CandidatePool(space, max_observations=1, revisit=True)
        for configuration in space.sample_distinct(space.size, rng):
            pool.record(configuration)
        assert pool.exhausted()
        assert pool.draw(10, rng) == []

    def test_validation(self, space):
        with pytest.raises(ValueError):
            CandidatePool(space, max_observations=0, revisit=True)
        pool = CandidatePool(space, max_observations=2, revisit=True)
        with pytest.raises(ValueError):
            pool.record((1, 1), observations=0)
        with pytest.raises(ValueError):
            pool.draw(-1, np.random.default_rng(0))


class TestLearningCurves:
    def make_curve(self, label, pairs):
        return LearningCurve(
            label,
            [
                CurvePoint(cost_seconds=c, rmse=r, training_examples=i, observations=i)
                for i, (c, r) in enumerate(pairs)
            ],
        )

    def test_best_error_and_time_to_error(self):
        curve = self.make_curve("a", [(1, 0.5), (2, 0.3), (3, 0.4), (4, 0.2)])
        assert curve.best_error == 0.2
        assert curve.time_to_error(0.3) == 2
        assert curve.time_to_error(0.1) is None

    def test_error_at_cost_is_running_minimum(self):
        curve = self.make_curve("a", [(1, 0.5), (2, 0.3), (3, 0.4)])
        assert curve.error_at_cost(2.5) == 0.3
        assert curve.error_at_cost(3.5) == 0.3
        assert curve.error_at_cost(0.5) == float("inf")

    def test_points_must_be_cost_ordered(self):
        with pytest.raises(ValueError):
            self.make_curve("a", [(2, 0.5), (1, 0.3)])
        curve = self.make_curve("a", [(1, 0.5)])
        with pytest.raises(ValueError):
            curve.add(CurvePoint(cost_seconds=0.5, rmse=0.1, training_examples=1, observations=1))

    def test_lowest_common_error(self):
        fast = self.make_curve("fast", [(1, 0.5), (2, 0.1)])
        slow = self.make_curve("slow", [(1, 0.6), (5, 0.3)])
        assert lowest_common_error([fast, slow]) == 0.3

    def test_time_to_reach(self):
        fast = self.make_curve("fast", [(1, 0.5), (2, 0.1)])
        assert time_to_reach(fast, 0.3) == 2
        with pytest.raises(ValueError):
            time_to_reach(fast, 0.01)

    def test_average_curves(self):
        a = self.make_curve("plan", [(1, 0.5), (10, 0.3)])
        b = self.make_curve("plan", [(1, 0.7), (10, 0.1)])
        averaged = average_curves([a, b], grid_size=10)
        assert averaged.label == "plan"
        assert len(averaged) > 0
        assert averaged.best_error == pytest.approx(0.2, abs=0.01)

    def test_average_single_curve_passthrough(self):
        a = self.make_curve("plan", [(1, 0.5)])
        assert average_curves([a]) is a

    def test_average_requires_curves(self):
        with pytest.raises(ValueError):
            average_curves([])

    def test_curve_point_validation(self):
        with pytest.raises(ValueError):
            CurvePoint(cost_seconds=-1, rmse=0.1, training_examples=0, observations=0)
        with pytest.raises(ValueError):
            CurvePoint(cost_seconds=1, rmse=-0.1, training_examples=0, observations=0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.floats(min_value=0.001, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_curve_best_error_reachable_property(pairs):
    pairs = sorted(pairs, key=lambda p: p[0])
    curve = LearningCurve(
        "p",
        [
            CurvePoint(cost_seconds=c, rmse=r, training_examples=i, observations=i)
            for i, (c, r) in enumerate(pairs)
        ],
    )
    # The time needed to reach the curve's own best error is always defined
    # and never exceeds the final cost.
    cost = time_to_reach(curve, curve.best_error)
    assert cost <= curve.final_cost + 1e-9


class TestNameBasedFactories:
    """The name-based strategy factories: an experiment axis can be a list
    of plain strings resolved at the core layer."""

    def test_make_plan_resolves_registered_names(self):
        assert make_plan("all-observations").observations_per_selection == 35
        assert make_plan("one-observation").observations_per_selection == 1
        assert make_plan("variable-observations").is_sequential
        assert make_plan("adaptive-ci").ci_threshold is not None

    def test_make_plan_accepts_report_labels(self):
        # The space-separated labels the paper's figures use resolve too.
        assert make_plan("variable observations") == sequential_plan()
        assert make_plan("ALL OBSERVATIONS") == fixed_plan(35)

    def test_make_plan_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown sampling plan"):
            make_plan("bogus")

    def test_plan_names_cover_standard_plans(self):
        resolved = {make_plan(name).name for name in plan_names()}
        assert {plan.name for plan in standard_plans()} <= resolved

    def test_acquisition_names_round_trip(self):
        assert acquisition_names() == [
            "alc",
            "alm",
            "random",
            "greedy-alc-fantasy",
            "diversity-penalty",
        ]
        for name in acquisition_names():
            assert make_acquisition(name).name == name

    def test_make_model_resolves_every_name(self):
        from repro.models import make_model, model_factory, model_names

        rng = np.random.default_rng(0)
        for name in model_names():
            model = make_model(name, rng=rng, tree_particles=4)
            model.fit(np.array([[0.1], [0.9], [0.5]]), np.array([1.0, 2.0, 1.5]))
            prediction = model.predict(np.array([[0.4]]))
            assert prediction.mean.shape == (1,)
            factory = model_factory(name, tree_particles=4)
            assert type(factory(np.random.default_rng(1))) is type(model)

    def test_make_model_rejects_unknown(self):
        from repro.models import make_model

        with pytest.raises(KeyError, match="unknown model"):
            make_model("transformer")

    def test_comparison_resolves_plan_and_acquisition_names(self):
        from repro.core.comparison import resolve_acquisition, resolve_plans

        plans = resolve_plans(["all-observations", sequential_plan()])
        assert plans[0] == fixed_plan(35)
        assert plans[1].is_sequential
        assert resolve_acquisition("alm").name == "alm"
        assert resolve_acquisition(None).name == "alc"


class TestSpeedupFactor:
    @staticmethod
    def _curve(label, points):
        return LearningCurve(
            label,
            [
                CurvePoint(
                    cost_seconds=c, rmse=r, training_examples=i, observations=i
                )
                for i, (c, r) in enumerate(points)
            ],
        )

    def test_uniformly_cheaper_contender_scores_its_cost_ratio(self):
        # The contender reaches every error level at exactly half the cost,
        # so the multi-level factor equals the single-level speed-up.
        baseline = self._curve("base", [(2.0, 1.0), (4.0, 0.5), (8.0, 0.25)])
        contender = self._curve("fast", [(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])
        assert speedup_factor(baseline, contender) == pytest.approx(2.0)

    def test_identical_curves_score_one(self):
        curve = self._curve("a", [(1.0, 1.0), (2.0, 0.4)])
        same = self._curve("b", [(1.0, 1.0), (2.0, 0.4)])
        assert speedup_factor(curve, same) == pytest.approx(1.0)

    def test_crossing_curves_average_across_levels(self):
        # Contender is cheaper at high error, pricier at low error: the
        # geometric mean lands strictly between the two pointwise ratios.
        baseline = self._curve("base", [(2.0, 1.0), (3.0, 0.2)])
        contender = self._curve("cross", [(1.0, 1.0), (6.0, 0.2)])
        factor = speedup_factor(baseline, contender, levels=5)
        assert 0.5 < factor < 2.0

    def test_degenerate_range_falls_back_to_single_level(self):
        # One curve starts below the other's floor: only the common floor
        # is comparable.
        baseline = self._curve("base", [(4.0, 0.5)])
        contender = self._curve("deep", [(2.0, 0.3)])
        assert speedup_factor(baseline, contender) == pytest.approx(2.0)

    def test_rejects_nonpositive_levels(self):
        curve = self._curve("a", [(1.0, 1.0)])
        with pytest.raises(ValueError):
            speedup_factor(curve, curve, levels=0)
