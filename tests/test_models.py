"""Tests for the surrogate models: dynamic tree, GP, baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.learner import LearnerConfig
from repro.models.base import Prediction, squared_distances
from repro.models.baselines import ConstantMeanModel, KNNRegressor
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.models.gp import GaussianProcessRegressor


def piecewise(X: np.ndarray) -> np.ndarray:
    """A noise-free piecewise-constant-ish target, tree-friendly by design."""
    return np.where(X[:, 0] > 0.0, 2.0 + 0.3 * X[:, 1], -1.0 + 0.1 * X[:, 0])


@pytest.fixture
def training_data(rng):
    X = rng.uniform(-2, 2, size=(120, 2))
    y = piecewise(X) + rng.normal(0, 0.05, size=120)
    return X, y


class TestPrediction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Prediction(mean=np.zeros(3), variance=np.zeros(2))


class TestDynamicTreeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicTreeConfig(n_particles=0)
        with pytest.raises(ValueError):
            DynamicTreeConfig(split_alpha=1.5)
        with pytest.raises(ValueError):
            DynamicTreeConfig(min_leaf=0)
        with pytest.raises(ValueError):
            DynamicTreeConfig(resample_threshold=0.0)

    def test_backend_accepts_only_numpy(self):
        for backend in ("numba", "numba-fast", "cuda"):
            with pytest.raises(ValueError, match="backend"):
                DynamicTreeConfig(backend=backend)
            with pytest.raises(ValueError, match="tree_backend"):
                LearnerConfig(tree_backend=backend)

    def test_float_mode_accepts_only_exact(self):
        DynamicTreeConfig(float_mode="exact")
        LearnerConfig(tree_float_mode="exact")
        for mode in ("fast", "sloppy"):
            with pytest.raises(ValueError, match="float_mode"):
                DynamicTreeConfig(float_mode=mode)
            with pytest.raises(ValueError, match="tree_float_mode"):
                LearnerConfig(tree_float_mode=mode)

    def test_split_probability_decreases_with_depth(self):
        config = DynamicTreeConfig()
        assert config.split_probability(0) > config.split_probability(2) > 0


class TestDynamicTree:
    def make_model(self, particles=20, seed=0):
        return DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=particles),
            rng=np.random.default_rng(seed),
        )

    def test_requires_fit_before_use(self):
        model = self.make_model()
        with pytest.raises(RuntimeError):
            model.update(np.zeros(2), 1.0)
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 2)))

    def test_fit_and_predict_shapes(self, training_data):
        X, y = training_data
        model = self.make_model()
        model.fit(X[:30], y[:30])
        prediction = model.predict(X[30:40])
        assert prediction.mean.shape == (10,)
        assert prediction.variance.shape == (10,)
        assert np.all(prediction.variance > 0)
        assert model.training_size == 30
        assert model.n_particles == 20

    def test_learns_piecewise_structure(self, training_data, rng):
        X, y = training_data
        model = self.make_model(particles=30)
        model.fit(X[:20], y[:20])
        for i in range(20, len(X)):
            model.update(X[i], y[i])
        X_test = rng.uniform(-2, 2, size=(200, 2))
        prediction = model.predict(X_test)
        rmse = float(np.sqrt(np.mean((prediction.mean - piecewise(X_test)) ** 2)))
        # The two levels are ~3 apart; a model that learned nothing scores ~1.5.
        assert rmse < 0.5

    def test_beats_constant_baseline(self, training_data, rng):
        X, y = training_data
        tree = self.make_model(particles=25)
        tree.fit(X, y)
        constant = ConstantMeanModel()
        constant.fit(X, y)
        X_test = rng.uniform(-2, 2, size=(150, 2))
        truth = piecewise(X_test)
        tree_rmse = np.sqrt(np.mean((tree.predict(X_test).mean - truth) ** 2))
        const_rmse = np.sqrt(np.mean((constant.predict(X_test).mean - truth) ** 2))
        assert tree_rmse < const_rmse * 0.6

    def test_trees_actually_grow(self, training_data):
        X, y = training_data
        model = self.make_model()
        model.fit(X, y)
        assert np.mean(model.leaf_counts()) > 1.5

    def test_variance_shrinks_with_repeated_observations(self):
        """Sequential analysis foundation: more samples => tighter prediction."""
        model = self.make_model(particles=20)
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(10, 2))
        y = 1.0 + 0.1 * X[:, 0] + rng.normal(0, 0.2, size=10)
        model.fit(X, y)
        target = np.array([0.5, 0.5])
        before = float(model.predict(target[None, :]).variance[0])
        for _ in range(25):
            model.update(target, 1.05 + rng.normal(0, 0.02))
        after = float(model.predict(target[None, :]).variance[0])
        assert after < before

    def test_feature_dimension_mismatch_rejected(self, training_data):
        X, y = training_data
        model = self.make_model()
        model.fit(X[:10], y[:10])
        with pytest.raises(ValueError):
            model.update(np.zeros(5), 1.0)

    def test_fit_rejects_inconsistent_shapes(self):
        model = self.make_model()
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 2)), np.zeros(0))

    def test_expected_average_variance_shape_and_bounds(self, training_data, rng):
        X, y = training_data
        model = self.make_model()
        model.fit(X, y)
        candidates = rng.uniform(-2, 2, size=(15, 2))
        reference = rng.uniform(-2, 2, size=(25, 2))
        scores = model.expected_average_variance(candidates, reference)
        assert scores.shape == (15,)
        assert np.all(scores >= 0)
        base = float(np.mean(model.predict(reference).variance))
        assert np.all(scores <= base + 1e-9)

    def test_deterministic_given_seed(self, training_data):
        X, y = training_data
        a = self.make_model(seed=7)
        b = self.make_model(seed=7)
        a.fit(X[:50], y[:50])
        b.fit(X[:50], y[:50])
        grid = np.array([[0.0, 0.0], [1.0, -1.0]])
        np.testing.assert_allclose(a.predict(grid).mean, b.predict(grid).mean)


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        X = rng.uniform(-1, 1, size=(30, 2))
        y = np.sin(X[:, 0]) + X[:, 1]
        gp = GaussianProcessRegressor(noise_variance=1e-8)
        gp.fit(X, y)
        prediction = gp.predict(X)
        assert np.allclose(prediction.mean, y, atol=1e-2)

    def test_variance_larger_far_from_data(self, rng):
        X = rng.uniform(-1, 1, size=(30, 2))
        y = X[:, 0]
        gp = GaussianProcessRegressor()
        gp.fit(X, y)
        near = gp.predict(np.array([[0.0, 0.0]])).variance[0]
        far = gp.predict(np.array([[30.0, 30.0]])).variance[0]
        assert far > near

    def test_update_appends_data(self, rng):
        gp = GaussianProcessRegressor()
        gp.update(np.array([0.0, 0.0]), 1.0)
        gp.update(np.array([1.0, 1.0]), 2.0)
        assert gp.training_size == 2
        assert gp.predict(np.array([[0.0, 0.0]])).mean.shape == (1,)

    def test_expected_average_variance_improves_near_candidate(self, rng):
        X = rng.uniform(-1, 1, size=(25, 2))
        y = X[:, 0] + 0.5 * X[:, 1]
        gp = GaussianProcessRegressor()
        gp.fit(X, y)
        reference = np.array([[3.0, 3.0]])
        near_reference = np.array([[3.0, 3.0]])
        far_from_reference = np.array([[0.0, 0.0]])
        scores = gp.expected_average_variance(
            np.vstack([near_reference, far_from_reference]), reference
        )
        # Sampling right at the lonely reference point removes more variance.
        assert scores[0] < scores[1]

    def test_predict_requires_data(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)))

    def test_rank1_update_matches_full_refit(self, rng):
        """The rank-1 Cholesky extension is equivalent to refactoring.

        With the hyper-parameters pinned by overrides, the incremental
        factor and a from-scratch ``cho_factor`` describe the same matrix,
        so predictions and ALC scores must agree to numerical precision
        however the observations arrived.
        """
        X = rng.uniform(-1, 1, size=(40, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(0, 0.05, 40)
        kwargs = dict(lengthscale=0.8, signal_variance=1.2, noise_variance=0.01)
        incremental = GaussianProcessRegressor(refit_interval=1000, **kwargs)
        incremental.fit(X[:20], y[:20])
        incremental.predict(X[:1])  # trigger the initial factorization
        full = GaussianProcessRegressor(refit_interval=1, **kwargs)
        full.fit(X[:20], y[:20])
        for i in range(20, 40):
            incremental.update(X[i], float(y[i]))
            full.update(X[i], float(y[i]))
        grid = rng.uniform(-1, 1, size=(15, 3))
        a = incremental.predict(grid)
        b = full.predict(grid)
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(a.variance, b.variance, rtol=1e-8, atol=1e-10)
        alc_a = incremental.expected_average_variance(grid[:5], grid[5:])
        alc_b = full.expected_average_variance(grid[:5], grid[5:])
        np.testing.assert_allclose(alc_a, alc_b, rtol=1e-8, atol=1e-12)

    def test_rank1_update_with_heuristic_hyperparameters_stays_close(self, rng):
        """Frozen-heuristic incremental updates track the refit model.

        Hyper-parameters drift slightly between refits, so only statistical
        closeness is required — this is the configuration the learner uses.
        """
        X = rng.uniform(-1, 1, size=(50, 2))
        y = X[:, 0] * X[:, 1] + rng.normal(0, 0.05, 50)
        incremental = GaussianProcessRegressor(refit_interval=10)
        incremental.fit(X[:30], y[:30])
        full = GaussianProcessRegressor(refit_interval=1)
        full.fit(X[:30], y[:30])
        for i in range(30, 50):
            incremental.update(X[i], float(y[i]))
            full.update(X[i], float(y[i]))
        grid = rng.uniform(-1, 1, size=(20, 2))
        a = incremental.predict(grid)
        b = full.predict(grid)
        assert incremental.training_size == full.training_size == 50
        np.testing.assert_allclose(a.mean, b.mean, atol=0.1)

    def test_refit_interval_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(refit_interval=0)

    def test_refit_interval_one_never_extends(self, rng, monkeypatch):
        """``refit_interval=1`` restores always-refit behaviour exactly:
        the rank-1 extension path must never run, even with predictions
        interleaved between updates."""
        X = rng.uniform(-1, 1, size=(30, 3))
        y = X[:, 0] + rng.normal(0, 0.01, 30)
        gp = GaussianProcessRegressor(refit_interval=1)
        gp.fit(X[:20], y[:20])
        calls = []
        original = GaussianProcessRegressor._extend_factor
        monkeypatch.setattr(
            GaussianProcessRegressor,
            "_extend_factor",
            lambda self, *args: calls.append(1) or original(self, *args),
        )
        for i in range(20, 30):
            gp.update(X[i], float(y[i]))
            gp.predict(X[:1])
        assert calls == []

    def test_refit_interval_counts_extensions_between_refits(self, rng, monkeypatch):
        """``refit_interval=k`` pays one full refit every k observations."""
        X = rng.uniform(-1, 1, size=(40, 2))
        y = X[:, 1] + rng.normal(0, 0.01, 40)
        gp = GaussianProcessRegressor(refit_interval=5)
        gp.fit(X[:20], y[:20])
        gp.predict(X[:1])
        refits = []
        original = GaussianProcessRegressor._refresh
        def counting(self):
            if self._stale:
                refits.append(self.training_size)
            return original(self)
        monkeypatch.setattr(GaussianProcessRegressor, "_refresh", counting)
        for i in range(20, 40):
            gp.update(X[i], float(y[i]))
            gp.predict(X[:1])
        assert len(refits) == 4  # 20 observations / interval 5

    def test_near_duplicate_update_falls_back_to_refit(self):
        """A nearly-duplicate point keeps the factor positive-definite by
        falling back to a full refit instead of extending."""
        gp = GaussianProcessRegressor(
            lengthscale=1.0, signal_variance=1.0, noise_variance=1e-12, jitter=1e-12,
            refit_interval=1000,
        )
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        gp.fit(X, np.array([1.0, 2.0]))
        gp.predict(X[:1])
        gp.update(np.array([0.0, 1e-9]), 1.0)
        prediction = gp.predict(np.array([[0.0, 0.0]]))
        assert np.isfinite(prediction.mean).all()
        assert np.isfinite(prediction.variance).all()


class TestSlidingWindow:
    """Sliding-window GP: rank-1 downdate vs full refit on the window."""

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(window_size=1)

    def test_fit_trims_to_the_window(self, rng):
        X = rng.uniform(-1, 1, size=(20, 2))
        y = X[:, 0]
        gp = GaussianProcessRegressor(window_size=8)
        gp.fit(X, y)
        assert gp.training_size == 8
        assert gp.window_size == 8

    def test_forget_oldest_requires_data(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(RuntimeError):
            gp.forget_oldest()

    def test_forget_oldest_on_single_point_empties_the_model(self):
        gp = GaussianProcessRegressor()
        gp.update(np.array([0.0, 0.0]), 1.0)
        gp.forget_oldest()
        assert gp.training_size == 0
        with pytest.raises(RuntimeError):
            gp.predict(np.zeros((1, 2)))

    def test_downdate_matches_full_refit_on_the_window(self, rng):
        """Streaming through a window via downdates is the *same model* as
        refitting from scratch on the last ``window_size`` observations.

        Hyper-parameters are pinned by overrides so both sides factor the
        identical matrix; refit_interval is effectively infinite so the
        windowed model exercises only extend + downdate after the seed fit.
        """
        window = 12
        kwargs = dict(lengthscale=0.7, signal_variance=2.0, noise_variance=0.05)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] + rng.normal(0, 0.05, 40)
        windowed = GaussianProcessRegressor(
            window_size=window, refit_interval=10**9, **kwargs
        )
        windowed.fit(X[:window], y[:window])
        windowed.predict(X[:1])  # trigger the initial factorization
        grid = rng.uniform(-1, 1, size=(15, 3))
        for i in range(window, 40):
            windowed.update(X[i], float(y[i]))
            assert windowed.training_size == window
            fresh = GaussianProcessRegressor(**kwargs)
            fresh.fit(X[i - window + 1 : i + 1], y[i - window + 1 : i + 1])
            a = windowed.predict(grid)
            b = fresh.predict(grid)
            np.testing.assert_allclose(a.mean, b.mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(
                a.variance, b.variance, rtol=1e-8, atol=1e-10
            )

    def test_near_singular_window_stays_finite(self, rng):
        """Adversarial case: the window is packed with near-duplicate rows,
        so the factor is nearly singular.  Downdates (or their refit
        fallback) must keep predictions finite and the window pinned."""
        window = 6
        gp = GaussianProcessRegressor(
            window_size=window,
            lengthscale=1.0,
            signal_variance=1.0,
            noise_variance=1e-9,
            jitter=1e-12,
            refit_interval=10**9,
        )
        base = np.array([0.3, -0.2])
        for i in range(window + 20):
            point = base + 1e-10 * rng.normal(size=2)
            gp.update(point, 1.0 + 1e-6 * i)
            prediction = gp.predict(base[None, :])
            assert np.isfinite(prediction.mean).all()
            assert np.isfinite(prediction.variance).all()
            assert gp.training_size <= window

    def test_windowed_model_forgets_stale_regions(self, rng):
        """After the window slides past an old regime, predictions follow
        the recent data rather than averaging both regimes."""
        gp = GaussianProcessRegressor(window_size=10, noise_variance=1e-6)
        for _ in range(10):
            gp.update(rng.uniform(-1, 0, size=2), -5.0)
        for _ in range(10):
            gp.update(rng.uniform(0, 1, size=2), 5.0)
        prediction = gp.predict(np.array([[0.5, 0.5]]))
        assert prediction.mean[0] > 4.0

    def test_gp_window_factory_name(self):
        from repro.models import model_factory

        model = model_factory("gp-window", tree_particles=8)(
            np.random.default_rng(0)
        )
        assert isinstance(model, GaussianProcessRegressor)
        assert model.window_size == 100


class TestBaselines:
    def test_constant_model(self, rng):
        model = ConstantMeanModel()
        model.fit(np.zeros((4, 2)), np.array([1.0, 2.0, 3.0, 4.0]))
        prediction = model.predict(rng.normal(size=(5, 2)))
        assert np.allclose(prediction.mean, 2.5)
        model.update(np.zeros(2), 10.0)
        assert model.training_size == 5

    def test_constant_model_requires_data(self):
        with pytest.raises(RuntimeError):
            ConstantMeanModel().predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            ConstantMeanModel().fit(np.zeros((0, 2)), np.zeros(0))

    def test_knn_predicts_local_mean(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([1.0, 1.2, 9.0, 9.2])
        model = KNNRegressor(k=2)
        model.fit(X, y)
        prediction = model.predict(np.array([[0.05], [5.05]]))
        assert prediction.mean[0] == pytest.approx(1.1)
        assert prediction.mean[1] == pytest.approx(9.1)

    def test_knn_variance_grows_with_distance(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = KNNRegressor(k=2)
        model.fit(X, y)
        near = model.predict(np.array([[0.5]])).variance[0]
        far = model.predict(np.array([[50.0]])).variance[0]
        assert far > near

    def test_knn_validation(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)
        model = KNNRegressor()
        with pytest.raises(RuntimeError):
            model.predict(np.zeros((1, 1)))

    def test_knn_update(self):
        model = KNNRegressor(k=1)
        model.update(np.array([0.0]), 5.0)
        assert model.predict(np.array([[0.0]])).mean[0] == pytest.approx(5.0)


class TestSquaredDistances:
    """The NumPy distances that replaced ``scipy.spatial``'s ``cdist`` in
    the GP kernel and the kNN baseline reproduce it bit for bit, so the
    GP and kNN ablation reports do not move."""

    @pytest.mark.parametrize("dims", list(range(1, 18)))
    def test_equals_cdist_on_random_matrices(self, dims):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(dims)
        A = rng.normal(size=(40, dims)) * rng.choice([1e-3, 1.0, 1e3], size=dims)
        B = rng.uniform(-5, 5, size=(30, dims))
        squared = squared_distances(A, B)
        assert np.array_equal(squared, cdist(A, B, metric="sqeuclidean"))
        assert np.array_equal(np.sqrt(squared), cdist(A, B))
        assert np.array_equal(np.sqrt(squared_distances(A, A)), cdist(A, A))

    @pytest.mark.parametrize("name", ["mm", "adi", "correlation", "lu"])
    def test_equals_cdist_on_spapt_features(self, name):
        from scipy.spatial.distance import cdist

        from repro.spapt.suite import get_benchmark

        benchmark = get_benchmark(name)
        configurations = benchmark.search_space.sample_distinct(
            120, np.random.default_rng(3)
        )
        X = benchmark.features_many(configurations)
        A, B = X[:70], X[70:]
        assert np.array_equal(squared_distances(A, B), cdist(A, B, metric="sqeuclidean"))
        assert np.array_equal(np.sqrt(squared_distances(X, X)), cdist(X, X))
