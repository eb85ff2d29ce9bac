"""Equivalence tests: flat-array tree kernel vs the per-node reference path.

The vectorized ``predict``/``expected_average_variance`` rewrite is only
safe if it is numerically indistinguishable from the per-node reference
implementation it replaced — the particle moves are *sampled* from scores,
so even tiny drift changes trajectories.  These tests grow real particle
trees on random data and assert (a) routing identity, (b) prediction/ALC
agreement to 1e-10 with the per-node loops of ``tests/oracles``, (c) that
the particle forest's in-place updates keep its caches honest, and (d)
that a seeded ``ActiveLearner`` run produces the same learning curve on the
batched model and on the ``ReferenceDynamicTree`` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.suite import get_benchmark
from tests.oracles.dynamic_tree import (
    FlatTree,
    ReferenceDynamicTree,
    descend,
    expected_average_variance_reference,
    predict_reference,
)


def _grown_model(seed: int, n: int = 150, dims: int = 4, particles: int = 25):
    """A dynamic tree trained on random piecewise data (trees really grow)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, dims))
    y = (
        np.where(X[:, 0] > 0.3, 2.0, -1.0)
        + 0.4 * X[:, 1]
        + rng.normal(0, 0.05, size=n)
    )
    model = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=particles), rng=np.random.default_rng(seed + 1)
    )
    model.fit(X, y)
    assert max(model.leaf_counts()) > 1, "test needs non-trivial trees"
    return model, rng


class TestFlatTreeRouting:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_route_matches_descend(self, seed):
        model, rng = _grown_model(seed)
        X = rng.uniform(-2.5, 2.5, size=(80, 4))
        for root in ReferenceDynamicTree.from_model(model)._particles:
            flat = FlatTree.compile(root)
            leaves = root.leaves()
            leaf_ids = flat.route(X)
            assert leaf_ids.shape == (80,)
            for i in range(X.shape[0]):
                expected = leaves.index(descend(root, X[i]))
                assert leaf_ids[i] == expected

    def test_leaf_ids_are_preorder_stable(self):
        model, _ = _grown_model(5)
        root = ReferenceDynamicTree.from_model(model)._particles[0]
        flat = FlatTree.compile(root)
        # Leaf ids enumerate root.leaves() (left-to-right pre-order) exactly.
        for leaf_id, leaf in enumerate(root.leaves()):
            assert flat.leaf_mean[leaf_id] == leaf.leaf.predictive_mean()
            assert flat.leaf_count[leaf_id] == leaf.leaf.count

    def test_forest_route_matches_per_tree_route(self):
        model, rng = _grown_model(9)
        X = rng.uniform(-2, 2, size=(30, 4))
        particles = ReferenceDynamicTree.from_model(model)._particles
        trees = [FlatTree.compile(root) for root in particles]
        forest = model._ensure_forest()
        forest_ids = forest.route(X)
        assert forest_ids.shape == (len(trees), 30)
        for p, tree in enumerate(trees):
            local = tree.route(X)
            np.testing.assert_array_equal(
                forest_ids[p] - forest.leaf_offsets[p], local
            )

    def test_forest_route_one_matches_per_tree_route_one(self):
        """The one-row-many-trees kernel agrees with per-tree descents."""
        model, rng = _grown_model(13)
        particles = ReferenceDynamicTree.from_model(model)._particles
        trees = [FlatTree.compile(root) for root in particles]
        forest = model._ensure_forest()
        for _ in range(10):
            x = rng.uniform(-2.5, 2.5, size=4)
            global_ids = forest.route_update(x)[0]
            assert global_ids.shape == (len(trees),)
            for p, tree in enumerate(trees):
                assert global_ids[p] - forest.leaf_offsets[p] == tree.route(x[None, :])[0]

    def test_single_leaf_tree(self):
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=3), rng=np.random.default_rng(0)
        )
        model.fit(np.zeros((1, 2)), np.ones(1))
        root = ReferenceDynamicTree.from_model(model)._particles[0]
        flat = FlatTree.compile(root)
        assert flat.n_leaves == 1
        assert np.all(flat.route(np.random.default_rng(1).normal(size=(10, 2))) == 0)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 11, 99])
    def test_predict_matches_reference(self, seed):
        model, rng = _grown_model(seed)
        X = rng.uniform(-2.5, 2.5, size=(60, 4))
        fast = model.predict(X)
        slow = predict_reference(model, X)
        np.testing.assert_allclose(fast.mean, slow.mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fast.variance, slow.variance, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 11, 99])
    def test_alc_matches_reference(self, seed):
        model, rng = _grown_model(seed)
        candidates = rng.uniform(-2, 2, size=(65, 4))
        rows = np.arange(40, 65)
        fast = model.expected_average_variance(candidates, rows)
        slow = expected_average_variance_reference(model, candidates, candidates[rows])
        np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_caches_survive_updates(self):
        """Interleaved predicts and updates: the forest's in-place stay
        writes and grow/prune splices never drift from the reference path."""
        model, rng = _grown_model(21, n=60)
        for step in range(40):
            x = rng.uniform(-2, 2, size=4)
            y = float(np.where(x[0] > 0.3, 2.0, -1.0) + 0.4 * x[1])
            model.update(x, y)
            if step % 5 == 0:
                probe = rng.uniform(-2, 2, size=(12, 4))
                fast = model.predict(probe)
                slow = predict_reference(model, probe)
                np.testing.assert_allclose(fast.mean, slow.mean, atol=1e-10)
                np.testing.assert_allclose(fast.variance, slow.variance, atol=1e-10)


class TestLearnerDeterminism:
    CONFIG = LearnerConfig(
        n_initial=4,
        seed_observations=5,
        n_candidates=15,
        max_training_examples=30,
        reference_size=10,
        evaluation_interval=8,
        tree_particles=8,
    )

    def _curve(self, vectorized: bool):
        benchmark = get_benchmark("mm")
        test_set = build_test_set(
            benchmark, size=30, observations=3, rng=np.random.default_rng(77)
        )

        def factory(rng):
            model_class = DynamicTreeRegressor if vectorized else ReferenceDynamicTree
            return model_class(
                DynamicTreeConfig(n_particles=self.CONFIG.tree_particles),
                rng=rng,
            )

        learner = ActiveLearner(
            benchmark,
            config=self.CONFIG,
            model_factory=factory,
            rng=np.random.default_rng(123),
        )
        result = learner.run(test_set)
        return [
            (p.training_examples, p.cost_seconds, p.rmse) for p in result.curve.points
        ]

    def test_seeded_run_is_reproducible(self):
        assert self._curve(vectorized=True) == self._curve(vectorized=True)

    def test_vectorized_and_reference_runs_agree(self):
        """The whole learning trajectory — selections, costs, RMSE curve —
        is identical whichever kernel serves predict/ALC."""
        assert self._curve(vectorized=True) == self._curve(vectorized=False)
