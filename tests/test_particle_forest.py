"""Tests for the particle forest, the batched model's only posterior state.

Every batched update splices its stay/grow/prune moves and its resample
into one ``(n_particles, capacity)`` array set in place.  These tests pin
that the result is indistinguishable from the per-particle oracle:

* after every update each forest row equals ``FlatTree.compile`` of the
  same particle of a ``ReferenceDynamicTree`` stepped in lockstep
  (structure, leaf slots and cache rows, with global ids localised), and
  ``leaf_of`` lists each oracle leaf's training rows — on discrete and
  continuous features, at 10 and 40 particles, under
  resample-every-update (duplicates spliced), and across a capacity
  doubling;
* predictions and ALC scores are bitwise those of a forest rebuilt from
  its checkpoint snapshot before every query and of the per-particle
  ``ReferenceDynamicTree``;
* ``copy.deepcopy`` and ``fantasy_copy`` clones evolve independently of
  their original in both directions.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.models.flat_tree import ParticleForest
from tests.oracles.dynamic_tree import FlatTree, ReferenceDynamicTree


def _training_data(size, dims=5, seed=0, discrete=False):
    rng = np.random.default_rng(seed)
    if discrete:
        # Few distinct values per feature, like normalised SPAPT parameters:
        # candidate splits see duplicate columns.
        X = rng.integers(0, 4, size=(size, dims)) - 1.5
    else:
        X = rng.uniform(-1.5, 1.5, size=(size, dims))
    y = (
        1.0
        + 0.3 * X[:, 0]
        + np.where(X[:, 1] > 0, 0.5, 0.0)
        + rng.normal(0, 0.05, size)
    )
    return X, y


def _localise(ids, offset):
    return np.where(ids >= 0, ids - offset, -1)


def _assert_matches_compile(model, reference):
    """Every forest row equals a fresh compile of the oracle's particle."""
    forest = model._particle_forest
    assert forest is not None
    capacity = forest.capacity
    leaf_capacity = forest.leaf_capacity
    assert forest.split_dim.shape[0] == model.n_particles
    for p, root in enumerate(reference._particles):
        fresh = FlatTree.compile(root)
        n = fresh.n_nodes
        assert forest.n_nodes[p] == n
        assert np.array_equal(forest.split_dim[p, :n], fresh.split_dim)
        assert np.array_equal(forest.split_value[p, :n], fresh.split_value)
        node_offset = p * capacity
        assert np.array_equal(_localise(forest.left[p, :n], node_offset), fresh.left)
        assert np.array_equal(_localise(forest.right[p, :n], node_offset), fresh.right)
        assert np.array_equal(
            _localise(forest.leaf_slot[p, :n], p * leaf_capacity), fresh.leaf_slot
        )
        assert np.array_equal(forest.data[p, : fresh.n_leaves], fresh.caches.data)
        members = [np.flatnonzero(forest.leaf_of[p, : model._n] == leaf).tolist()
                   for leaf in range(fresh.n_leaves)]
        assert len(members) == fresh.n_leaves
        assert all(a == leaf.indices for a, leaf in zip(members, root.leaves()))


def _rebuild_from_snapshot(model):
    """Drop the forest for its checkpoint snapshot: the next use rebuilds it."""
    model._snapshot = model._particle_forest.preorder()
    model._particle_forest = None


def _assert_same_queries(a, b, probe, reference_rows):
    pa, pb = a.predict(probe), b.predict(probe)
    assert np.array_equal(pa.mean, pb.mean)
    assert np.array_equal(pa.variance, pb.variance)
    assert np.array_equal(
        a.expected_average_variance(probe, reference_rows),
        b.expected_average_variance(probe, reference_rows),
    )


def _model_pair(n_particles=40, seed=3, resample_threshold=0.5):
    """Identically seeded models; the second rebuilds before each query."""
    config = DynamicTreeConfig(
        n_particles=n_particles, resample_threshold=resample_threshold
    )
    live = DynamicTreeRegressor(config, rng=np.random.default_rng(seed))
    rebuilt = DynamicTreeRegressor(config, rng=np.random.default_rng(seed))
    return live, rebuilt


class TestBitIdentity:
    def test_predict_and_alc_bit_identical_across_updates(self):
        X, y = _training_data(240)
        live, rebuilt = _model_pair()
        live.fit(X[:30], y[:30])
        rebuilt.fit(X[:30], y[:30])
        rng = np.random.default_rng(9)
        probe = rng.uniform(-1.5, 1.5, size=(50, X.shape[1]))
        reference_rows = np.arange(30, 50)
        for i in range(30, 240):
            live.update(X[i], float(y[i]))
            rebuilt.update(X[i], float(y[i]))
            _rebuild_from_snapshot(rebuilt)
            _assert_same_queries(live, rebuilt, probe, reference_rows)

    def test_aggressive_resampling_stays_bit_identical(self):
        """A resample-every-update regime gathers duplicate rows, and then
        splices them independently, on every single update."""
        X, y = _training_data(120, seed=5)
        live, rebuilt = _model_pair(resample_threshold=1.0, seed=11)
        live.fit(X[:20], y[:20])
        rebuilt.fit(X[:20], y[:20])
        probe = X[:25]
        for i in range(20, 120):
            live.update(X[i], float(y[i]))
            rebuilt.update(X[i], float(y[i]))
            _rebuild_from_snapshot(rebuilt)
            p_live = live.predict(probe)
            p_rebuilt = rebuilt.predict(probe)
            assert np.array_equal(p_live.mean, p_rebuilt.mean)
            assert np.array_equal(p_live.variance, p_rebuilt.variance)

    def test_trajectories_match_reference_implementation(self):
        """The forest sits under the vectorized kernels, so the whole stack
        must still replay the per-particle reference."""
        X, y = _training_data(90, seed=7)
        config = DynamicTreeConfig(n_particles=12)
        vectorized = DynamicTreeRegressor(config, rng=np.random.default_rng(2))
        reference = ReferenceDynamicTree(
            DynamicTreeConfig(n_particles=12),
            rng=np.random.default_rng(2),
        )
        vectorized.fit(X[:15], y[:15])
        reference.fit(X[:15], y[:15])
        probe = X[:20]
        for i in range(15, 90):
            vectorized.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
        p_vec = vectorized.predict(probe)
        p_ref = reference.predict(probe)
        assert np.array_equal(p_vec.mean, p_ref.mean)
        assert np.array_equal(p_vec.variance, p_ref.variance)


class TestCompileOracle:
    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    @pytest.mark.parametrize("n_particles", [10, 40])
    def test_rows_match_compile_after_every_update(self, discrete, n_particles):
        """Resampling on every update splices rows that started as
        duplicates; every 7th update the queries also match the reference
        path bitwise."""
        X, y = _training_data(160, seed=21, discrete=discrete)
        config = DynamicTreeConfig(n_particles=n_particles, resample_threshold=1.0)
        model = DynamicTreeRegressor(config, rng=np.random.default_rng(4))
        reference = ReferenceDynamicTree(
            DynamicTreeConfig(n_particles=n_particles, resample_threshold=1.0),
            rng=np.random.default_rng(4),
        )
        model.fit(X[:12], y[:12])
        reference.fit(X[:12], y[:12])
        probe = X[:15]
        moved = set()
        for step, i in enumerate(range(12, 160)):
            model.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
            _assert_matches_compile(model, reference)
            moved.update(model._particle_forest.n_nodes.tolist())
            if step % 7 == 0:
                _assert_same_queries(model, reference, probe, np.arange(6))
        assert len(moved) > 3, "trees never grew or pruned"

    def test_capacity_doubling_keeps_rows_exact(self, monkeypatch):
        """A small minimum capacity makes the trees outgrow their rows
        several times; every doubling rebases the global ids."""
        monkeypatch.setattr(ParticleForest, "MIN_CAPACITY", 4)
        X, y = _training_data(150, dims=3, seed=8)
        config = DynamicTreeConfig(n_particles=10, resample_threshold=1.0)
        model = DynamicTreeRegressor(config, rng=np.random.default_rng(5))
        reference = ReferenceDynamicTree(config, rng=np.random.default_rng(5))
        model.fit(X[:2], y[:2])
        reference.fit(X[:2], y[:2])
        model.predict(X[:1])
        capacities = {model._particle_forest.capacity}
        for i in range(2, 150):
            model.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
            capacities.add(model._particle_forest.capacity)
            _assert_matches_compile(model, reference)
        assert len(capacities) >= 3, f"capacity never doubled twice: {capacities}"


class TestCopies:
    @pytest.mark.parametrize("make_copy", ["deepcopy", "fantasy_copy"])
    def test_copies_evolve_independently(self, make_copy):
        X, y = _training_data(140, seed=13)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=20), rng=np.random.default_rng(6)
        )
        model.fit(X[:30], y[:30])
        for i in range(30, 60):
            model.update(X[i], float(y[i]))
        probe, reference_rows = X[:30], np.arange(20, 30)

        def snapshot(m):
            prediction = m.predict(probe)
            return (
                prediction.mean,
                prediction.variance,
                m.expected_average_variance(probe, reference_rows),
            )

        def same(a, b):
            return all(np.array_equal(u, v) for u, v in zip(a, b))

        clone = copy.deepcopy(model) if make_copy == "deepcopy" else model.fantasy_copy()
        # Oracle twins of both sides, stepped in lockstep with them.
        model_twin = ReferenceDynamicTree.from_model(model)
        clone_twin = ReferenceDynamicTree.from_model(clone)
        before = snapshot(model)
        assert same(snapshot(clone), before)
        for i in range(60, 90):
            clone.update(X[i], float(y[i]))
            clone_twin.update(X[i], float(y[i]))
        assert same(snapshot(model), before)
        _assert_matches_compile(clone, clone_twin)

        clone_before = snapshot(clone)
        for i in range(90, 120):
            model.update(X[i], float(y[i]))
            model_twin.update(X[i], float(y[i]))
        assert same(snapshot(clone), clone_before)
        _assert_matches_compile(model, model_twin)
        _assert_matches_compile(clone, clone_twin)


def _forest_arrays(forest):
    return {name: getattr(forest, name).copy() for name in ParticleForest.__slots__}


def _same_arrays(a, b, rows=slice(None)):
    return all(np.array_equal(a[name][rows], b[name][rows]) for name in a)


def _routed_leaf_ids(forest, X):
    """Local leaf id of every row of ``X`` in every particle, by routing."""
    view = forest.view()
    return view.route(X) - view.leaf_offsets[:, None]


def _assert_leaf_of_routes(model):
    forest = model._particle_forest
    X = model._X[: model._n]
    assert np.array_equal(forest.leaf_of[:, : model._n], _routed_leaf_ids(forest, X))


class TestLeafAssignment:
    """``leaf_of`` always equals routing the training rows, and no two
    particles or models share it."""

    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    def test_leaf_of_matches_routing_after_every_update(self, monkeypatch, discrete):
        """Resampling on every update, through node-capacity doublings and
        ``leaf_of`` widenings."""
        monkeypatch.setattr(ParticleForest, "MIN_CAPACITY", 4)
        X, y = _training_data(150, dims=3, seed=17, discrete=discrete)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=16, resample_threshold=1.0),
            rng=np.random.default_rng(3),
        )
        model.fit(X[:3], y[:3])
        capacities = set()
        widths = set()
        for i in range(3, 150):
            model.update(X[i], float(y[i]))
            _assert_leaf_of_routes(model)
            capacities.add(model._particle_forest.capacity)
            widths.add(model._particle_forest.leaf_of.shape[1])
        assert len(capacities) >= 2 and len(widths) >= 2, (capacities, widths)
        assert max(model.leaf_counts()) > 2, "trees never grew"

    def test_resample_duplicates_evolve_independently(self):
        """Rows gathered from one particle are private: a grow on either
        duplicate leaves the other's arrays untouched."""
        X, y = _training_data(60, dims=3, seed=4)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=5), rng=np.random.default_rng(2)
        )
        model.fit(X, y)
        forest = model._particle_forest.copy()
        forest.gather(np.zeros(2, dtype=np.intp))
        train = model._X[: model._n]
        for grown, other in ((0, 1), (1, 0)):
            before = _forest_arrays(forest)
            # Split the row's largest leaf between two of its members'
            # values on feature ``grown``.
            leaf_of = forest.leaf_of[grown, : model._n]
            leaf = int(np.bincount(leaf_of).argmax())
            values = np.unique(train[leaf_of == leaf, grown])
            assert values.size >= 2
            node = int(np.flatnonzero(
                forest.leaf_slot[grown] == grown * forest.leaf_capacity + leaf
            )[0])
            forest.grow(
                np.array([grown]),
                np.array([node]),
                np.array([leaf]),
                np.array([grown]),
                np.array([0.5 * (values[0] + values[1])]),
                np.zeros((1, 2, forest.data.shape[2])),
                train,
            )
            assert _same_arrays(_forest_arrays(forest), before, rows=other)
            assert not _same_arrays(_forest_arrays(forest), before, rows=grown)
            routed = _routed_leaf_ids(forest, train)
            assert np.array_equal(forest.leaf_of[:, : model._n], routed)

    @pytest.mark.parametrize("make_copy", ["deepcopy", "fantasy_copy"])
    def test_copy_arrays_evolve_independently(self, make_copy):
        """Updating a clone leaves the original's arrays — ``leaf_of``
        included — bitwise unchanged, and the other way round."""
        X, y = _training_data(110, seed=9)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=12, resample_threshold=1.0),
            rng=np.random.default_rng(8),
        )
        model.fit(X[:40], y[:40])
        clone = copy.deepcopy(model) if make_copy == "deepcopy" else model.fantasy_copy()
        model_arrays = _forest_arrays(model._particle_forest)
        for i in range(40, 75):
            clone.update(X[i], float(y[i]))
            _assert_leaf_of_routes(clone)
        assert _same_arrays(_forest_arrays(model._particle_forest), model_arrays)
        clone_arrays = _forest_arrays(clone._particle_forest)
        for i in range(75, 110):
            model.update(X[i], float(y[i]))
            _assert_leaf_of_routes(model)
        assert _same_arrays(_forest_arrays(clone._particle_forest), clone_arrays)
