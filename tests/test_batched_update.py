"""Equivalence tests for the batched SMC update kernel.

The batched update path (reweight via cached log-pdf terms, row-gather
systematic resample, phased propagate) must replay the per-particle
reference implementation *bit for bit*: particle moves are sampled from
scores and the resample decision from weights, so a single differing bit
forks every seeded trajectory that follows.  These tests drive long seeded
trajectories through both paths (exercising stay, grow, prune and resample
events) on more than one bit generator, pin the update's fixed draw
layout, check per particle that resample duplicates stay private, pin the
grow proposals that particles sharing a leaf's training rows score once
(heavy duplication, the first update, packed-key word boundaries, the
multi-bucket tables, left-to-right partition sums), pin the sums over
particles behind ``predict`` and the ALC score to the oracle's row order,
pin ALC scores over reference rows of the candidate matrix to the oracle's
scores over the reference matrix, and pin the fixed systematic
resampler's behaviour on adversarial weight vectors.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.models.dynamic_tree import (
    DynamicTreeConfig,
    DynamicTreeRegressor,
    _equal_rows,
    _sum_particles,
)
from repro.models.leaf import LeafCacheArrays, NIGPrior
from tests.oracles.dynamic_tree import (
    ReferenceDynamicTree,
    descend,
    expected_average_variance_reference,
    predict_reference,
)
from tests.oracles.leaf import (
    GaussianLeafModel,
    cache_arrays,
    log_marginal_likelihood_from_stats,
    patch_row,
)


def _piecewise_data(n, dims, seed, noise=0.3):
    """Noisy piecewise targets: trees grow, and the noise forces prunes and
    weight degeneracy (hence resamples)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, dims))
    y = (
        np.where(X[:, 0] > 0.3, 2.0, -1.0)
        + 0.4 * X[:, 1]
        + rng.normal(0, noise, size=n)
    )
    return X, y


def _paired_models(seed, particles=20, resample_threshold=0.9):
    """The same seeded model as the batched tree and the reference oracle."""
    config = DynamicTreeConfig(
        n_particles=particles, resample_threshold=resample_threshold
    )
    batched = DynamicTreeRegressor(config, rng=np.random.default_rng(seed))
    reference = ReferenceDynamicTree(config, rng=np.random.default_rng(seed))
    return batched, reference


class TestTrajectoryBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_update_trajectory_matches_reference_bitwise(self, seed):
        """Seeded fit + update trajectories agree to the last bit.

        Predictions, ALC scores and tree shapes are compared after every
        observation; the workload is chosen so that stay, grow, prune and
        resample events all occur (asserted below — a trajectory that never
        prunes or resamples would not prove much).
        """
        X, y = _piecewise_data(130, 4, seed)
        batched, reference = _paired_models(seed + 1)

        prunes = 0
        original_prune = ReferenceDynamicTree._apply_prune

        def counting_prune(self, *args, **kwargs):
            nonlocal prunes
            prunes += 1
            return original_prune(self, *args, **kwargs)

        resamples = 0
        original_systematic = DynamicTreeRegressor._systematic_indices

        def counting_systematic(self, *args, **kwargs):
            nonlocal resamples
            resamples += 1
            return original_systematic(self, *args, **kwargs)

        ReferenceDynamicTree._apply_prune = counting_prune
        DynamicTreeRegressor._systematic_indices = counting_systematic
        try:
            batched.fit(X[:50], y[:50])
            reference.fit(X[:50], y[:50])
            probes = np.random.default_rng(seed + 2).uniform(-2, 2, size=(9, 4))
            for i in range(50, 130):
                batched.update(X[i], float(y[i]))
                reference.update(X[i], float(y[i]))
                fast = batched.predict(probes)
                slow = reference.predict(probes)
                assert fast.mean.tolist() == slow.mean.tolist(), f"step {i}"
                assert fast.variance.tolist() == slow.variance.tolist(), f"step {i}"
            assert batched.leaf_counts() == reference.leaf_counts()
            alc_fast = batched.expected_average_variance(probes, np.arange(4, 9))
            alc_slow = reference.expected_average_variance(probes, np.arange(4, 9))
            np.testing.assert_allclose(alc_fast, alc_slow, rtol=1e-12)
        finally:
            ReferenceDynamicTree._apply_prune = original_prune
            DynamicTreeRegressor._systematic_indices = original_systematic

        # Move-type coverage: the reference pruned and both paths resampled
        # along the way (grows are implied by leaf counts).
        assert prunes > 0, "trajectory never pruned; weaken the noise seed"
        assert resamples > 0, "trajectory never resampled"
        assert max(batched.leaf_counts()) > 1, "trajectory never grew"

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_any_bit_generator_matches_reference(self, bit_generator):
        """A non-PCG64 bit generator takes the same draw path and still
        matches the reference path bit for bit."""
        X, y = _piecewise_data(70, 3, 11)
        config = DynamicTreeConfig(n_particles=10, resample_threshold=0.9)
        batched = DynamicTreeRegressor(
            config, rng=np.random.Generator(bit_generator(5))
        )
        reference = ReferenceDynamicTree(
            config, rng=np.random.Generator(bit_generator(5))
        )
        batched.fit(X[:30], y[:30])
        reference.fit(X[:30], y[:30])
        probes = X[:6]
        for i in range(30, 70):
            batched.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
            fast = batched.predict(probes)
            slow = reference.predict(probes)
            assert fast.mean.tolist() == slow.mean.tolist(), f"step {i}"
        assert batched.leaf_counts() == reference.leaf_counts()
        assert max(batched.leaf_counts()) > 1, "trajectory never grew"


class TestDrawLayout:
    @pytest.mark.parametrize("dims, seed", [(3, 1), (5, 2)])
    def test_update_consumes_documented_layout(self, dims, seed):
        """One update draws exactly ``random()`` then
        ``random((n_particles, 2K + 1))``, whatever the data: a twin
        generator making those two calls lands on the same state."""
        X, y = _piecewise_data(40, dims, seed)
        config = DynamicTreeConfig(n_particles=12, n_split_candidates=5)
        model = DynamicTreeRegressor(config, rng=np.random.default_rng(0))
        model.fit(X[:39], y[:39])
        twin = copy.deepcopy(model._rng)
        model.update(X[39], float(y[39]))
        twin.random()
        twin.random((12, 2 * 5 + 1))
        assert model._rng.bit_generator.state == twin.bit_generator.state


class TestCopyOnWriteResample:
    """Resample duplicates are private: each particle's leaves stay its own.

    Every particle is compared with the same particle of the reference,
    which copies trees eagerly on resample.
    """

    def test_no_aliased_mutable_leaf_state_after_updates(self):
        """Mutating one particle never changes another's prediction.

        After a resample duplicates particles, each one's leaves must
        behave as private state: absorbing further observations through the
        normal update path must keep every particle's per-node predictions
        identical to an eagerly-deep-copied reference twin.
        """
        X, y = _piecewise_data(120, 3, 21)
        batched, reference = _paired_models(4, particles=16, resample_threshold=1.0)
        batched.fit(X[:50], y[:50])
        reference.fit(X[:50], y[:50])
        probes = X[:8]
        for i in range(50, 120):
            batched.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
        # Per-particle comparison (not just the mixture): particle k of the
        # batched model must equal particle k of the eager-copy model.
        rebuilt = ReferenceDynamicTree.from_model(batched)
        for k in range(batched.n_particles):
            fast_root = rebuilt._particles[k]
            slow_root = reference._particles[k]
            for row in probes:
                fast_leaf = descend(fast_root, row)
                slow_leaf = descend(slow_root, row)
                assert fast_leaf.leaf.predictive_mean() == slow_leaf.leaf.predictive_mean()
                assert fast_leaf.leaf.count == slow_leaf.leaf.count

    def test_shared_flat_compilations_are_copied_before_patch(self):
        """A move on one resample duplicate never leaks into another's
        row: after every update each particle's forest row holds the
        statistics of the reference twin's leaves and ``leaf_of`` lists
        exactly their training rows."""
        X, y = _piecewise_data(100, 3, 8)
        model, reference = _paired_models(2, particles=16, resample_threshold=1.0)
        model.fit(X[:60], y[:60])
        reference.fit(X[:60], y[:60])
        for i in range(60, 100):
            model.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
            forest = model._particle_forest
            for index, root in enumerate(reference._particles):
                leaves = root.leaves()
                fresh = cache_arrays([leaf.leaf for leaf in leaves])
                assert np.array_equal(
                    forest.data[index, : len(leaves)], fresh.data
                ), f"particle {index}: forest row differs from its leaves"
                members = forest.leaf_of[index, : model.training_size]
                assert np.bincount(members).size == len(leaves) and all(
                    np.flatnonzero(members == leaf_id).tolist() == leaf.indices
                    for leaf_id, leaf in enumerate(leaves)
                ), f"particle {index}: leaf_of names foreign leaves"


def _lockstep(model, reference, X, y, start, stop, probes):
    """Update both models on rows ``start..stop``; predictions agree bitwise."""
    for i in range(start, stop):
        model.update(X[i], float(y[i]))
        reference.update(X[i], float(y[i]))
        fast = model.predict(probes)
        slow = reference.predict(probes)
        assert fast.mean.tolist() == slow.mean.tolist(), f"step {i}"
        assert fast.variance.tolist() == slow.variance.tolist(), f"step {i}"
    assert model.leaf_counts() == reference.leaf_counts()


@pytest.fixture
def phase_log(monkeypatch):
    """Per update of the batched model: ``(training size, groups, buckets)``."""
    log = []
    leaf_context = DynamicTreeRegressor._leaf_context
    grow_tables = DynamicTreeRegressor._grow_tables

    def logged_context(self, routing, n):
        context = leaf_context(self, routing, n)
        log.append([n, context.groups.shape[0], None])
        return context

    def logged_tables(self, context, x, y):
        tables = grow_tables(self, context, x, y)
        log[-1][2] = len(tables.buckets)
        return tables

    monkeypatch.setattr(DynamicTreeRegressor, "_leaf_context", logged_context)
    monkeypatch.setattr(DynamicTreeRegressor, "_grow_tables", logged_tables)
    return log


class TestGroupedGrowProposals:
    """Particles whose leaves hold the same training rows share one grow
    table, and candidates that draw the same split share its sums and
    scores; every trajectory still replays the per-particle oracle."""

    def test_duplicated_particles_match_reference(self, phase_log):
        X, y = _piecewise_data(110, 3, 5)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=30), rng=np.random.default_rng(8)
        )
        model.fit(X[:70], y[:70])
        model._forest().gather(np.tile(np.array([0, 1]), 15))
        reference = ReferenceDynamicTree.from_model(model)
        del phase_log[:]
        _lockstep(model, reference, X, y, 70, 110, X[:9])
        groups = [entry[1] for entry in phase_log]
        assert groups[0] <= 2
        assert max(groups) < 30

    def test_first_update_is_one_group(self, phase_log):
        group_of, first = _equal_rows(np.zeros((6, 0), dtype=bool))
        assert group_of.tolist() == [0] * 6 and first.tolist() == [0]
        X, y = _piecewise_data(30, 3, 9)
        model, reference = _paired_models(6, particles=10)
        model.fit(X[:1], y[:1])
        reference.fit(X[:1], y[:1])
        assert phase_log[0][:2] == [0, 1]
        _lockstep(model, reference, X, y, 1, 30, X[:5])

    def test_training_size_crosses_packed_word_boundaries(self, phase_log):
        X, y = _piecewise_data(140, 3, 13)
        model, reference = _paired_models(17, particles=12, resample_threshold=0.9)
        model.fit(X[:40], y[:40])
        reference.fit(X[:40], y[:40])
        _lockstep(model, reference, X, y, 40, 140, X[:7])
        sizes = {entry[0] for entry in phase_log}
        assert {63, 64, 65, 127, 128, 129} <= sizes
        assert any(groups < 12 for _, groups, _ in phase_log[40:])

    def test_many_distinct_leaves_use_several_buckets(self, phase_log):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(70, 6))
        y = np.sin(2 * X[:, 0]) + X[:, 1] + rng.normal(0, 0.3, 70)
        config = DynamicTreeConfig(
            n_particles=600, n_split_candidates=3, resample_threshold=0.01
        )
        model = DynamicTreeRegressor(config, rng=np.random.default_rng(1))
        model.fit(X[:60], y[:60])
        reference = ReferenceDynamicTree.from_model(model)
        del phase_log[:]
        _lockstep(model, reference, X, y, 60, 70, X[:5])
        assert max(groups for _, groups, _ in phase_log) >= 256
        assert max(buckets for _, _, buckets in phase_log) > 1

    @pytest.mark.parametrize("seed", [0, 2])
    def test_single_candidate_matches_reference(self, seed):
        """``n_split_candidates=1`` still sums in row order: the packed
        rows keep a slot axis at least two wide."""
        X, y = _piecewise_data(150, 3, seed)
        config = DynamicTreeConfig(
            n_particles=10, n_split_candidates=1, resample_threshold=0.9
        )
        model = DynamicTreeRegressor(config, rng=np.random.default_rng(seed))
        reference = ReferenceDynamicTree(config, rng=np.random.default_rng(seed))
        model.fit(X[:20], y[:20])
        reference.fit(X[:20], y[:20])
        _lockstep(model, reference, X, y, 20, 150, X[:9])

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])
    def test_equal_rows_groups_identical_rows(self, width):
        rng = np.random.default_rng(width)
        base = rng.random((5, width)) < 0.5
        # Three rows share their first 64-bit word and differ after it.
        base[1:3, :64] = base[0, :64]
        rows = base[rng.integers(0, 5, size=40)]
        # Rows that differ from another in the last column only.
        rows[::7, -1] = ~rows[::7, -1]
        pair = np.zeros((2, width), dtype=bool)
        pair[1, -1] = True
        assert _equal_rows(pair)[0].tolist() == [0, 1]
        group_of, first = _equal_rows(rows)
        keys = [row.tobytes() for row in rows]
        assert len(first) == len(set(keys))
        for i, key in enumerate(keys):
            assert keys[first[group_of[i]]] == key
            assert first[group_of[i]] == keys.index(key)

    def test_partition_sums_add_left_to_right(self):
        """On targets of adversarial magnitudes every split's sums equal a
        Python left-to-right sum over the leaf's rows (training order, the
        new point last), which pairwise summation would not give."""
        rng = np.random.default_rng(4)
        X = rng.integers(0, 6, size=(80, 3)) / 5.0
        y = rng.choice([1e16, -1e16, 1.0, -1.0, 0.5, 3.0], size=80)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=8), rng=np.random.default_rng(2)
        )
        model.fit(X[:40], y[:40])
        checked = reordered = 0
        for i in range(40, 80):
            x, target = X[i], float(y[i])
            probe = copy.deepcopy(model)
            draws_rng = probe._rng
            uniform = draws_rng.random()
            draws = draws_rng.random((8, 2 * 12 + 1))
            routing = probe._resample(x, target, uniform)
            index = probe._append_observation(x, target)
            context = probe._leaf_context(routing, index)
            tables = probe._grow_tables(context, x, target)
            candidates = probe._candidates(
                draws, tables, context.leaf[:, LeafCacheArrays.COUNT].astype(np.intp) + 1
            )
            splits = probe._grow_splits(tables, candidates)
            leaf_of = probe._particle_forest.leaf_of
            for p, s in zip(candidates[0], splits.of_candidate):
                rows = np.flatnonzero(leaf_of[p, :index] == routing.local_ids[p])
                features = probe._X[np.append(rows, index)]
                targets = probe._y[np.append(rows, index)]
                left = features[:, splits.dims[s]] <= splits.thresholds[s]
                expected = []
                for side in (left, ~left):
                    total = total_sq = 0.0
                    for value in targets[side].tolist():
                        total += value
                        total_sq += value * value
                    expected.append([total, total_sq])
                    reordered += total != math.fsum(targets[side].tolist())
                assert splits.sums[s].tolist() == expected
                assert splits.n_left[s] == int(left.sum())
                checked += 1
            model.update(x, target)
        assert checked > 100
        assert reordered > 0, "no split where the summation order matters"


def _row_loop_sum(values):
    """Column sums of a 2-D array by a Python loop over its rows."""
    total = values[0].tolist()
    for row in values[1:].tolist():
        total = [a + b for a, b in zip(total, row)]
    return total


class TestParticleSums:
    """Sums over particles add in row order, as the per-particle oracle
    does: predictions and ALC scores equal it bit for bit, not just to a
    relative tolerance a pairwise sum would also meet."""

    @pytest.mark.parametrize(
        "shape, order",
        [((40, 1), "C"), ((40, 2), "C"), ((40, 2), "F"), ((300, 7), "F"), ((5000, 500), "C")],
        ids=["40x1", "40x2", "40x2-fortran", "300x7-fortran", "5000x500"],
    )
    def test_sum_particles_matches_row_loop(self, shape, order):
        rng = np.random.default_rng(shape[0] + shape[1])
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        values = np.asarray(values, order=order)
        expected = _row_loop_sum(values)
        assert _sum_particles(values).tolist() == expected
        if shape[1] == 1 or order == "F":
            # A pairwise sum rounds these inputs differently, so the pin
            # can tell the two apart.
            assert np.add.reduce(values, axis=0).tolist() != expected

    @staticmethod
    def _fitted(seed):
        X, y = _piecewise_data(60, 3, seed, noise=0.6)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=48), rng=np.random.default_rng(seed)
        )
        model.fit(X, y)
        probes = np.random.default_rng(seed + 1).uniform(-2, 2, size=(24, 3))
        return model, probes

    @pytest.mark.parametrize("n_rows", [1, 9])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_predict_matches_reference_bitwise(self, n_rows, seed):
        model, probes = self._fitted(seed)
        batched = model.predict(probes[:n_rows])
        oracle = predict_reference(model, probes[:n_rows])
        assert batched.mean.tolist() == oracle.mean.tolist()
        assert batched.variance.tolist() == oracle.variance.tolist()

    @pytest.mark.parametrize("n_candidates", [1, 7])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_alc_matches_reference_bitwise(self, n_candidates, seed):
        model, probes = self._fitted(seed)
        candidates = np.vstack([probes[:n_candidates], probes[12:]])
        rows = np.arange(n_candidates, len(candidates))
        batched = model.expected_average_variance(candidates, rows)
        oracle = expected_average_variance_reference(model, candidates, candidates[rows])
        assert batched.tolist() == oracle.tolist()


class TestReferenceRows:
    """The ALC references are rows of the candidate matrix: the tree reads
    their leaf ids off the candidates' route, and the scores equal the
    per-particle oracle's on the reference *matrix* ``C[rows]`` bit for
    bit."""

    @staticmethod
    def _fitted(seed, n_particles=32):
        X, y = _piecewise_data(70, 3, seed, noise=0.5)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=n_particles), rng=np.random.default_rng(seed)
        )
        model.fit(X[:40], y[:40])
        for i in range(40, 70):
            model.update(X[i], float(y[i]))
        probes = np.random.default_rng(seed + 1).uniform(-2, 2, size=(30, 3))
        return model, probes

    @staticmethod
    def _assert_matches_oracle(model, candidates, rows):
        scores = model.expected_average_variance(candidates, rows)
        oracle = expected_average_variance_reference(model, candidates, candidates[rows])
        assert scores.tolist() == oracle.tolist()
        return scores

    @pytest.mark.parametrize("seed", [4, 9])
    def test_one_candidate_is_its_own_reference(self, seed):
        model, probes = self._fitted(seed)
        self._assert_matches_oracle(model, probes[:1], np.array([0]))

    @pytest.mark.parametrize("n_particles", [16, 48])
    @pytest.mark.parametrize("seed", [4, 9])
    def test_many_candidates_drawn_references(self, seed, n_particles):
        model, probes = self._fitted(seed, n_particles)
        rows = np.random.default_rng(seed).choice(len(probes), size=12, replace=False)
        self._assert_matches_oracle(model, probes, rows)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_reference_set_holds_the_chosen_row(self, seed):
        model, probes = self._fitted(seed)
        rows = np.arange(0, len(probes), 3)
        scores = self._assert_matches_oracle(model, probes, rows)
        chosen = int(np.argmin(scores))
        with_chosen = np.append(rows[rows != chosen], chosen)
        self._assert_matches_oracle(model, probes, with_chosen)
        # A repeated row counts twice, as a repeated reference point would.
        self._assert_matches_oracle(model, probes, np.append(with_chosen, chosen))


class TestSystematicResampler:
    """Regression tests for the fixed systematic resampling loop."""

    def _indices(self, weights, uniform, particles=None):
        model = DynamicTreeRegressor(DynamicTreeConfig(n_particles=2))
        return model._systematic_indices(np.asarray(weights, dtype=float), uniform)

    def test_drifted_cumsum_keeps_last_stratum_unbiased(self):
        """A cumulative sum that drifts below 1.0 must still map the last
        stratum into the final particle's true interval — not fall off the
        end of the array."""
        weights = np.full(10, 0.1)
        cumulative = np.cumsum(weights)
        assert cumulative[-1] != 1.0  # the adversarial premise: drift exists
        chosen = self._indices(weights, 0.999999999)
        assert len(chosen) == 10
        assert all(0 <= j <= 9 for j in chosen)
        # Equal weights + systematic positions => exactly one pick per stratum.
        assert chosen == list(range(10))

    def test_position_beyond_drifted_mass_selects_last_particle(self):
        """Positions between the drifted total and 1.0 belong to the last
        particle (its stratum is (cum[-2], 1] once the total is pinned)."""
        weights = np.array([0.3, 0.3, 0.4]) * (1.0 - 5e-16)
        weights /= weights.sum()
        chosen = self._indices(weights, 1.0 - 1e-12)
        assert chosen[-1] == 2

    def test_adversarial_tiny_tail_weights(self):
        """A tail of zero-mass particles never steals the last stratum."""
        weights = np.array([0.5, 0.5 - 6e-17, 2e-17, 2e-17, 2e-17])
        weights = weights / weights.sum()
        chosen = self._indices(weights, 0.99)
        # The last position (0.99 + 4)/5 = 0.998 lies inside particle 1's
        # stratum (~[0.5, 1.0)); the near-zero tail particles must not win
        # it by virtue of being stored last.
        assert chosen[-1] == 1

    def test_degenerate_single_heavy_weight(self):
        weights = np.zeros(8)
        weights[3] = 1.0
        chosen = self._indices(weights, 0.5)
        assert chosen == [3] * 8

    def test_counts_proportional_to_weights(self):
        # Four strata over [0, 1): positions 0.0025/0.2525/0.5025/0.7525
        # against cumulative [0.5, 0.75, 0.875, 1.0].
        weights = np.array([0.5, 0.25, 0.125, 0.125])
        chosen = self._indices(np.asarray(weights), 0.01)
        assert chosen == [0, 0, 1, 2]
        # Systematic sampling guarantee: a particle with weight w gets
        # floor(n*w) to ceil(n*w) copies.
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 20))
            w = rng.dirichlet(np.ones(n))
            counts = np.bincount(self._indices(w, rng.random()), minlength=n)
            for k in range(n):
                assert math.floor(n * w[k]) <= counts[k] <= math.ceil(n * w[k]) + 1

    def test_indices_are_sorted_and_in_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            weights = rng.dirichlet(np.full(n, 0.05))
            chosen = self._indices(weights, rng.random())
            assert chosen == sorted(chosen)
            assert 0 <= min(chosen) and max(chosen) < n


def _term_table_rows(prior, counts, totals, total_sqs):
    """Leaf-cache rows the model's way: term-table gathers and the exact
    ``log`` map, for leaves holding ``(count, sum, sum_sq)``."""
    model = DynamicTreeRegressor(DynamicTreeConfig())
    model._prior = prior
    counts = np.asarray(counts, dtype=np.intp)
    model._leaf_term_tables().ensure(int(counts.max()))
    return model._cache_rows(
        counts, np.asarray(totals, dtype=float), np.asarray(total_sqs, dtype=float)
    )


class TestLeafCacheEquivalence:
    def test_lml_cache_matches_from_stats_bitwise(self):
        """The cache rows' LML column equals the oracle's one-expression
        scalar evaluation to the last bit."""
        prior = NIGPrior(mean=0.7, kappa=0.1, alpha=3.0, beta=0.4)
        rng = np.random.default_rng(0)
        counts, totals, total_sqs = [], [], []
        for _ in range(500):
            n = int(rng.integers(1, 60))
            total = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
            counts.append(n)
            totals.append(total)
            total_sqs.append(abs(total) * float(rng.uniform(0.5, 4.0)) + n * 0.1)
        rows = _term_table_rows(prior, counts, totals, total_sqs)
        for row, n, total, total_sq in zip(rows, counts, totals, total_sqs):
            assert row[LeafCacheArrays.LML] == (
                log_marginal_likelihood_from_stats(prior, n, total, total_sq)
            )

    def test_lml_cache_matches_leaf_objects(self):
        """Whole term-table rows equal the oracle leaves' scalar rows, and
        their LML the oracle's ``log_marginal_likelihood_from_stats``."""
        prior = NIGPrior(mean=-0.2, kappa=0.1, alpha=3.0, beta=0.9)
        rng = np.random.default_rng(1)
        leaves = [
            GaussianLeafModel.from_values(
                prior, [float(v) for v in rng.normal(1.5, 0.8, int(rng.integers(1, 25)))]
            )
            for _ in range(100)
        ]
        stats = [leaf.sufficient_stats() for leaf in leaves]
        rows = _term_table_rows(prior, *zip(*stats))
        assert rows.tolist() == cache_arrays(leaves).data.tolist()
        for row, (n, total, total_sq) in zip(rows, stats):
            assert row[LeafCacheArrays.LML] == (
                log_marginal_likelihood_from_stats(prior, n, total, total_sq)
            )

    def test_logpdf_terms_decomposition_matches_direct_formula(self):
        """``const - coef*log1p(z)`` equals the original one-expression
        Student-t log-pdf bit for bit."""
        prior = NIGPrior(mean=0.3, kappa=0.1, alpha=3.0, beta=0.6)
        rng = np.random.default_rng(2)
        for _ in range(200):
            leaf = GaussianLeafModel.from_values(
                prior, [float(v) for v in rng.normal(2.0, 1.0, int(rng.integers(1, 20)))]
            )
            value = float(rng.normal(2.0, 3.0))
            mean_n, kappa_n, alpha_n, beta_n = leaf.posterior()
            dof = 2.0 * alpha_n
            scale_sq = beta_n * (kappa_n + 1.0) / (alpha_n * kappa_n)
            z_sq = (value - mean_n) ** 2 / (dof * scale_sq)
            direct = (
                math.lgamma((dof + 1.0) / 2.0)
                - math.lgamma(dof / 2.0)
                - 0.5 * math.log(dof * math.pi * scale_sq)
                - (dof + 1.0) / 2.0 * math.log1p(z_sq)
            )
            assert leaf.predictive_logpdf(value) == direct

    def test_cache_arrays_roundtrip(self):
        prior = NIGPrior(mean=0.0, kappa=0.1, alpha=3.0, beta=0.5)
        rng = np.random.default_rng(3)
        leaves = [
            GaussianLeafModel.from_values(
                prior, [float(v) for v in rng.normal(size=int(rng.integers(1, 10)))]
            )
            for _ in range(7)
        ]
        arrays = cache_arrays(leaves)
        columns = [
            LeafCacheArrays.MEAN,
            LeafCacheArrays.LOGPDF_SCALE,
            LeafCacheArrays.LOGPDF_COEF,
            LeafCacheArrays.LOGPDF_CONST,
        ]
        for slot, leaf in enumerate(leaves):
            assert arrays.mean[slot] == leaf.predictive_mean()
            assert arrays.variance[slot] == leaf.predictive_variance()
            assert arrays.count[slot] == leaf.count
            mean, scale, coef, const = arrays.data[slot, columns].tolist()
            want = leaf.predictive_logpdf_terms()
            assert (mean, scale, coef, const) == want
        # Copies are independent: patching one never leaks into the other.
        clone = LeafCacheArrays(arrays.data.copy())
        leaves[0].add(10.0)
        patch_row(clone, 0, leaves[0])
        assert clone.mean[0] != arrays.mean[0]
        assert arrays.mean[1] == clone.mean[1]
