"""Tolerance suite for ``DynamicTreeConfig(float_mode="fast")``.

Fast mode trades the bit-exact float contract (sequential ``cumsum``
reductions, scalar ``math`` transcendental maps) for fused ``np.sum`` /
``einsum`` reductions and numpy's SIMD transcendentals.  The deviation
budget is documented in ``docs/architecture.md`` and pinned here as
:data:`FAST_MODE_RTOL`: across random seeded update sequences, fast-mode
reweight log-weights, predictions and ALC scores must stay within that
relative tolerance of the bit-exact path, and the sampled *decisions*
(grow/prune/stay moves, hence the tree shapes) must not fork at all for
generic data — a fork requires a draw landing within ~1 ulp of a score
boundary, which the property test would surface as a macroscopic
prediction divergence.

The fast ``log``/``log1p`` maps are also pinned against the exact ones
element by element, and ``float_mode`` must survive session pickling,
since checkpointed paper runs resume from pickles.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.models import compiled_kernels as kernels
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.suite import get_benchmark

#: Documented fast-mode deviation budget (see docs/architecture.md,
#: "float_mode"): per-update relative deviation of log-weights, predictions
#: and ALC scores between ``float_mode="fast"`` and the bit-exact path.
#: The raw per-reduction deviation is a few ulps (~1e-15 relative); 1e-9
#: leaves six orders of magnitude of headroom for accumulation over a
#: trajectory while still catching any real algorithmic divergence.
FAST_MODE_RTOL = 1e-9


def _paired_models(seed, particles=12, dims=3):
    """The same seeded model in exact and fast float mode."""
    shared = dict(n_particles=particles, resample_threshold=0.9)
    exact = DynamicTreeRegressor(
        DynamicTreeConfig(float_mode="exact", **shared),
        rng=np.random.default_rng(seed),
    )
    fast = DynamicTreeRegressor(
        DynamicTreeConfig(float_mode="fast", **shared),
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    X = rng.uniform(-2, 2, size=(3 * particles // 2, dims))
    y = (
        np.where(X[:, 0] > 0.3, 2.0, -1.0)
        + 0.4 * X[:, 1]
        + rng.normal(0, 0.3, size=X.shape[0])
    )
    exact.fit(X, y)
    fast.fit(X, y)
    return exact, fast, rng


def _reweight_log_weights(model, x, y):
    """The per-particle reweight log-weights the next update would use."""
    _, log1p_array = kernels.log_maps(model._config.float_mode == "fast")
    forest = model._ensure_forest()
    gids, _, _, _ = kernels.route_update_numpy(
        forest.split_dim,
        forest.split_value,
        forest.left,
        forest.right,
        forest.leaf_slot,
        forest.roots,
        x,
    )
    return kernels.reweight_log_weights(forest.caches.data, gids, y, log1p_array)


class TestFastModeTolerance:
    def test_fast_log_maps_within_tolerance(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.uniform(1e-12, 1e3, 500), rng.uniform(1.0 - 1e-9, 1.0 + 1e-9, 100)]
        )
        log_array, log1p_array = kernels.log_maps(fast=True)
        np.testing.assert_allclose(
            log_array(values), kernels.log_map_exact(values), rtol=1e-14, atol=0.0
        )
        np.testing.assert_allclose(
            log1p_array(values),
            kernels.log1p_map_exact(values),
            rtol=1e-14,
            atol=0.0,
        )

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dims=st.integers(min_value=2, max_value=4),
        n_updates=st.integers(min_value=4, max_value=10),
    )
    def test_fast_trajectory_within_rtol_of_exact(self, seed, dims, n_updates):
        """Random update sequences: decisions identical, floats within budget.

        After every update the two models must have made the same
        grow/prune/stay decisions (identical per-particle leaf counts) and
        agree on reweight log-weights, predictions and ALC scores within
        :data:`FAST_MODE_RTOL`.
        """
        exact, fast, rng = _paired_models(seed, dims=dims)
        probes = rng.uniform(-2, 2, size=(8, dims))
        for step in range(n_updates):
            x = rng.uniform(-2, 2, size=dims)
            y = (
                (2.0 if x[0] > 0.3 else -1.0)
                + 0.4 * x[1]
                + rng.normal(0, 0.3)
            )
            lw_exact = _reweight_log_weights(exact, x, float(y))
            lw_fast = _reweight_log_weights(fast, x, float(y))
            np.testing.assert_allclose(
                lw_fast, lw_exact, rtol=FAST_MODE_RTOL, atol=FAST_MODE_RTOL,
                err_msg=f"log-weights diverged at step {step}",
            )
            exact.update(x, float(y))
            fast.update(x, float(y))
            assert fast.leaf_counts() == exact.leaf_counts(), (
                f"move decisions forked at step {step}"
            )
            pe = exact.predict(probes)
            pf = fast.predict(probes)
            np.testing.assert_allclose(
                pf.mean, pe.mean, rtol=FAST_MODE_RTOL, atol=FAST_MODE_RTOL,
                err_msg=f"means diverged at step {step}",
            )
            np.testing.assert_allclose(
                pf.variance, pe.variance,
                rtol=FAST_MODE_RTOL, atol=FAST_MODE_RTOL,
                err_msg=f"variances diverged at step {step}",
            )
        alc_exact = exact.expected_average_variance(probes[:4], probes[4:])
        alc_fast = fast.expected_average_variance(probes[:4], probes[4:])
        np.testing.assert_allclose(
            alc_fast, alc_exact, rtol=FAST_MODE_RTOL, atol=FAST_MODE_RTOL
        )

    def test_exact_mode_stays_bit_identical(self):
        """The default mode is untouched by the fast-mode plumbing: two
        exact-mode models with the same seed are bit-equal (the full
        bit-identity contract lives in tests/test_batched_update.py)."""
        a, _, rng = _paired_models(101)
        b, _, _ = _paired_models(101)
        probes = rng.uniform(-2, 2, size=(6, 3))
        pa, pb = a.predict(probes), b.predict(probes)
        assert pa.mean.tolist() == pb.mean.tolist()
        assert pa.variance.tolist() == pb.variance.tolist()

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="float_mode"):
            DynamicTreeConfig(float_mode="sloppy")
        with pytest.raises(ValueError, match="tree_float_mode"):
            LearnerConfig(tree_float_mode="sloppy")


class TestFloatModePickling:
    def test_float_mode_round_trips_through_session_pickle(self):
        """A fast-mode session keeps its float mode across pickle/unpickle
        and keeps learning afterwards."""
        mm = get_benchmark("mm")
        config = LearnerConfig(
            n_initial=4,
            seed_observations=6,
            n_candidates=12,
            max_training_examples=20,
            reference_size=8,
            tree_particles=10,
            tree_float_mode="fast",
        )
        learner = ActiveLearner(
            mm,
            plan=sequential_plan(3),
            config=config,
            rng=np.random.default_rng(5),
        )
        test_set = build_test_set(mm, size=10, observations=3,
                                  rng=np.random.default_rng(6))
        session = learner.start_session(test_set)
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        while session.training_examples < config.n_initial + 2:
            session.tell(broker.measure(session.ask()))
        assert session.model is not None
        assert session.model._config.float_mode == "fast"

        revived = pickle.loads(
            pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
        )
        revived.attach_benchmark(mm)
        assert revived._config.tree_float_mode == "fast"
        assert revived.model._config.float_mode == "fast"
        broker2 = ProfilerBroker(Profiler(mm, rng=revived.rng))
        before = revived.training_examples
        revived.tell(broker2.measure(revived.ask()))
        assert revived.training_examples == before + 1
