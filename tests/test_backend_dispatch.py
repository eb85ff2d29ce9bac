"""Backend dispatch for the compiled SMC update kernels.

The ``DynamicTreeConfig(backend=...)`` knob selects the kernel set the
batched update runs on: ``"numpy"`` (the default, bit-exact), ``"numba"``
(njit kernels when the optional extra is installed, the *same bit-exact*
NumPy kernels otherwise) and ``"numba-fast"`` (tolerance-tested vectorized
transcendentals).  These tests pin the contract around that knob:

* configuration plumbing — validation, the model factories, and the
  learner config's ``tree_backend``;
* the automatic fallback when numba is absent (a blocked-import reload,
  so the test is meaningful even on environments where numba *is*
  installed);
* checkpoint round-trips: the backend choice is part of the pickled model
  configuration and survives kill → ``--resume``;
* the zero-compile invariant: the particle forest is compiled exactly
  once per particle for the lifetime of a model — updates splice it in
  place and never call :meth:`FlatTree.compile` again;
* the ``numba-fast`` deviation budget, at the kernel level and end to end.

Trajectory bit-identity of ``backend="numba"`` against the
``vectorized=False`` oracle is covered by ``tests/test_batched_update.py``.
"""

from __future__ import annotations

import builtins
import importlib.util
import pickle

import numpy as np
import pytest

import repro.models.compiled_kernels as compiled_kernels
from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.models import make_model, model_factory
from repro.models.compiled_kernels import (
    BACKENDS,
    get_kernels,
    log1p_map_exact,
    log_map_exact,
)
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.models.flat_tree import FlatTree
from repro.spapt.suite import get_benchmark


def _piecewise_data(n, dims, seed, noise=0.3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, dims))
    y = (
        np.where(X[:, 0] > 0.3, 2.0, -1.0)
        + 0.4 * X[:, 1]
        + rng.normal(0, noise, size=n)
    )
    return X, y


class TestBackendConfig:
    def test_dynamic_tree_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            DynamicTreeConfig(backend="cuda")

    def test_learner_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="tree_backend"):
            LearnerConfig(tree_backend="cuda")

    def test_get_kernels_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            get_kernels("cuda")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_make_model_threads_backend(self, backend):
        model = make_model("dynamic-tree", tree_backend=backend)
        assert model.config.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_model_factory_threads_backend(self, backend):
        factory = model_factory("dynamic-tree", tree_particles=7, tree_backend=backend)
        model = factory(np.random.default_rng(0))
        assert model.config.backend == backend
        assert model.config.n_particles == 7

    def test_learner_default_factory_uses_tree_backend(self):
        benchmark = get_benchmark("mm")
        learner = ActiveLearner(
            benchmark,
            config=LearnerConfig(tree_backend="numba", tree_particles=3),
            rng=np.random.default_rng(0),
        )
        model = learner._default_model_factory(np.random.default_rng(1))
        assert model.config.backend == "numba"


class TestNumbaAbsentFallback:
    """``backend="numba"`` must degrade to the bit-exact NumPy kernels."""

    @pytest.fixture()
    def kernels_without_numba(self, monkeypatch):
        """A fresh compiled_kernels module loaded with numba unimportable."""
        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba blocked for fallback test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        spec = importlib.util.spec_from_file_location(
            "repro_compiled_kernels_nonumba", compiled_kernels.__file__
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_import_survives_and_reports_unavailable(self, kernels_without_numba):
        assert kernels_without_numba.NUMBA_AVAILABLE is False

    def test_numba_backend_resolves_to_exact_numpy_kernels(
        self, kernels_without_numba
    ):
        kernels = kernels_without_numba.get_kernels("numba")
        assert kernels.jitted is False
        assert kernels.exact is True
        assert kernels.route_all is kernels_without_numba.route_all_numpy
        assert kernels.log_array is kernels_without_numba.log_map_exact
        assert kernels.log1p_array is kernels_without_numba.log1p_map_exact

    def test_numba_fast_fallback_is_fast_flavour(self, kernels_without_numba):
        kernels = kernels_without_numba.get_kernels("numba-fast")
        assert kernels.jitted is False
        assert kernels.exact is False

    def test_fallback_reweight_matches_numpy_backend_bitwise(
        self, kernels_without_numba
    ):
        rng = np.random.default_rng(3)
        cache = rng.normal(size=(40, 6))
        cache[:, 3] = np.abs(cache[:, 3]) + 0.5  # dof * scale > 0
        cache[:, 4] = np.abs(cache[:, 4])
        leaf_ids = rng.integers(0, 40, size=25)
        via_numba = kernels_without_numba.get_kernels("numba").reweight_log_weights(
            cache, leaf_ids, 0.37
        )
        via_numpy = get_kernels("numpy").reweight_log_weights(cache, leaf_ids, 0.37)
        assert via_numba.tolist() == via_numpy.tolist()

    def test_model_trajectory_identical_without_numba(self):
        """End to end: a ``backend="numba"`` model behaves exactly like the
        default model in this process (whether the kernels are jitted or
        the fallback — both sides of the contract are bit-exact)."""
        X, y = _piecewise_data(80, 3, 5)
        kwargs = dict(n_particles=12, resample_threshold=0.9)
        compiled = DynamicTreeRegressor(
            DynamicTreeConfig(backend="numba", **kwargs),
            rng=np.random.default_rng(2),
        )
        default = DynamicTreeRegressor(
            DynamicTreeConfig(backend="numpy", **kwargs),
            rng=np.random.default_rng(2),
        )
        compiled.fit(X[:40], y[:40])
        default.fit(X[:40], y[:40])
        for i in range(40, 80):
            compiled.update(X[i], float(y[i]))
            default.update(X[i], float(y[i]))
        fast = compiled.predict(X[:7])
        slow = default.predict(X[:7])
        assert fast.mean.tolist() == slow.mean.tolist()
        assert fast.variance.tolist() == slow.variance.tolist()
        assert compiled.leaf_counts() == default.leaf_counts()


class TestNumbaFastTolerance:
    """The documented ``numba-fast`` deviation: vectorized ``np.log`` /
    ``np.log1p`` may differ from the scalar-rounded maps by an ulp."""

    def test_fast_log_maps_within_tolerance(self):
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [rng.uniform(1e-12, 1e3, 500), rng.uniform(1.0 - 1e-9, 1.0 + 1e-9, 100)]
        )
        kernels = get_kernels("numba-fast")
        np.testing.assert_allclose(
            kernels.log_array(values), log_map_exact(values), rtol=1e-14, atol=0.0
        )
        np.testing.assert_allclose(
            kernels.log1p_array(values),
            log1p_map_exact(values),
            rtol=1e-14,
            atol=0.0,
        )

    def test_fast_trajectory_close_to_reference(self):
        X, y = _piecewise_data(90, 3, 7)
        fast = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=12, backend="numba-fast"),
            rng=np.random.default_rng(4),
        )
        reference = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=12, vectorized=False),
            rng=np.random.default_rng(4),
        )
        fast.fit(X[:45], y[:45])
        reference.fit(X[:45], y[:45])
        for i in range(45, 90):
            fast.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
        a = fast.predict(X[:7])
        b = reference.predict(X[:7])
        # The trees may diverge only if an ulp flips a sampled move; with
        # this seed they do not, and the predictive moments track the
        # reference to float precision.
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-7)
        np.testing.assert_allclose(a.variance, b.variance, rtol=1e-6)


class TestCheckpointBackendRoundTrip:
    def test_backend_survives_pickle_and_resume(self):
        """Kill → resume keeps the model on the configured backend.

        The checkpoint pickles the whole model, so the backend rides along
        in its ``DynamicTreeConfig``; this pins that no resume path swaps
        the model for a default-backend rebuild.
        """
        benchmark = get_benchmark("mm")
        config = LearnerConfig(
            n_initial=4,
            seed_observations=4,
            n_candidates=12,
            max_training_examples=16,
            reference_size=8,
            evaluation_interval=5,
            tree_particles=5,
            tree_backend="numba",
        )
        test_set = build_test_set(
            benchmark, size=20, observations=2, rng=np.random.default_rng(8)
        )
        learner = ActiveLearner(
            benchmark,
            plan=sequential_plan(),
            config=config,
            rng=np.random.default_rng(9),
        )
        blobs = []
        learner.run(
            test_set,
            checkpoint_interval=4,
            checkpoint_sink=lambda ckpt: blobs.append(
                pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        assert blobs
        checkpoint = pickle.loads(blobs[0])
        assert checkpoint.model.config.backend == "numba"

        resumed_learner = ActiveLearner(
            benchmark,
            plan=sequential_plan(),
            config=config,
            rng=np.random.default_rng(999),
        )
        result = resumed_learner.run(test_set, resume=checkpoint)
        assert result.model.config.backend == "numba"


class TestZeroCompileInvariant:
    def test_flat_tree_compiled_exactly_once_per_particle(self, monkeypatch):
        """Updates never recompile the flat forest.

        :meth:`FlatTree.compile` runs exactly ``n_particles`` times for the
        lifetime of a model: once per particle when the forest is first
        built.  Every later move is spliced into the forest in place and a
        resample gathers its rows, so a long update/predict interleaving
        adds zero compile calls.
        """
        calls = {"count": 0}
        original = FlatTree.compile.__func__

        def counting(cls, root):
            calls["count"] += 1
            return original(cls, root)

        monkeypatch.setattr(FlatTree, "compile", classmethod(counting))

        n_particles = 11
        X, y = _piecewise_data(120, 4, 13)
        model = DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=n_particles),
            rng=np.random.default_rng(6),
        )
        model.fit(X[:60], y[:60])
        model.predict(X[:3])
        assert calls["count"] == n_particles
        for i in range(60, 110):
            model.update(X[i], float(y[i]))
            if i % 5 == 0:
                model.predict(X[:3])
                model.expected_average_variance(X[:4], X[4:8])
        assert calls["count"] == n_particles
