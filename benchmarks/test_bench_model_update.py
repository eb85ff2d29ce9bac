"""Micro-benchmarks of the model-update cost (the paper's O(n^3) argument).

Section 3.2 motivates dynamic trees over Gaussian processes with the cost of
sequential updates: the GP needs an O(n^3) refit per new observation while
the dynamic tree only touches the leaf containing the new point.  These
micro-benchmarks measure one sequential update (absorb a point, then
predict) at different training-set sizes for both models, the batched SMC
update kernel against the per-particle reference loop at paper-scale
particle counts, plus the raw throughput of the simulated substrate
(cost-model evaluation and profiling).

Together with ``test_bench_predict.py`` the results are exported to
``BENCH_model.json`` (pytest-benchmark JSON, see ``conftest.py``) so the
perf trajectory of the model hot paths is tracked across PRs
(``benchmarks/check_regression.py`` gates on the ``model-update``,
``predict-alc`` and ``forest-maintenance`` groups).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.measurement.profiler import Profiler
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.models.gp import GaussianProcessRegressor
from repro.spapt.suite import get_benchmark
from tests.oracles.dynamic_tree import ReferenceDynamicTree


def _training_data(size, dims=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(size, dims))
    y = 1.0 + 0.3 * X[:, 0] + np.where(X[:, 1] > 0, 0.5, 0.0) + rng.normal(0, 0.02, size)
    return X, y


def _as_reference(model: DynamicTreeRegressor) -> ReferenceDynamicTree:
    """A reference-oracle twin built from the batched model's forest.

    Fitting at paper-scale particle counts through the reference path takes
    minutes; rebuilding the state of a batched fit as node trees measures
    exactly the same update workload on identical trees without paying
    that setup.
    """
    return ReferenceDynamicTree.from_model(model)


@pytest.mark.benchmark(group="model-update")
@pytest.mark.parametrize("size", [50, 200, 400])
def test_bench_dynamic_tree_update(benchmark, size):
    """One sequential update (absorb + predict) at a fixed training size.

    The untimed setup restores a fresh deep copy of the fitted model every
    round, so each round measures the same fixed-size workload.  (The
    previous calibrated-mode version updated one long-lived model in place;
    its mean depended on how many rounds the calibration chose — the model
    kept growing — which made the regression gate flaky by construction.)
    """
    X, y = _training_data(size)
    fitted = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=20), rng=np.random.default_rng(1)
    )
    fitted.fit(X, y)
    probe = np.zeros((1, X.shape[1]))
    holder = {}

    def fresh_state():
        holder["model"] = copy.deepcopy(fitted)
        return (), {}

    def update_and_predict():
        model = holder["model"]
        model.update(X[size // 2], float(y[size // 2]))
        model.predict(probe)

    benchmark.pedantic(
        update_and_predict, setup=fresh_state, rounds=30, iterations=1, warmup_rounds=1
    )


@pytest.fixture(scope="module")
def paper_scale_model():
    """One batched fit at paper-scale particle count, shared by the
    update-kernel benchmarks (the trees are deep-copied per benchmark)."""
    X, y = _training_data(220)
    model = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=1000), rng=np.random.default_rng(1)
    )
    model.fit(X[:200], y[:200])
    return model, X, y


@pytest.mark.benchmark(group="model-update")
@pytest.mark.parametrize("kernel", ["batched", "reference"])
def test_bench_particle_update_1000(benchmark, paper_scale_model, kernel):
    """Algorithm 1's per-observation model update at 1 000 particles.

    ``batched`` is the production kernel (batched reweight, row-gather
    resample, phased array propagate); ``reference`` is the pre-batching
    per-particle Python loop, the ``ReferenceDynamicTree`` equivalence
    oracle of ``tests/oracles``.  Both absorb the same held-out
    observations from identical tree state, so the pair measures the
    update-kernel speedup directly.  One untimed warm-up round absorbs
    allocator warm-up.

    The last timed round's per-phase wall-clock split
    (``DynamicTreeRegressor.phase_timings``) lands in the JSON record's
    ``extra_info``, so BENCH_model.json says *where* the milliseconds went,
    not just how many there were.
    """
    fitted, X, y = paper_scale_model
    rounds = 3 if kernel == "reference" else 5
    holder = {}

    def run_updates():
        model = holder["model"]
        for i in range(200, 205):
            model.update(X[i], float(y[i]))

    def fresh_state():
        if kernel == "reference":
            model = _as_reference(fitted)
        else:
            model = copy.deepcopy(fitted)
            # Zero the fit's accumulators so extra_info reports exactly the
            # round's five updates.
            model.reset_phase_timings()
        holder["model"] = model
        return (), {}

    benchmark.pedantic(
        run_updates, setup=fresh_state, rounds=rounds, iterations=1, warmup_rounds=1
    )
    if kernel != "reference":
        benchmark.extra_info["phase_timings_ms"] = {
            phase: round(seconds * 1000.0, 3)
            for phase, seconds in holder["model"].phase_timings.items()
        }


@pytest.mark.benchmark(group="forest-maintenance")
@pytest.mark.parametrize("forest", ["incremental", "rebuild"])
def test_bench_forest_maintenance_1000(benchmark, paper_scale_model, forest):
    """First predict/ALC batch after an update at 1 000 particles.

    This is the per-iteration cost the in-place particle forest amortises:
    the untimed setup absorbs one observation, the timed body scores a
    candidate batch — reading the forest the update kept in step
    (``incremental``) or rebuilding it from its checkpoint snapshot
    (``rebuild``: the setup swaps the forest for its snapshot, as a load
    does) plus the routing itself.  Their ratio in ``BENCH_model.json`` is
    the tracked win of the in-place maintenance; equivalence is pinned
    separately by ``tests/test_particle_forest.py``.
    """
    fitted, X, y = paper_scale_model
    model = copy.deepcopy(fitted)
    rng = np.random.default_rng(5)
    candidates = rng.uniform(-1.5, 1.5, size=(20, X.shape[1]))
    reference = candidates[:10]
    model.predict(candidates[:1])  # build the initial forest outside the timing
    state = {"i": 0}

    def absorb_one():
        i = 200 + state["i"] % 20
        state["i"] += 1
        model.update(X[i], float(y[i]))
        if forest == "rebuild":
            model._snapshot = model._particle_forest.preorder()
            model._particle_forest = None
        return (), {}

    def score_batch():
        model.expected_average_variance(candidates, reference)
        model.predict(candidates[:5])

    benchmark.pedantic(
        score_batch, setup=absorb_one, rounds=40, iterations=1, warmup_rounds=1
    )


@pytest.mark.benchmark(group="model-update")
def test_bench_particle_update_5000(benchmark, bench_scale_is_laptop):
    """The batched kernel at the paper's full 5 000 particles.

    Only measured at ``--bench-scale=laptop`` (the fit alone takes ~1 min);
    the fast tier-1 configuration records the 1 000-particle pair above.
    """
    if not bench_scale_is_laptop:
        pytest.skip("5000-particle update benchmark runs at --bench-scale=laptop")
    X, y = _training_data(170)
    model = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=5000), rng=np.random.default_rng(1)
    )
    model.fit(X[:150], y[:150])

    def run_updates():
        for i in range(150, 155):
            model.update(X[i], float(y[i]))

    benchmark.pedantic(run_updates, rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.benchmark(group="model-update")
@pytest.mark.parametrize("size", [50, 200, 400])
def test_bench_gaussian_process_update(benchmark, size):
    X, y = _training_data(size)
    probe = np.zeros((1, X.shape[1]))

    def update_and_predict():
        model = GaussianProcessRegressor()
        model.fit(X, y)
        model.update(X[size // 2], float(y[size // 2]))
        model.predict(probe)

    benchmark(update_and_predict)


@pytest.mark.benchmark(group="model-update")
@pytest.mark.parametrize("mode", ["rank1", "full-refit"])
def test_bench_gaussian_process_sequential_updates(benchmark, mode):
    """The GP's sequential-update cost with and without the rank-1 path.

    ``rank1`` extends the Cholesky factor (O(n²) per observation, periodic
    refits); ``full-refit`` restores the old behaviour of an O(n³)
    refactorisation plus hyper-parameter re-estimation per observation —
    the Section-3.2 comparison the dynamic tree is measured against.
    """
    X, y = _training_data(420)
    interval = 25 if mode == "rank1" else 1
    probe = np.zeros((1, X.shape[1]))
    holder = {}

    def sequential_updates():
        model = holder["model"]
        for i in range(400, 420):
            model.update(X[i], float(y[i]))
            model.predict(probe)

    def fresh_model():
        model = GaussianProcessRegressor(refit_interval=interval)
        model.fit(X[:400], y[:400])
        model.predict(probe)
        holder["model"] = model
        return (), {}

    benchmark.pedantic(
        sequential_updates, setup=fresh_model, rounds=3, iterations=1, warmup_rounds=1
    )


@pytest.mark.benchmark(group="substrate")
def test_bench_cost_model_evaluation(benchmark):
    mm = get_benchmark("mm")
    rng = np.random.default_rng(2)
    configurations = [mm.search_space.random_configuration(rng) for _ in range(200)]

    def evaluate_all():
        return sum(mm.true_runtime(c) for c in configurations)

    total = benchmark(evaluate_all)
    assert total > 0


@pytest.mark.benchmark(group="substrate")
def test_bench_profiler_throughput(benchmark):
    mm = get_benchmark("mm")

    def profile_batch():
        profiler = Profiler(mm, rng=np.random.default_rng(3))
        for _ in range(50):
            configuration = mm.search_space.random_configuration(profiler._rng)
            profiler.measure(configuration, repetitions=3)
        return profiler.ledger.total_seconds

    cost = benchmark(profile_batch)
    assert cost > 0
