"""Micro-benchmarks of the batched predict/ALC hot path.

Every iteration of the paper's Algorithm 1 scores a candidate batch against
a reference batch across every dynamic-tree particle — this *is* the cost
of reproduction, which is why the tree inference was lowered onto the
flat-array kernel (:mod:`repro.models.flat_tree`).  The benchmarks here pit
that kernel against the per-node reference implementation (the seed's
pure-Python descent loops, kept as the ``ReferenceDynamicTree`` oracle in
``tests/oracles``) at "bench scale": 60 candidates × 40 reference points ×
40 particles.

Results are exported to ``BENCH_model.json`` (see ``conftest.py``), so the
vectorized-vs-reference ratio — the before/after speedup — is recorded
machine-readably on every run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from tests.oracles.dynamic_tree import ReferenceDynamicTree

N_CANDIDATES = 60
N_REFERENCE = 40
N_PARTICLES = 40
N_TRAIN = 150
DIMS = 6


def _make_model(vectorized: bool):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.5, 1.5, size=(N_TRAIN, DIMS))
    y = (
        1.0
        + 0.3 * X[:, 0]
        + np.where(X[:, 1] > 0, 0.5, 0.0)
        + rng.normal(0, 0.02, N_TRAIN)
    )
    model_class = DynamicTreeRegressor if vectorized else ReferenceDynamicTree
    model = model_class(
        DynamicTreeConfig(n_particles=N_PARTICLES), rng=np.random.default_rng(1)
    )
    model.fit(X, y)
    candidates = rng.uniform(-1.5, 1.5, size=(N_CANDIDATES, DIMS))
    reference_rows = rng.choice(N_CANDIDATES, size=N_REFERENCE, replace=False)
    return model, candidates, reference_rows


@pytest.mark.benchmark(group="predict-alc")
@pytest.mark.parametrize("kernel", ["vectorized", "reference"])
def test_bench_predict_alc(benchmark, kernel):
    """One acquisition scoring pass: batched predict + ALC over all particles.

    ``reference`` is the seed implementation (per-node Python descent);
    ``vectorized`` is the flat-array kernel.  Their ratio in
    ``BENCH_model.json`` is the tracked before/after speedup.
    """
    model, candidates, reference_rows = _make_model(vectorized=(kernel == "vectorized"))

    def score_once():
        model.predict(candidates)
        return model.expected_average_variance(candidates, reference_rows)

    scores = benchmark(score_once)
    assert scores.shape == (N_CANDIDATES,)


@pytest.mark.benchmark(group="predict-alc")
def test_bench_acquisition_iteration(benchmark):
    """A full learner-iteration model workload: update (cache invalidation +
    patching) followed by batched ALC scoring and a prediction, i.e. what
    the vectorized pipeline pays per Algorithm-1 iteration."""
    model, candidates, reference_rows = _make_model(vectorized=True)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.5, 1.5, size=(512, DIMS))
    ys = 1.0 + 0.3 * xs[:, 0] + np.where(xs[:, 1] > 0, 0.5, 0.0)
    state = {"i": 0}

    def one_iteration():
        i = state["i"] = (state["i"] + 1) % xs.shape[0]
        model.update(xs[i], float(ys[i]))
        scores = model.expected_average_variance(candidates, reference_rows)
        model.predict(candidates[: int(np.argmax(-scores)) + 1])
        return scores

    scores = benchmark(one_iteration)
    assert scores.shape == (N_CANDIDATES,)


@pytest.mark.benchmark(group="predict-alc")
@pytest.mark.parametrize("batch", [16, 256])
def test_bench_batched_predict(benchmark, batch):
    """Raw batched prediction throughput at two batch sizes."""
    model, _, _ = _make_model(vectorized=True)
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.5, 1.5, size=(batch, DIMS))

    prediction = benchmark(model.predict, X)
    assert prediction.mean.shape == (batch,)
