"""What a pickled :class:`TuningSession` carries, and that it is enough.

A checkpoint holds only the posterior's source of truth — training
buffers, RNG, prior, config and the particles as an array snapshot of
the particle forest — plus the session's format stamp.  Everything the
model derives from that state (the particle forest, leaf and prior memo
caches, term tables) is rebuilt lazily after load.
The pins:

* **resume** — unpickling at several points, including right after a
  resample left duplicated particles, and finishing the run reproduces
  the uninterrupted curve, ledger and RNG state bit for bit, on a quiet
  and on a frequency-drift benchmark;
* **no derived state** — the blob names no forest class and no per-node
  class: the trees travel as arrays, without leaf membership;
* **rebuilt trees** — at the duplicate checkpoint and at the end of the
  run, the loaded trees equal the live ones node for node (shape, depths,
  splits, leaf statistics bitwise, index lists in order — the loaded
  model re-derives them by routing its training rows);
* **size** — a deterministic byte-count pin on a mid-run blob;
* **learner resume** — a checkpoint taken through ``ActiveLearner.run``
  resumes on the configured model, not a default rebuild.

The format stamp's effect on the runner's checkpoint loader is pinned
with the other checkpoint-integrity tests in ``tests/test_runner.py``.
"""

from __future__ import annotations

import dataclasses
import io
import pickle

import numpy as np
import pytest

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.experiments.config import ExperimentScale
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.suite import get_benchmark
from tests.oracles.dynamic_tree import ReferenceDynamicTree

#: The sharded benchmark's learner: 200 particles, 30 training examples.
CONFIG = dataclasses.replace(
    ExperimentScale.laptop().learner, max_training_examples=30, tree_particles=200
)

#: Its model, resampling on every update (``resample_threshold=1.0``), so
#: every seed and draw stream leaves duplicated particles.
MODEL_CONFIG = DynamicTreeConfig(n_particles=200, resample_threshold=1.0)

#: Mid-run blobs measured about 56 KB (72 KB while the trees were pickled
#: as node objects); before checkpoints dropped the compiled state they
#: were about 650 KB.
MAX_MID_RUN_BYTES = 150_000

#: Classes of state the model rebuilds after load; none may be pickled.
DERIVED_CLASSES = {
    "FlatTree",
    "FlatForest",
    "ParticleForest",
    "LeafCacheArrays",
    "LeafTermTables",
    "_Node",
    "GaussianLeafModel",
}


def _dumps(session):
    return pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)


def _new_session(name):
    benchmark = get_benchmark(name)
    test_set = build_test_set(
        benchmark, size=60, observations=5, rng=np.random.default_rng(3)
    )
    learner = ActiveLearner(
        benchmark, plan=sequential_plan(), config=CONFIG,
        model_factory=lambda rng: DynamicTreeRegressor(MODEL_CONFIG, rng=rng),
        rng=np.random.default_rng(11),
    )
    return learner.start_session(test_set), benchmark


def _finish(session, benchmark, after_tell=None):
    broker = ProfilerBroker(Profiler(benchmark, rng=session.rng))
    while (request := session.ask()) is not None:
        session.tell(broker.measure(request))
        if after_tell is not None:
            after_tell(session)
    result = session.result()
    return (
        [(p.cost_seconds, p.rmse, p.training_examples) for p in result.curve.points],
        (
            result.ledger.compile_seconds,
            result.ledger.runtime_seconds,
            result.ledger.compilations,
            result.ledger.executions,
        ),
        result.observation_counts,
        session.rng.bit_generator.state,
    )


def _walk(root, path=()):
    """Every node of a tree with its path from the root (``"L"``/``"R"``)."""
    yield path, root
    if root.left is not None:
        yield from _walk(root.left, path + ("L",))
        yield from _walk(root.right, path + ("R",))


def _duplicate_particles(model):
    """``(particle, particle)`` holding the same tree, or ``None``.

    A resample copies rows; two copies stay equal until a move tells them
    apart.
    """
    seen = {}
    for index, tree in enumerate(_describe(model)):
        first = seen.setdefault(repr(tree), index)
        if first != index:
            return first, index
    return None


def _describe(model):
    """Every particle's tree in pre-order, floats as bit patterns."""
    trees = []
    for root in ReferenceDynamicTree.from_model(model)._particles:
        nodes = []
        for path, node in _walk(root):
            assert node.depth == len(path)
            if node.leaf is not None:
                leaf = node.leaf
                nodes.append(
                    (
                        node.depth,
                        leaf._count,
                        float(leaf._sum).hex(),
                        float(leaf._sum_sq).hex(),
                        tuple(node.indices),
                    )
                )
            else:
                nodes.append((node.depth, node.split_dim, float(node.split_value).hex()))
        trees.append(nodes)
    return trees


class _NoDerivedState(pickle.Unpickler):
    def find_class(self, module, name):
        if name in DERIVED_CLASSES:
            raise pickle.UnpicklingError(f"checkpoint holds derived {module}.{name}")
        return super().find_class(module, name)


@pytest.fixture(scope="module", params=["mm", "correlation"])
def recorded(request):
    """One uninterrupted run with a blob after every tell.

    Returns ``(name, fingerprint, blobs, shared, trees)``: ``shared`` is
    the index of the first blob taken while two particles of the live
    model were resample duplicates, with the pair (see
    :func:`_duplicate_particles`); ``trees`` maps that index and the last
    blob's to the live model's :func:`_describe` when they were taken.
    """
    name = request.param
    session, benchmark = _new_session(name)
    blobs = []
    shared = []
    trees = {}

    def record(live):
        blobs.append(_dumps(live))
        if live.model is None:
            return
        if not shared:
            located = _duplicate_particles(live.model)
            if located is not None:
                shared.append((len(blobs) - 1, located))
                trees[len(blobs) - 1] = _describe(live.model)
        trees["last"] = _describe(live.model)

    fingerprint = _finish(session, benchmark, after_tell=record)
    assert shared, "no resample left duplicated particles"
    trees[len(blobs) - 1] = trees.pop("last")
    return name, fingerprint, blobs, shared[0], trees


class TestLeanCheckpoint:
    def test_resume_is_bit_identical(self, recorded):
        name, fingerprint, blobs, (shared_index, _), _ = recorded
        points = sorted({0, shared_index, len(blobs) // 2, len(blobs) - 2})
        for index in points:
            session = pickle.loads(blobs[index])
            benchmark = get_benchmark(name)
            session.attach_benchmark(benchmark)
            assert _finish(session, benchmark) == fingerprint, (
                f"{name}: resume from checkpoint {index} diverged"
            )

    def test_blob_holds_no_derived_state(self, recorded):
        _, _, blobs, (shared_index, _), _ = recorded
        for index in (shared_index, len(blobs) - 1):
            session = _NoDerivedState(io.BytesIO(blobs[index])).load()
            model = session.model
            assert model._particle_forest is None

    def test_rebuilt_trees_equal_originals(self, recorded):
        _, _, blobs, _, trees = recorded
        assert len(trees) == 2
        for index, live in trees.items():
            model = pickle.loads(blobs[index]).model
            # A loaded model has no forest yet; the first use rebuilds it.
            assert model._particle_forest is None
            assert _describe(pickle.loads(pickle.dumps(model))) == live
            assert _describe(model) == live, f"checkpoint {index} rebuilt other trees"

    def test_mid_run_blob_size(self, recorded):
        _, _, blobs, _, _ = recorded
        size = len(blobs[len(blobs) // 2])
        assert size < MAX_MID_RUN_BYTES, f"mid-run checkpoint is {size} bytes"


class TestLearnerResume:
    def test_model_config_survives_pickle_and_resume(self):
        """Kill → resume keeps the model's configuration.

        The checkpoint pickles the whole model, so its ``DynamicTreeConfig``
        rides along; this pins that no resume path swaps the model for a
        default rebuild.
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
        )
        expected = DynamicTreeConfig(n_particles=5)
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
            checkpoint_sink=lambda ckpt: blobs.append(_dumps(ckpt)),
        )
        assert blobs
        checkpoint = pickle.loads(blobs[0])
        assert checkpoint.model.config == expected

        resumed_learner = ActiveLearner(
            benchmark,
            plan=sequential_plan(),
            config=config,
            rng=np.random.default_rng(999),
        )
        result = resumed_learner.run(test_set, resume=checkpoint)
        assert result.model.config == expected
