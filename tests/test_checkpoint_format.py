"""What a pickled :class:`TuningSession` carries, and that it is enough.

A checkpoint holds only the posterior's source of truth — particles,
training buffers, RNG, prior and config — plus the session's format
stamp.  Everything the model derives from that state (per-particle flat
compilations, the incremental forest, leaf and prior memo caches, term
tables) is rebuilt lazily after load.  The pins:

* **resume** — unpickling at several points, including right after a
  resample left particles sharing subtrees copy-on-write, and finishing
  the run reproduces the uninterrupted curve, ledger and RNG state bit
  for bit, on a quiet and on a frequency-drift benchmark;
* **no derived state** — the blob names no compiled-forest class;
* **sharing survives** — a subtree two particles share before the
  pickle is one object after load;
* **size** — a deterministic byte-count pin on a mid-run blob.

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
from repro.core.learner import ActiveLearner
from repro.core.plans import sequential_plan
from repro.experiments.config import ExperimentScale
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.spapt.suite import get_benchmark

#: The sharded benchmark's learner: 200 particles, 30 training examples.
CONFIG = dataclasses.replace(
    ExperimentScale.laptop().learner, max_training_examples=30, tree_particles=200
)

#: Mid-run blobs measured about 72 KB; before checkpoints dropped the
#: compiled state they were about 650 KB.
MAX_MID_RUN_BYTES = 150_000

#: Classes of state the model rebuilds after load; none may be pickled.
DERIVED_CLASSES = {
    "FlatTree",
    "FlatForest",
    "ParticleForest",
    "LeafCacheArrays",
    "LeafTermTables",
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


def _shared_subtree(model):
    """``(particle, path, particle, path)`` of a node two particles share."""
    seen = {}
    for index, root in enumerate(model._particles):
        for path, node in _walk(root):
            first = seen.setdefault(id(node), (index, path))
            if first[0] != index:
                return first + (index, path)
    return None


def _resolve(root, path):
    for step in path:
        root = root.left if step == "L" else root.right
    return root


class _NoDerivedState(pickle.Unpickler):
    def find_class(self, module, name):
        if name in DERIVED_CLASSES:
            raise pickle.UnpicklingError(f"checkpoint holds derived {module}.{name}")
        return super().find_class(module, name)


@pytest.fixture(scope="module", params=["mm", "correlation"])
def recorded(request):
    """One uninterrupted run with a blob after every tell.

    Returns ``(name, fingerprint, blobs, shared)``: ``shared`` is the
    index of the first blob taken while two particles of the live model
    shared a subtree, with that subtree's location (see
    :func:`_shared_subtree`).
    """
    name = request.param
    session, benchmark = _new_session(name)
    blobs = []
    shared = []

    def record(live):
        blobs.append(_dumps(live))
        if not shared and live.model is not None:
            located = _shared_subtree(live.model)
            if located is not None:
                shared.append((len(blobs) - 1, located))

    fingerprint = _finish(session, benchmark, after_tell=record)
    assert shared, "no resample left particles sharing a subtree"
    return name, fingerprint, blobs, shared[0]


class TestLeanCheckpoint:
    def test_resume_is_bit_identical(self, recorded):
        name, fingerprint, blobs, (shared_index, _) = recorded
        points = sorted({0, shared_index, len(blobs) // 2, len(blobs) - 2})
        for index in points:
            session = pickle.loads(blobs[index])
            benchmark = get_benchmark(name)
            session.attach_benchmark(benchmark)
            assert _finish(session, benchmark) == fingerprint, (
                f"{name}: resume from checkpoint {index} diverged"
            )

    def test_blob_holds_no_derived_state(self, recorded):
        _, _, blobs, (shared_index, _) = recorded
        for index in (shared_index, len(blobs) - 1):
            session = _NoDerivedState(io.BytesIO(blobs[index])).load()
            model = session.model
            assert model._particle_forest is None

    def test_shared_subtree_stays_one_object(self, recorded):
        _, _, blobs, (shared_index, located) = recorded
        first, first_path, second, second_path = located
        after = pickle.loads(blobs[shared_index]).model
        node = _resolve(after._particles[first], first_path)
        assert node is _resolve(after._particles[second], second_path)

    def test_mid_run_blob_size(self, recorded):
        _, _, blobs, _ = recorded
        size = len(blobs[len(blobs) // 2])
        assert size < MAX_MID_RUN_BYTES, f"mid-run checkpoint is {size} bytes"
