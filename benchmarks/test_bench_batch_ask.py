"""Benchmark for batch acquisition: ``ask(5)`` vs five ``ask(1)`` cycles.

Greedy-ALC-fantasy batch selection re-scores the candidate set after each
fantasized update, so one ``ask(5)`` does roughly the acquisition work of
five sequential asks *plus* the fantasy model copies/updates — but it
amortizes the candidate draw, the reference draw and the request
book-keeping, and it is the call a parallel-measurement deployment sits
on.  The ``batch-acquisition`` group records both sides of that trade in
``BENCH_model.json`` so ``check_regression.py`` catches either cycle
getting slower:

* ``test_bench_ask5_batch_cycle`` — one full ``ask(5)`` + five tells;
* ``test_bench_five_ask1_cycles`` — five ``ask(1)`` + tell cycles doing
  the same amount of learning from the same primed session.

Both sides start every round from a deepcopy of the same primed session
(seeding finished, model fitted), so the numbers compare like with like.

The fantasy copy is the cheap ``DynamicTreeRegressor.fantasy_copy``
(one copy of each forest array, pure caches shared), not a
``copy.deepcopy`` of the model.  The residual ~1.4× gap of ``ask(5)`` over five
``ask(1)`` is inherent to the kriging-believer recipe at this scale:
the batch cycle performs nine model updates (five real tells plus four
fantasized believes) against the sequential cycle's five, and the
updates dominate the cycle.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.acquisition import GreedyALCFantasyAcquisition
from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.spapt.suite import get_benchmark

CONFIG = LearnerConfig(
    n_initial=5,
    seed_observations=10,
    n_candidates=30,
    max_training_examples=40,
    reference_size=20,
    tree_particles=15,
)

BATCH = 5


@pytest.fixture(scope="module")
def mm():
    return get_benchmark("mm")


@pytest.fixture(scope="module")
def primed(mm):
    """A session past seeding with a few learning steps folded, frozen as
    the common starting state for every benchmark round."""
    learner = ActiveLearner(
        mm,
        plan=sequential_plan(5),
        acquisition=GreedyALCFantasyAcquisition(),
        config=CONFIG,
        rng=np.random.default_rng(2017),
    )
    test_set = build_test_set(
        mm, size=60, observations=4, rng=np.random.default_rng(7)
    )
    session = learner.start_session(test_set)
    broker = ProfilerBroker(Profiler(mm, rng=session.rng))
    while session.training_examples < CONFIG.n_initial + 3:
        session.tell(broker.measure(session.ask()))
    return session


def _clone(mm, primed):
    session = copy.deepcopy(primed)
    session.attach_benchmark(mm)
    broker = ProfilerBroker(Profiler(mm, rng=session.rng))
    return session, broker


def _batch_cycle(session, broker):
    requests = session.ask(BATCH)
    for request in requests:
        session.tell(broker.measure(request))
    return len(requests)


def _sequential_cycles(session, broker):
    served = 0
    for _ in range(BATCH):
        request = session.ask()
        if request is None:
            break
        session.tell(broker.measure(request))
        served += 1
    return served


@pytest.mark.benchmark(group="batch-acquisition")
def test_bench_ask5_batch_cycle(benchmark, mm, primed):
    served = benchmark.pedantic(
        _batch_cycle,
        setup=lambda: (_clone(mm, primed), {}),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert served == BATCH


@pytest.mark.benchmark(group="batch-acquisition")
def test_bench_five_ask1_cycles(benchmark, mm, primed):
    served = benchmark.pedantic(
        _sequential_cycles,
        setup=lambda: (_clone(mm, primed), {}),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert served == BATCH


def test_batch_and_sequential_learn_the_same_amount(mm, primed):
    """Sanity anchor for the timing comparison: both cycles advance the
    session by the same number of training examples."""
    batch_session, batch_broker = _clone(mm, primed)
    _batch_cycle(batch_session, batch_broker)
    sequential_session, sequential_broker = _clone(mm, primed)
    _sequential_cycles(sequential_session, sequential_broker)
    assert (
        batch_session.training_examples
        == sequential_session.training_examples
        == primed.training_examples + BATCH
    )
