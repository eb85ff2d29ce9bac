"""Batch-mode acquisition: ``TuningSession.ask(k)`` and its contracts.

The load-bearing guarantees:

* **k=1 bit-identity** — every batch strategy's ``k=1`` selection
  reproduces the sequential ALC path exactly (curve, ledger, RNG stream)
  across all sampling plans;
* **fold determinism** — out-of-order ``tell()`` arrival folds in ask
  order: the trajectory is a function of the requests, not of measurement
  races;
* **mid-batch checkpointing** — a session pickled with a batch partially
  answered resumes with the same pending requests and continues
  bit-identically;
* **batch semantics** — distinct configurations per batch, truncation at
  the example budget and phase boundaries, duplicate/foreign tells
  rejected;
* **end-to-end** — the ``batch-acquisition`` registry arm runs on both
  the in-memory backend and the sharded runner.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.acquisition import (
    ALCAcquisition,
    DiversityPenaltyAcquisition,
    GreedyALCFantasyAcquisition,
    make_acquisition,
)
from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import adaptive_ci_plan, fixed_plan, sequential_plan
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import run_artifacts
from repro.experiments.runner import run_paper_run
from repro.measurement.broker import ProfilerBroker
from repro.measurement.profiler import Profiler
from repro.models.gp import GaussianProcessRegressor
from repro.spapt.suite import get_benchmark

SMALL = LearnerConfig(
    n_initial=4,
    seed_observations=4,
    n_candidates=15,
    max_training_examples=24,
    reference_size=10,
    evaluation_interval=5,
    tree_particles=8,
)

PLANS = {
    "fixed3": lambda: fixed_plan(3),
    "fixed1": lambda: fixed_plan(1),
    "sequential": lambda: sequential_plan(5),
    "adaptive": lambda: adaptive_ci_plan(0.05, max_observations=6),
}

BATCH_STRATEGIES = ("greedy-alc-fantasy", "diversity-penalty", "random")


@pytest.fixture(scope="module")
def mm():
    return get_benchmark("mm")


def _test_set(benchmark):
    return build_test_set(
        benchmark, size=30, observations=2, rng=np.random.default_rng(42)
    )


def _fingerprint(result):
    return (
        [
            (p.cost_seconds, p.rmse, p.training_examples, p.observations)
            for p in result.curve.points
        ],
        (
            result.ledger.compile_seconds,
            result.ledger.runtime_seconds,
            result.ledger.compilations,
            result.ledger.executions,
        ),
        result.observation_counts,
        result.training_examples,
    )


def _start_session(mm, plan, acquisition=None, seed=777, config=SMALL):
    learner = ActiveLearner(
        mm,
        plan=plan,
        acquisition=acquisition,
        config=config,
        rng=np.random.default_rng(seed),
    )
    session = learner.start_session(_test_set(mm))
    broker = ProfilerBroker(Profiler(mm, rng=session.rng))
    return session, broker


def _drive_sequential(mm, plan, acquisition=None, seed=777):
    session, broker = _start_session(mm, plan, acquisition, seed)
    while (request := session.ask()) is not None:
        session.tell(broker.measure(request))
    return _fingerprint(session.result()), session.rng.bit_generator.state


def _drive_batched(mm, plan, k, acquisition=None, seed=777, tell_order=None,
                   config=SMALL):
    """Drive a session with ask(k); measure in ask order, tell in
    ``tell_order`` (a permutation function of the batch length)."""
    session, broker = _start_session(mm, plan, acquisition, seed, config=config)
    order = tell_order if tell_order is not None else lambda n: range(n)
    while True:
        requests = session.ask(k)
        if not requests:
            break
        results = [broker.measure(request) for request in requests]
        for index in order(len(results)):
            session.tell(results[index])
    return _fingerprint(session.result()), session.rng.bit_generator.state


class TestAskOneBitIdentity:
    """Every strategy's k=1 selection is the sequential ALC path."""

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_batch_strategies_at_k1_match_sequential_alc(self, mm, plan_name):
        expected = _drive_sequential(mm, PLANS[plan_name](), ALCAcquisition())
        for strategy in ("greedy-alc-fantasy", "diversity-penalty"):
            sequential = _drive_sequential(
                mm, PLANS[plan_name](), make_acquisition(strategy)
            )
            assert sequential == expected, strategy

    def test_select_batch_k1_consumes_the_generator_like_select(self, mm):
        model = GaussianProcessRegressor()
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 4))
        model.fit(X, rng.normal(size=12))
        candidates = rng.normal(size=(9, 4))
        reference = rng.normal(size=(5, 4))
        for acquisition in (
            ALCAcquisition(),
            GreedyALCFantasyAcquisition(),
            DiversityPenaltyAcquisition(),
        ):
            # Oracle: one scoring pass, then a tie-banded argmax (scores
            # within a 1e-12 relative band of the best) and one draw.
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            scores = np.asarray(acquisition.score(model, candidates, reference, a))
            best = float(scores.max())
            single = int(a.choice(np.flatnonzero(scores >= best - 1e-12 * abs(best))))
            batch = acquisition.select_batch(model, candidates, reference, b, 1)
            assert batch == [single]
            assert a.bit_generator.state == b.bit_generator.state


class TestFoldDeterminism:
    """Shuffled tell() arrival folds identically to in-order arrival."""

    @pytest.mark.parametrize("strategy", BATCH_STRATEGIES)
    def test_reversed_and_shuffled_tells_match_in_order(self, mm, strategy):
        def shuffled(n, _rng=np.random.default_rng(5)):
            return _rng.permutation(n)

        in_order = _drive_batched(
            mm, sequential_plan(5), k=3, acquisition=make_acquisition(strategy)
        )
        reversed_order = _drive_batched(
            mm, sequential_plan(5), k=3, acquisition=make_acquisition(strategy),
            tell_order=lambda n: reversed(range(n)),
        )
        shuffled_order = _drive_batched(
            mm, sequential_plan(5), k=3, acquisition=make_acquisition(strategy),
            tell_order=shuffled,
        )
        assert reversed_order == in_order
        assert shuffled_order == in_order

    def test_seeding_batches_fold_deterministically_too(self, mm):
        # k covers the whole seed phase in one batch; reversed arrival
        # must not change the seed targets' order.
        in_order = _drive_batched(mm, fixed_plan(3), k=4)
        reversed_order = _drive_batched(
            mm, fixed_plan(3), k=4, tell_order=lambda n: reversed(range(n))
        )
        assert reversed_order == in_order


class TestMidBatchPickle:
    """A session pickled mid-batch resumes with the same pending requests."""

    def _advance_to_learning(self, session, broker):
        while session.phase == "seeding":
            for request in session.ask(2):
                session.tell(broker.measure(request))

    def test_round_trip_restores_pending_requests_and_trajectory(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        self._advance_to_learning(session, broker)
        requests = session.ask(4)
        assert len(requests) == 4
        results = [broker.measure(request) for request in requests]
        session.tell(results[0])
        session.tell(results[2])

        blob = pickle.dumps(session)
        clone = pickle.loads(blob)
        clone.attach_benchmark(get_benchmark("mm"))
        assert [r.configuration for r in clone.pending_requests] == [
            requests[1].configuration,
            requests[3].configuration,
        ]

        # Answer the outstanding requests on both; the fold happens on the
        # last tell and both sessions continue bit-identically.
        for target in (session, clone):
            target.tell(results[1])
            target.tell(results[3])
        assert clone.pending_requests == []

        def finish(target):
            b = ProfilerBroker(Profiler(get_benchmark("mm"), rng=target.rng))
            while (batch := target.ask(4)):
                for request in batch:
                    target.tell(b.measure(request))
            return _fingerprint(target.result()), target.rng.bit_generator.state

        assert finish(clone) == finish(session)

    @pytest.mark.parametrize("phase", ["seeding", "learning"])
    def test_single_ask_pickled_outstanding_resumes_bit_identically(self, mm, phase):
        """A plain ``ask()`` is a batch of one: pickled before its tell,
        the clone owes that one request and, measured through
        ``pending_requests``, continues exactly like the original."""
        session, broker = _start_session(mm, sequential_plan(5))
        session.tell(broker.measure(session.ask()))  # one seed in
        if phase == "learning":
            self._advance_to_learning(session, broker)
            session.tell(broker.measure(session.ask()))
        request = session.ask()
        assert session.phase == phase
        clone = pickle.loads(pickle.dumps(session))
        benchmark = get_benchmark("mm")
        clone.attach_benchmark(benchmark)
        assert [r.configuration for r in clone.pending_requests] == [
            request.configuration
        ]

        def finish(target, b):
            for pending in target.pending_requests:
                target.tell(b.measure(pending))
            while (batch := target.ask(2)):
                for each in batch:
                    target.tell(b.measure(each))
            return _fingerprint(target.result()), target.rng.bit_generator.state

        clone_broker = ProfilerBroker(Profiler(benchmark, rng=clone.rng))
        assert finish(clone, clone_broker) == finish(session, broker)

    def test_learner_run_resumes_a_mid_batch_checkpoint(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        self._advance_to_learning(session, broker)
        requests = session.ask(3)
        session.tell(broker.measure(requests[0]))
        clone = pickle.loads(pickle.dumps(session))

        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(0),
        )
        result = learner.run(_test_set(mm), resume=clone, batch_size=3)
        assert result.training_examples == SMALL.max_training_examples


class TestBatchSemantics:
    def test_batch_members_are_distinct_configurations(self, mm):
        for strategy in BATCH_STRATEGIES:
            session, broker = _start_session(
                mm, sequential_plan(5), make_acquisition(strategy)
            )
            while session.phase == "seeding":
                session.tell(broker.measure(session.ask()))
            requests = session.ask(5)
            configurations = [r.configuration for r in requests]
            assert len(set(configurations)) == len(configurations) == 5

    def test_batch_truncates_at_the_example_budget(self, mm):
        config = dataclasses.replace(SMALL, max_training_examples=SMALL.n_initial + 2)
        session, broker = _start_session(mm, sequential_plan(5), config=config)
        while session.phase == "seeding":
            session.tell(broker.measure(session.ask()))
        requests = session.ask(5)
        assert len(requests) == 2
        for request in requests:
            session.tell(broker.measure(request))
        assert session.ask(5) == []
        assert session.done

    def test_seeding_batch_never_crosses_the_phase_boundary(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        requests = session.ask(10)
        assert len(requests) == SMALL.n_initial
        for request in requests:
            session.tell(broker.measure(request))
        assert session.phase == "learning"

    def test_duplicate_tell_rejected(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        requests = session.ask(3)
        result = broker.measure(requests[0])
        session.tell(result)
        with pytest.raises(ValueError, match="duplicate"):
            session.tell(result)

    def test_foreign_configuration_rejected(self, mm):
        from repro.measurement.broker import MeasurementResult

        session, _ = _start_session(mm, sequential_plan(5))
        requests = session.ask(2)
        foreign = tuple(v + 1 for v in requests[0].configuration)
        if foreign in {r.configuration for r in requests}:
            foreign = tuple(v + 2 for v in requests[0].configuration)
        with pytest.raises(ValueError, match="not part of"):
            session.tell(
                MeasurementResult(configuration=foreign, runtimes=(1.0,))
            )

    def test_ask_rejected_while_batch_outstanding(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        requests = session.ask(2)
        with pytest.raises(RuntimeError, match="outstanding"):
            session.ask(2)
        session.tell(broker.measure(requests[0]))
        with pytest.raises(RuntimeError, match="outstanding"):
            session.ask()

    def test_batch_ask_after_done_returns_empty_list(self, mm):
        config = dataclasses.replace(SMALL, max_training_examples=SMALL.n_initial + 1)
        session, broker = _start_session(mm, sequential_plan(5), config=config)
        while (batch := session.ask(2)):
            for request in batch:
                session.tell(broker.measure(request))
        assert session.done
        assert session.ask(2) == []
        assert session.ask() is None


def _tiny_scale(**overrides):
    scale = ExperimentScale.smoke()
    learner = dataclasses.replace(
        scale.learner,
        max_training_examples=14,
        tree_particles=6,
        n_candidates=12,
        reference_size=8,
        evaluation_interval=4,
    )
    params = dict(benchmarks=("mm",), repetitions=1, learner=learner)
    params.update(overrides)
    return dataclasses.replace(scale, **params)


class TestBatchAcquisitionArtifact:
    def test_in_memory_arm_covers_the_full_grid(self):
        result = run_artifacts(_tiny_scale(), ["batch-acquisition"])[
            "batch-acquisition"
        ]
        variants = {row.variant for row in result.rows}
        assert variants == {
            f"k{k}-{s}" for k in (1, 2, 5) for s in BATCH_STRATEGIES
        }
        reference_rows = [
            row for row in result.rows if row.variant == "k1-greedy-alc-fantasy"
        ]
        assert all(row.cost_ratio_vs_reference == 1.0 for row in reference_rows)
        rendered = result.render()
        assert "batch strategy" in rendered and "k5-diversity-penalty" in rendered

    def test_sharded_runner_runs_the_arm_end_to_end(self, tmp_path):
        report = run_paper_run(
            _tiny_scale(),
            run_dir=tmp_path / "run",
            artifacts=["batch-acquisition"],
            checkpoint_interval=5,
            progress=lambda line: None,
        )
        assert "Batch acquisition ablation" in report or "batch strategy" in report

    @pytest.mark.parametrize("strategy", BATCH_STRATEGIES)
    def test_run_driver_completes_with_batches(self, mm, strategy):
        learner = ActiveLearner(
            mm,
            plan=sequential_plan(5),
            acquisition=make_acquisition(strategy),
            config=SMALL,
            rng=np.random.default_rng(9),
        )
        result = learner.run(_test_set(mm), batch_size=5)
        assert result.training_examples == SMALL.max_training_examples
        assert result.curve.points[-1].training_examples == SMALL.max_training_examples
