"""Ask/tell :class:`TuningSession` and the measurement-broker layer.

The load-bearing guarantees:

* **bit-identity** — the inverted ask/tell loop reproduces the
  pre-refactor inline loop exactly (curve, cost ledger, observation
  counts, RNG stream) for every sampling plan, pinned against a frozen
  copy of the old loop kept in this file;
* **resume** — a mid-session pickle resumed through ``ActiveLearner.run``
  continues the trajectory bit-for-bit, from any checkpoint;
* **ask(k) rounds** — out-of-order ``tell()`` arrival folds in ask order,
  a session pickled with a round partially answered resumes with the same
  pending requests, and a round holds distinct configurations, truncated
  at the example budget and the phase boundary;
* **replay** — a :class:`ReplayBroker` over a recorded trace serves a
  repeated run without a single live ``Profiler.measure`` call, and the
  registry's ``replay_trace`` plumbing re-scores ablation arms from a
  recorded table1 trace;
* **unit isolation** — trace records are namespaced by the recording
  unit's identity: units sharing a trace directory never replay each
  other's observations implicitly, and a session's RNG / drift-noise
  state is only ever restored from records that same unit wrote.
  Cross-unit serving happens solely through the explicit re-scoring mode
  (``rescore_from``), which shares observations but never state.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.acquisition import make_acquisition
from repro.core.curves import CurvePoint, LearningCurve
from repro.core.candidates import CandidatePool
from repro.core.evaluation import build_test_set, evaluate_rmse
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import adaptive_ci_plan, fixed_plan, sequential_plan
from repro.core.session import DONE, LEARNING, SEEDING, TuningSession
from repro.measurement.broker import (
    MeasurementRequest,
    MeasurementResult,
    ProfilerBroker,
    ReplayBroker,
    ReplayMissError,
    ReplayTrace,
)
from repro.measurement.profiler import Profiler
from repro.measurement.stats import RunningStats
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


def _drive_batched(mm, plan, k, acquisition=None, seed=777, tell_order=None):
    """Drive a session with ask(k); measure in ask order, tell in
    ``tell_order`` (a permutation function of the round length)."""
    session, broker = _start_session(mm, plan, acquisition, seed)
    order = tell_order if tell_order is not None else lambda n: range(n)
    while True:
        requests = session.ask(k)
        if not requests:
            break
        results = [broker.measure(request) for request in requests]
        for index in order(len(results)):
            session.tell(results[index])
    return _fingerprint(session.result()), session.rng.bit_generator.state


def _reference_run(benchmark, plan, config, test_set, rng):
    """Frozen copy of the pre-refactor inline loop (Algorithm 1).

    This is the loop :class:`TuningSession` replaced, kept verbatim (minus
    checkpointing) so the ask/tell refactor stays pinned to the exact
    trajectory — same RNG draw order, same ledger arithmetic — it inverted.
    Returns ``(fingerprint, rng)`` so callers can also compare the final
    generator state.
    """
    from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor

    space = benchmark.search_space
    profiler = Profiler(benchmark, rng=rng)
    pool = CandidatePool(
        space,
        max_observations=plan.max_observations_per_example,
        revisit=plan.revisit,
    )
    model = DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=config.tree_particles),
        rng=np.random.default_rng(rng.integers(2 ** 63)),
    )
    curve = LearningCurve(plan.name)

    def record_point(training_examples):
        curve.add(
            CurvePoint(
                cost_seconds=profiler.ledger.total_seconds,
                rmse=evaluate_rmse(model, test_set),
                training_examples=training_examples,
                observations=profiler.ledger.executions,
            )
        )

    n_seed = min(config.n_initial, space.size)
    seed_configurations = space.sample_distinct(n_seed, rng)
    seed_features = benchmark.features_many(seed_configurations)
    seed_targets = []
    for configuration in seed_configurations:
        profiler.measure(configuration, repetitions=config.seed_observations)
        pool.record(configuration, config.seed_observations)
        seed_targets.append(profiler.mean_runtime(configuration))
    model.fit(seed_features, np.asarray(seed_targets))
    record_point(n_seed)
    training_examples = n_seed

    for iteration in range(n_seed, config.max_training_examples):
        if (
            config.max_cost_seconds is not None
            and profiler.ledger.total_seconds >= config.max_cost_seconds
        ):
            break
        if pool.exhausted():
            break
        candidates = pool.draw_featurized(config.n_candidates, rng)[0]
        if not candidates:
            break
        candidate_features = benchmark.features_many(candidates)
        size = min(config.reference_size, candidate_features.shape[0])
        indices = rng.choice(candidate_features.shape[0], size=size, replace=False)
        # ALC: the lowest expected average variance wins, with candidates
        # within a 1e-12 relative band of the best drawn from uniformly.
        scores = -np.asarray(
            model.expected_average_variance(candidate_features, indices)
        )
        best = float(scores.max())
        ties = np.flatnonzero(scores >= best - 1e-12 * abs(best))
        chosen = candidates[int(rng.choice(ties))]

        observations = list(
            profiler.measure(chosen, repetitions=plan.observations_per_selection)
        )
        if plan.ci_threshold is not None:
            already = profiler.observation_count(chosen)
            while (
                already < plan.max_observations_per_example
                and not profiler.summary(chosen).passes_ci_validation(
                    plan.ci_threshold
                )
            ):
                observations.extend(profiler.measure(chosen, repetitions=1))
                already += 1
        observations = np.asarray(observations)
        pool.record(chosen, len(observations))
        chosen_features = benchmark.features(chosen)
        if plan.aggregate_mean:
            model.update(chosen_features, float(np.mean(observations)))
        else:
            for observation in observations:
                model.update(chosen_features, float(observation))
        training_examples = iteration + 1
        if (
            (training_examples - n_seed) % config.evaluation_interval == 0
            or training_examples == config.max_training_examples
        ):
            record_point(training_examples)

    if not curve.points or curve.points[-1].training_examples != training_examples:
        record_point(training_examples)

    fingerprint = (
        [
            (p.cost_seconds, p.rmse, p.training_examples, p.observations)
            for p in curve.points
        ],
        (
            profiler.ledger.compile_seconds,
            profiler.ledger.runtime_seconds,
            profiler.ledger.compilations,
            profiler.ledger.executions,
        ),
        pool.observation_counts,
        training_examples,
    )
    return fingerprint, rng


class TestBitIdentity:
    """The inverted loop vs the frozen pre-refactor loop, per plan."""

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_ask_tell_matches_reference_loop(self, mm, plan_name):
        plan = PLANS[plan_name]()
        expected, reference_rng = _reference_run(
            mm, plan, SMALL, _test_set(mm), np.random.default_rng(777)
        )

        learner = ActiveLearner(
            mm, plan=PLANS[plan_name](), config=SMALL,
            rng=np.random.default_rng(777),
        )
        session = learner.start_session(_test_set(mm))
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        result = session.result()

        assert _fingerprint(result) == expected
        # Same number of draws in the same order: the generators end in
        # bit-identical states.
        assert (
            session.rng.bit_generator.state == reference_rng.bit_generator.state
        )

    @pytest.mark.parametrize("plan_name", ["fixed1", "sequential"])
    def test_session_reads_features_from_the_search_space_only(self, mm, plan_name):
        """A program with only ``search_space`` beyond the profiler's
        protocol (no ``features``/``features_many``) runs the same trajectory."""

        class ProtocolOnly:
            name = mm.name
            search_space = mm.search_space
            true_runtime = mm.true_runtime
            compile_time = mm.compile_time
            noise_sensitivity = mm.noise_sensitivity
            noise_model = mm.noise_model
            restore_noise_model = mm.restore_noise_model

        expected, reference_rng = _reference_run(
            mm, PLANS[plan_name](), SMALL, _test_set(mm), np.random.default_rng(778)
        )
        program = ProtocolOnly()
        session = TuningSession(
            program, plan=PLANS[plan_name](), config=SMALL,
            rng=np.random.default_rng(778), test_set=_test_set(mm),
        )
        broker = ProfilerBroker(Profiler(program, rng=session.rng))
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        assert _fingerprint(session.result()) == expected
        assert session.rng.bit_generator.state == reference_rng.bit_generator.state

    def test_learner_run_is_the_same_driver(self, mm):
        """``ActiveLearner.run`` is a thin ask/measure/tell wrapper."""
        manual_learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(777),
        )
        session = manual_learner.start_session(_test_set(mm))
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        manual = _fingerprint(session.result())

        run_learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(777),
        )
        assert _fingerprint(run_learner.run(_test_set(mm))) == manual

    def test_learner_instance_is_stateless(self, mm):
        """Running twice gives identical results; the caller's generator
        is never consumed (the session owns a deep copy)."""
        rng = np.random.default_rng(777)
        before = rng.bit_generator.state
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL, rng=rng
        )
        first = _fingerprint(learner.run(_test_set(mm)))
        second = _fingerprint(learner.run(_test_set(mm)))
        assert first == second
        assert rng.bit_generator.state == before


class TestSessionProtocol:
    def _session(self, mm, plan=None):
        learner = ActiveLearner(
            mm,
            plan=plan if plan is not None else sequential_plan(5),
            config=SMALL,
            rng=np.random.default_rng(7),
        )
        return learner.start_session(_test_set(mm))

    def test_phases(self, mm):
        session = self._session(mm)
        assert session.phase == SEEDING
        assert not session.done
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        for _ in range(session.n_seed if session.n_seed else SMALL.n_initial):
            session.tell(broker.measure(session.ask()))
        assert session.phase == LEARNING
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        assert session.phase == DONE
        assert session.done
        # ask() after completion stays None.
        assert session.ask() is None

    def test_batched_ask_returns_a_list_of_requests(self, mm):
        # ask(k > 1) is one top-k acquisition round (TestBatchSemantics
        # and TestFoldDeterminism cover it in depth); at the protocol level
        # it returns a list of distinct-configuration requests.
        session = self._session(mm)
        requests = session.ask(k=2)
        assert isinstance(requests, list) and len(requests) == 2
        assert len({r.configuration for r in requests}) == 2
        with pytest.raises(RuntimeError, match="outstanding"):
            session.ask()

    def test_nonpositive_batch_size_rejected(self, mm):
        session = self._session(mm)
        with pytest.raises(ValueError, match="at least 1"):
            session.ask(k=0)

    def test_ask_with_pending_request_rejected(self, mm):
        session = self._session(mm)
        session.ask()
        with pytest.raises(RuntimeError, match="outstanding"):
            session.ask()

    def test_tell_without_ask_rejected(self, mm):
        session = self._session(mm)
        with pytest.raises(RuntimeError, match="without an outstanding"):
            session.tell(
                MeasurementResult(configuration=(0, 0, 0), runtimes=(1.0,))
            )

    def test_tell_configuration_must_match(self, mm):
        session = self._session(mm)
        request = session.ask()
        wrong = tuple(v + 1 for v in request.configuration)
        with pytest.raises(ValueError, match="configuration"):
            session.tell(MeasurementResult(configuration=wrong, runtimes=(1.0,)))

    def test_result_requires_completion(self, mm):
        session = self._session(mm)
        with pytest.raises(RuntimeError, match="only available once"):
            session.result()

    def test_requests_carry_the_plan_protocol(self, mm):
        plan = adaptive_ci_plan(0.05, max_observations=6)
        session = self._session(mm, plan=plan)
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        # Seeding requests take the seed repetition count, no CI rule.
        request = session.ask()
        assert request.repetitions == SMALL.seed_observations
        assert request.ci_threshold is None
        while session.phase == SEEDING:
            session.tell(broker.measure(request))
            request = session.ask()
        # Learning requests under the CI plan carry the stopping rule.
        assert request.repetitions == plan.observations_per_selection
        assert request.ci_threshold == plan.ci_threshold
        assert request.max_observations == plan.max_observations_per_example

    def test_should_checkpoint_cadence(self, mm):
        session = self._session(mm)
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        fired = []
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
            if session.should_checkpoint(4):
                fired.append(session.training_examples)
        n_seed = session.n_seed
        # Never during or right after seeding; every 4 examples past it.
        assert fired == [n_seed + 4 * k for k in range(1, len(fired) + 1)]
        assert fired, "cadence never fired"


class TestSessionPickle:
    def test_mid_session_resume_is_bit_identical(self, mm):
        baseline_learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(777),
        )
        baseline = _fingerprint(baseline_learner.run(_test_set(mm)))

        blobs = []
        recording = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(777),
        )
        recording.run(
            _test_set(mm),
            checkpoint_interval=4,
            checkpoint_sink=lambda s: blobs.append(
                pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        assert blobs, "no checkpoints emitted"

        for index, blob in enumerate(blobs):
            session = pickle.loads(blob)
            assert isinstance(session, TuningSession)
            resumed = ActiveLearner(
                mm, plan=sequential_plan(5), config=SMALL,
                rng=np.random.default_rng(12345),  # decoy: must be unused
            )
            result = resumed.run(_test_set(mm), resume=session)
            assert _fingerprint(result) == baseline, f"checkpoint {index} diverged"

    @pytest.mark.parametrize("phase", [SEEDING, LEARNING])
    def test_resume_with_a_single_ask_outstanding(self, mm, phase):
        """A session pickled between a plain ``ask()`` and its ``tell()``
        owes exactly that request after loading, and the learner serves it
        through ``pending_requests`` before asking again."""
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(777),
        )
        baseline = _fingerprint(learner.run(_test_set(mm)))

        session = learner.start_session(_test_set(mm))
        broker = ProfilerBroker(Profiler(mm, rng=session.rng))
        session.tell(broker.measure(session.ask()))  # one seed in
        if phase == LEARNING:
            while session.training_examples < SMALL.n_initial + 3:
                session.tell(broker.measure(session.ask()))
        request = session.ask()
        assert session.phase == phase
        clone = pickle.loads(pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL))
        assert [
            (r.configuration, r.repetitions, r.prior_observations)
            for r in clone.pending_requests
        ] == [(request.configuration, request.repetitions, request.prior_observations)]

        resumed = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(12345),  # decoy: must be unused
        )
        assert _fingerprint(resumed.run(_test_set(mm), resume=clone)) == baseline

    def test_resume_rejects_other_plans(self, mm):
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(7),
        )
        blobs = []
        learner.run(
            _test_set(mm),
            checkpoint_interval=4,
            checkpoint_sink=lambda s: blobs.append(pickle.dumps(s)),
        )
        other = ActiveLearner(
            mm, plan=fixed_plan(3), config=SMALL, rng=np.random.default_rng(7)
        )
        with pytest.raises(ValueError, match="checkpoint is for plan"):
            other.run(_test_set(mm), resume=pickle.loads(blobs[0]))

    def test_attach_benchmark_validates_name(self, mm):
        learner = ActiveLearner(
            mm, plan=sequential_plan(5), config=SMALL,
            rng=np.random.default_rng(7),
        )
        session = pickle.loads(pickle.dumps(learner.start_session(_test_set(mm))))
        with pytest.raises(ValueError, match="benchmark"):
            session.attach_benchmark(get_benchmark("adi"))

    def test_foreign_pickle_state_rejected(self):
        session = TuningSession.__new__(TuningSession)
        with pytest.raises(AttributeError, match="incompatible checkpoint"):
            session.__setstate__({"plan_name": "variable", "next_iteration": 9})


class TestFoldDeterminism:
    """Shuffled tell() arrival folds identically to in-order arrival."""

    @pytest.mark.parametrize("strategy", ["alc", "random"])
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
        # k covers the whole seed phase in one round; reversed arrival
        # must not change the seed targets' order.
        in_order = _drive_batched(mm, fixed_plan(3), k=4)
        reversed_order = _drive_batched(
            mm, fixed_plan(3), k=4, tell_order=lambda n: reversed(range(n))
        )
        assert reversed_order == in_order


class TestMidBatchPickle:
    """A session pickled mid-round resumes with the same pending requests."""

    def _advance_to_learning(self, session, broker):
        while session.phase == SEEDING:
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

        clone = pickle.loads(pickle.dumps(session))
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

    @pytest.mark.parametrize("phase", [SEEDING, LEARNING])
    def test_single_ask_pickled_outstanding_resumes_bit_identically(self, mm, phase):
        """A plain ``ask()`` is a round of one: pickled before its tell,
        the clone owes that one request and, measured through
        ``pending_requests``, continues exactly like the original."""
        session, broker = _start_session(mm, sequential_plan(5))
        session.tell(broker.measure(session.ask()))  # one seed in
        if phase == LEARNING:
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


class TestBatchSemantics:
    def test_batch_members_are_distinct_configurations(self, mm):
        for strategy in ("alc", "random"):
            session, broker = _start_session(
                mm, sequential_plan(5), make_acquisition(strategy)
            )
            while session.phase == SEEDING:
                session.tell(broker.measure(session.ask()))
            requests = session.ask(5)
            configurations = [r.configuration for r in requests]
            assert len(set(configurations)) == len(configurations) == 5

    def test_batch_truncates_at_the_example_budget(self, mm):
        config = dataclasses.replace(SMALL, max_training_examples=SMALL.n_initial + 2)
        session, broker = _start_session(mm, sequential_plan(5), config=config)
        while session.phase == SEEDING:
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
        assert session.phase == LEARNING

    def test_duplicate_tell_rejected(self, mm):
        session, broker = _start_session(mm, sequential_plan(5))
        requests = session.ask(3)
        result = broker.measure(requests[0])
        session.tell(result)
        with pytest.raises(ValueError, match="duplicate"):
            session.tell(result)

    def test_foreign_configuration_rejected(self, mm):
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


class TestMeasurementRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementRequest(benchmark="mm", configuration=(1,), repetitions=0)
        with pytest.raises(ValueError):
            MeasurementRequest(
                benchmark="mm", configuration=(1,), repetitions=1,
                ci_threshold=0.05,  # CI rule needs a cap
            )
        with pytest.raises(ValueError):
            MeasurementResult(configuration=(1,), runtimes=())

    def test_configuration_canonicalised(self):
        request = MeasurementRequest(
            benchmark="mm", configuration=np.array([1, 2, 3]), repetitions=2
        )
        assert request.configuration == (1, 2, 3)
        assert all(isinstance(v, int) for v in request.configuration)

    def test_prior_observations(self):
        stats = RunningStats()
        stats.add(1.0)
        stats.add(2.0)
        request = MeasurementRequest(
            benchmark="mm", configuration=(1,), repetitions=1,
            ci_threshold=0.1, max_observations=6, prior_stats=stats,
        )
        assert request.prior_observations == 2
        bare = MeasurementRequest(
            benchmark="mm", configuration=(1,), repetitions=1
        )
        assert bare.prior_observations == 0

    def test_plan_measurement_request_copies_prior_stats(self):
        plan = adaptive_ci_plan(0.05, max_observations=6)
        stats = RunningStats()
        stats.add(3.0)
        request = plan.measurement_request("mm", (1, 2), prior_stats=stats)
        assert request.ci_threshold == plan.ci_threshold
        assert request.max_observations == plan.max_observations_per_example
        assert request.prior_stats is not stats
        stats.add(4.0)
        assert request.prior_stats.count == 1  # snapshot, not a reference


class TestReplay:
    def test_trace_round_trip(self, tmp_path):
        trace = ReplayTrace(tmp_path)
        assert trace.lookup("mm", (1, 2), 0) is None
        trace.record(
            "mm", (1, 2), 0,
            MeasurementResult(
                configuration=(1, 2), runtimes=(0.5, 0.75),
                compile_seconds=(2.0,),
            ),
            rng_state={"state": 1},
        )
        record = trace.lookup("mm", (1, 2), 0)
        assert record["runtimes"] == [0.5, 0.75]
        assert record["compile"] == [2.0]
        assert record["rng_state"] == {"state": 1}
        # First record wins; duplicates are ignored.
        trace.record(
            "mm", (1, 2), 0,
            MeasurementResult(configuration=(1, 2), runtimes=(9.9,)),
        )
        assert trace.lookup("mm", (1, 2), 0)["runtimes"] == [0.5, 0.75]
        # A fresh instance reads the same data back from disk; len counts
        # appended lines (the shadowed duplicate included).
        reread = ReplayTrace(tmp_path)
        assert reread.lookup("mm", (1, 2), 0)["runtimes"] == [0.5, 0.75]
        assert len(reread) == 2

    def test_miss_without_fallback_raises(self, tmp_path):
        broker = ReplayBroker(ReplayTrace(tmp_path))
        with pytest.raises(ReplayMissError):
            broker.measure(
                MeasurementRequest(
                    benchmark="mm", configuration=(1, 2), repetitions=2
                )
            )

    def test_record_then_replay_zero_live_measures(self, mm, tmp_path, monkeypatch):
        test_set = _test_set(mm)

        def run(count, trace_dir):
            learner = ActiveLearner(
                mm, plan=sequential_plan(5), config=SMALL,
                rng=np.random.default_rng(777),
            )
            brokers = []

            def factory(base, rng):
                broker = ReplayBroker(
                    ReplayTrace(trace_dir), fallback=base, rng=rng
                )
                brokers.append(broker)
                return broker

            original = Profiler.measure

            def counting(self, *args, **kwargs):
                count["n"] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(Profiler, "measure", counting)
            try:
                result = learner.run(test_set, broker_factory=factory)
            finally:
                monkeypatch.setattr(Profiler, "measure", original)
            return _fingerprint(result), brokers[0]

        plain = _fingerprint(
            ActiveLearner(
                mm, plan=sequential_plan(5), config=SMALL,
                rng=np.random.default_rng(777),
            ).run(test_set)
        )

        recording_count = {"n": 0}
        recorded, recorder = run(recording_count, tmp_path)
        assert recorded == plain, "recording run diverged from plain run"
        assert recording_count["n"] > 0
        assert recorder.misses > 0 and recorder.hits == 0

        replay_count = {"n": 0}
        replayed, replayer = run(replay_count, tmp_path)
        assert replayed == plain, "replay diverged"
        assert replay_count["n"] == 0, "replay made live Profiler.measure calls"
        assert replayer.misses == 0
        assert replayer.hits == recorder.misses


class _CannedBroker:
    """Deterministic fallback broker: fixed runtimes, counts calls."""

    def __init__(self, runtimes=(0.5, 0.6)):
        self.calls = 0
        self._runtimes = tuple(runtimes)

    def measure(self, request):
        self.calls += 1
        repeats = -(-request.repetitions // len(self._runtimes))
        runtimes = (self._runtimes * repeats)[: request.repetitions]
        return MeasurementResult(
            configuration=request.configuration, runtimes=runtimes
        )


class TestReplayUnitIsolation:
    """The REVIEW fixes: units sharing one trace directory stay
    statistically independent, and no unit ever receives another unit's
    recorded RNG or noise state."""

    REQUEST = dict(benchmark="mm", configuration=(1, 2), repetitions=2)

    def test_units_never_share_records_while_recording(self, tmp_path):
        trace = ReplayTrace(tmp_path)
        first = ReplayBroker(
            trace, fallback=_CannedBroker((0.5, 0.6)),
            unit="table1--u1", artifact="table1",
        )
        first.measure(MeasurementRequest(**self.REQUEST))
        assert first.misses == 1

        # A sibling unit asking for the same (configuration, prior) must
        # measure live — cross-unit reuse would make a recording run
        # statistically different from a live run.
        live = _CannedBroker((0.7, 0.8))
        second = ReplayBroker(
            trace, fallback=live, unit="table1--u2", artifact="table1"
        )
        result = second.measure(MeasurementRequest(**self.REQUEST))
        assert live.calls == 1
        assert (second.hits, second.shared_hits, second.misses) == (0, 0, 1)
        assert result.runtimes == (0.7, 0.8)

        # Each unit replays its own record afterwards.
        for unit, expected in (("table1--u1", (0.5, 0.6)),
                               ("table1--u2", (0.7, 0.8))):
            replayer = ReplayBroker(ReplayTrace(tmp_path), unit=unit)
            replayed = replayer.measure(MeasurementRequest(**self.REQUEST))
            assert replayed.runtimes == expected
            assert replayer.hits == 1

    def test_without_rescore_mode_foreign_records_are_invisible(self, tmp_path):
        trace = ReplayTrace(tmp_path)
        ReplayBroker(
            trace, fallback=_CannedBroker(), unit="table1--u1",
            artifact="table1",
        ).measure(MeasurementRequest(**self.REQUEST))
        lone = ReplayBroker(ReplayTrace(tmp_path), unit="ablation--u1")
        with pytest.raises(ReplayMissError):
            lone.measure(MeasurementRequest(**self.REQUEST))

    def test_rescore_serves_foreign_observations_but_never_state(self, tmp_path):
        trace = ReplayTrace(tmp_path)
        recorder_rng = np.random.default_rng(1)
        recorder_rng.random(5)  # a distinctive mid-run state
        recorder = ReplayBroker(
            trace, fallback=_CannedBroker((0.5, 0.6)), rng=recorder_rng,
            unit="table1--u1", artifact="table1",
        )
        recorder.measure(MeasurementRequest(**self.REQUEST))

        rescorer_rng = np.random.default_rng(2)
        before = rescorer_rng.bit_generator.state
        rescorer = ReplayBroker(
            ReplayTrace(tmp_path), rng=rescorer_rng,
            unit="acquisition-ablation--u1", artifact="acquisition-ablation",
            rescore_from=("table1",),
        )
        result = rescorer.measure(MeasurementRequest(**self.REQUEST))
        assert result.runtimes == (0.5, 0.6)
        assert (rescorer.hits, rescorer.shared_hits, rescorer.misses) == (0, 1, 0)
        # The foreign unit's recorded generator state was NOT injected.
        assert rescorer_rng.bit_generator.state == before
        # Artifacts outside rescore_from stay invisible.
        other = ReplayBroker(
            ReplayTrace(tmp_path), unit="x--u1", artifact="x",
            rescore_from=("figure1",),
        )
        with pytest.raises(ReplayMissError):
            other.measure(MeasurementRequest(**self.REQUEST))

    def test_identical_sibling_unit_measures_live(self, mm, tmp_path, monkeypatch):
        """Two units with bit-identical trajectories recording into one
        trace: the second must re-measure everything (fresh noise draws),
        while a replay under the first unit's own id profiles nothing."""
        test_set = _test_set(mm)
        counts = []

        def run(unit_id):
            count = {"n": 0}
            original = Profiler.measure

            def counting(self, *args, **kwargs):
                count["n"] += 1
                return original(self, *args, **kwargs)

            learner = ActiveLearner(
                mm, plan=sequential_plan(5), config=SMALL,
                rng=np.random.default_rng(777),
            )
            monkeypatch.setattr(Profiler, "measure", counting)
            try:
                result = learner.run(
                    test_set,
                    broker_factory=lambda base, rng: ReplayBroker(
                        ReplayTrace(tmp_path), fallback=base, rng=rng,
                        unit=unit_id, artifact="t",
                    ),
                )
            finally:
                monkeypatch.setattr(Profiler, "measure", original)
            counts.append(count["n"])
            return _fingerprint(result)

        first = run("t--u1")
        second = run("t--u2")
        again = run("t--u1")
        assert first == second == again  # same seed: same trajectory
        assert counts[0] > 0
        assert counts[1] == counts[0], "sibling unit reused recorded data"
        assert counts[2] == 0, "same-unit replay touched the profiler"

    def test_drift_state_recorded_and_restored_same_unit_only(self, tmp_path):
        from repro.measurement.noise import FrequencyDrift, NoiseModel

        model = NoiseModel([FrequencyDrift(step_sigma=0.01)])
        model.restore_drift_state([0.02])
        recorder = ReplayBroker(
            ReplayTrace(tmp_path), fallback=_CannedBroker(),
            rng=np.random.default_rng(3), noise_model=model,
            unit="t--u1", artifact="t",
        )
        recorder.measure(MeasurementRequest(**self.REQUEST))

        # Same unit replaying: the drift walk snaps back to the recorded
        # position, so a live fallback after the hit continues exactly.
        model.restore_drift_state([-0.01])
        replayer = ReplayBroker(
            ReplayTrace(tmp_path), rng=np.random.default_rng(3),
            noise_model=model, unit="t--u1",
        )
        replayer.measure(MeasurementRequest(**self.REQUEST))
        assert model.drift_state() == [0.02]

        # A re-scoring unit serving the same record leaves its own noise
        # model untouched.
        model.restore_drift_state([-0.01])
        foreign = ReplayBroker(
            ReplayTrace(tmp_path), noise_model=model, unit="a--u1",
            artifact="a", rescore_from=("t",),
        )
        foreign.measure(MeasurementRequest(**self.REQUEST))
        assert foreign.shared_hits == 1
        assert model.drift_state() == [-0.01]

    def test_lookup_sees_concurrent_appends(self, tmp_path):
        """A trace instance whose first read found nothing still sees
        records another process appended afterwards (re-read on miss)."""
        first = ReplayTrace(tmp_path)
        assert first.lookup("mm", (1,), 0) is None  # loads (and caches) the file
        second = ReplayTrace(tmp_path)  # a concurrent recorder
        second.record(
            "mm", (1,), 0,
            MeasurementResult(configuration=(1,), runtimes=(0.25,)),
            unit="t--u1", artifact="t",
        )
        found = first.lookup("mm", (1,), 0, unit="t--u1")
        assert found is not None and found["runtimes"] == [0.25]
        assert [r["runtimes"] for r in first.lookup_shared("mm", (1,), 0)] == [[0.25]]


class TestReplayThroughRegistry:
    def test_rescore_ablation_from_table1_trace(self, tmp_path, monkeypatch):
        from repro.core.learner import LearnerConfig as LC
        from repro.experiments.config import ExperimentScale
        from repro.experiments.registry import run_artifacts
        import repro.measurement.broker as broker_mod

        scale = ExperimentScale(
            name="test",
            benchmarks=("mm",),
            learner=LC(
                n_initial=4,
                seed_observations=4,
                n_candidates=12,
                max_training_examples=16,
                reference_size=8,
                evaluation_interval=5,
                tree_particles=6,
            ),
            repetitions=1,
            test_size=20,
            test_observations=2,
            dataset_configurations=20,
            dataset_observations=3,
            figure1_grid=4,
            seed=2017,
        )
        trace_dir = str(tmp_path / "trace")

        plain = run_artifacts(scale, ["table1"])["table1"].render()
        recorded = run_artifacts(scale, ["table1"], replay_trace=trace_dir)
        assert recorded["table1"].render() == plain

        # Replaying table1 never falls back to live measurement.
        def forbidden(self, request):
            raise AssertionError("live measurement during replay")

        monkeypatch.setattr(broker_mod.ProfilerBroker, "measure", forbidden)
        replayed = run_artifacts(scale, ["table1"], replay_trace=trace_dir)
        assert replayed["table1"].render() == plain
        monkeypatch.undo()

        # The ablation arms re-score against the same trace: requests that
        # coincide with recorded table1 measurements (e.g. the alc arm's
        # seeding phase, which shares its run seed with a table1 unit) are
        # served from disk in re-scoring mode, the rest falls back to live
        # profiling and extends the trace under the ablation units' own
        # namespaces.
        import repro.experiments.registry as registry_mod

        created = []

        class SpyBroker(broker_mod.ReplayBroker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(registry_mod, "ReplayBroker", SpyBroker)
        before = len(ReplayTrace(trace_dir))
        ablation = run_artifacts(
            scale, ["acquisition-ablation"], replay_trace=trace_dir
        )
        monkeypatch.undo()
        assert "alc" in ablation["acquisition-ablation"].render()
        assert len(ReplayTrace(trace_dir)) > before
        assert created, "learner units did not build replay brokers"
        assert all(b.unit is not None for b in created)
        assert sum(b.shared_hits for b in created) > 0, (
            "re-scoring mode never served a recorded table1 measurement"
        )
        # Re-scored arms never replay table1 records *exactly* (that would
        # inject the recorded RNG stream into a different strategy's run).
        assert sum(b.misses for b in created) > 0


class TestRunAllFlag:
    def test_replay_trace_threads_to_backends(self, monkeypatch, tmp_path):
        import importlib

        run_all_mod = importlib.import_module("repro.experiments.run_all")

        seen = {}

        def fake_run_artifacts(scale, selected, workers=1, on_result=None,
                               replay_trace=None, profile_dir=None,
                               broker_policy=None):
            seen["memory"] = replay_trace
            return {}

        def fake_run_paper_run(scale, run_dir, **kwargs):
            seen["paper"] = kwargs.get("replay_trace")
            return ""

        monkeypatch.setattr(run_all_mod, "run_artifacts", fake_run_artifacts)
        monkeypatch.setattr(run_all_mod, "run_paper_run", fake_run_paper_run)

        run_all_mod.main(
            ["--only", "table1", "--replay-trace", str(tmp_path), "--output",
             str(tmp_path / "out.txt")]
        )
        assert seen["memory"] == str(tmp_path)

        run_all_mod.main(
            ["--paper-run", "--scale", "smoke",
             "--run-dir", str(tmp_path / "run"),
             "--replay-trace", str(tmp_path),
             "--output", str(tmp_path / "out2.txt")]
        )
        assert seen["paper"] == str(tmp_path)

    def test_replay_trace_rejected_for_paper_scale_smoke(self, tmp_path):
        import importlib

        run_all_mod = importlib.import_module("repro.experiments.run_all")

        with pytest.raises(SystemExit):
            run_all_mod.main(
                ["--paper-scale-smoke", "--replay-trace", str(tmp_path)]
            )
