"""Chaos tests of the fault-tolerant measurement pipeline.

Pins the robustness contracts of :mod:`repro.measurement.faults` and the
graceful-degradation path of the sharded runner:

* :class:`FaultPlan` — the ``--inject-faults`` mini-language round-trips
  and rejects malformed specs;
* :class:`FaultInjectingBroker` — faults are deterministic, bounded per
  request, and (crash excepted) fire before the wrapped broker, so a
  faulted attempt consumes nothing from the profiler's noise stream;
* :class:`ResilientBroker` — bounded retries with seeded exponential
  backoff, per-request deadlines, prior-statistics outlier rejection and
  dead-letter records;
* the headline **bit-identity contract**: a learner run under transient
  faults plus retries produces the exact trajectory of a fault-free run —
  in process, under a per-run random chaos seed, and end-to-end through
  ``run_all --paper-run`` with a SIGKILL'd worker and ``--resume``;
* **graceful degradation**: permanently failing units are quarantined
  after ``--max-unit-attempts`` and the run still completes, folding the
  survivors and listing the casualties.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.core.session import TuningSession
from repro.measurement.broker import (
    MeasurementRequest,
    MeasurementResult,
    ProfilerBroker,
)
from repro.measurement.faults import (
    BrokerPolicy,
    CorruptMeasurementError,
    FaultInjectingBroker,
    FaultPlan,
    MeasurementFailedError,
    MeasurementTimeoutError,
    ResilientBroker,
    TransientMeasurementError,
)
from repro.measurement.profiler import Profiler
from repro.measurement.stats import RunningStats
from repro.spapt.suite import get_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _request(prior=None, repetitions=1, configuration=(1, 2, 3)):
    return MeasurementRequest(
        benchmark="mm",
        configuration=configuration,
        repetitions=repetitions,
        prior_stats=prior,
    )


def _prior(values):
    stats = RunningStats()
    for value in values:
        stats.add(value)
    return stats


class StubBroker:
    """Scriptable inner broker: fail N times, then serve a fixed runtime."""

    def __init__(self, runtime=1.0, failures=0, hang=0.0):
        self.runtime = runtime
        self.failures = failures
        self.hang = hang
        self.calls = 0

    def measure(self, request):
        self.calls += 1
        if self.hang:
            time.sleep(self.hang)
        if self.failures > 0:
            self.failures -= 1
            raise TransientMeasurementError("scripted failure")
        return MeasurementResult(
            configuration=request.configuration,
            runtimes=(self.runtime,) * request.repetitions,
        )


class TestResultBoundary:
    """Satellite pin: MeasurementResult construction is the sanity gate."""

    def test_rejects_nan_runtime(self):
        with pytest.raises(ValueError, match="finite positive"):
            MeasurementResult(configuration=(1,), runtimes=(float("nan"),))

    def test_rejects_infinite_runtime(self):
        with pytest.raises(ValueError, match="finite positive"):
            MeasurementResult(configuration=(1,), runtimes=(float("inf"),))

    def test_rejects_negative_and_zero_runtimes(self):
        with pytest.raises(ValueError, match="finite positive"):
            MeasurementResult(configuration=(1,), runtimes=(-0.5,))
        with pytest.raises(ValueError, match="finite positive"):
            MeasurementResult(configuration=(1,), runtimes=(1.0, 0.0))

    def test_rejects_bad_compile_charges(self):
        with pytest.raises(ValueError, match="compile charge"):
            MeasurementResult(
                configuration=(1,), runtimes=(1.0,), compile_seconds=(-1.0,)
            )
        with pytest.raises(ValueError, match="compile charge"):
            MeasurementResult(
                configuration=(1,),
                runtimes=(1.0,),
                compile_seconds=(float("nan"),),
            )

    def test_accepts_sane_values(self):
        result = MeasurementResult(
            configuration=(1,), runtimes=(0.5, 1.5), compile_seconds=(0.0, 2.0)
        )
        assert result.runtimes == (0.5, 1.5)


class TestFaultPlan:
    def test_parse_and_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7,transient=0.2,timeout=0.1,corrupt=0.05,crash=0.01,"
            "hang=0.02,max-faults=3,fail-units=a+b"
        )
        assert plan.seed == 7
        assert plan.transient_rate == 0.2
        assert plan.timeout_rate == 0.1
        assert plan.corrupt_rate == 0.05
        assert plan.crash_rate == 0.01
        assert plan.hang_seconds == 0.02
        assert plan.max_faults_per_request == 3
        assert plan.fail_units == ("a", "b")
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_default_plan_round_trips(self):
        assert FaultPlan.parse(FaultPlan().to_spec()) == FaultPlan()

    @pytest.mark.parametrize(
        "spec",
        [
            "transient=1.5",
            "transient=-0.1",
            "transient=0.6,timeout=0.6",
            "bogus=1",
            "transient",
            "hang=-1",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_broker_policy_validates_eagerly(self):
        with pytest.raises(ValueError):
            BrokerPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            BrokerPolicy(measure_timeout=0.0)
        with pytest.raises(ValueError):
            BrokerPolicy(inject_faults="bogus=1")
        assert not BrokerPolicy().active
        assert BrokerPolicy(max_retries=2).active


class TestFaultInjectingBroker:
    def test_fault_schedule_is_deterministic(self):
        plan = FaultPlan(seed=11, transient_rate=0.3, timeout_rate=0.2,
                         corrupt_rate=0.2, max_faults_per_request=1)

        def outcomes():
            broker = FaultInjectingBroker(StubBroker(), plan,
                                          sleep=lambda s: None)
            seen = []
            for i in range(40):
                request = _request(configuration=(i,))
                try:
                    broker.measure(request)
                    seen.append("ok")
                except TransientMeasurementError as exc:
                    seen.append(type(exc).__name__)
            return seen, dict(broker.injected)

        first, first_counts = outcomes()
        second, second_counts = outcomes()
        assert first == second
        assert first_counts == second_counts
        assert sum(first_counts.values()) > 0

    def test_faults_fire_before_the_inner_broker(self):
        stub = StubBroker()
        plan = FaultPlan(transient_rate=1.0, max_faults_per_request=2)
        broker = FaultInjectingBroker(stub, plan)
        request = _request()
        for _ in range(2):
            with pytest.raises(TransientMeasurementError):
                broker.measure(request)
        assert stub.calls == 0  # faulted attempts consumed nothing
        result = broker.measure(request)  # per-request budget exhausted
        assert result.runtimes == (1.0,)
        assert stub.calls == 1
        assert broker.injected == {"transient": 2}

    def test_crash_fault_measures_then_loses_the_result(self):
        stub = StubBroker()
        plan = FaultPlan(crash_rate=1.0, max_faults_per_request=1)
        broker = FaultInjectingBroker(stub, plan)
        with pytest.raises(TransientMeasurementError):
            broker.measure(_request())
        assert stub.calls == 1  # the crash consumed a real measurement
        broker.measure(_request())
        assert stub.calls == 2

    def test_fail_units_are_permanent(self):
        stub = StubBroker()
        plan = FaultPlan(fail_units=("r001",))
        broker = FaultInjectingBroker(stub, plan,
                                      unit="table1--mm--plan--r001")
        for _ in range(10):
            with pytest.raises(TransientMeasurementError):
                broker.measure(_request())
        assert stub.calls == 0
        unaffected = FaultInjectingBroker(StubBroker(), plan,
                                          unit="table1--mm--plan--r000")
        assert unaffected.measure(_request()).runtimes == (1.0,)

    def test_corrupt_without_prior_is_rejected_at_the_boundary(self):
        plan = FaultPlan(corrupt_rate=1.0, max_faults_per_request=1)
        broker = FaultInjectingBroker(StubBroker(), plan)
        with pytest.raises(CorruptMeasurementError):
            broker.measure(_request(prior=None))

    def test_corrupt_with_prior_can_fabricate_detectable_outliers(self):
        prior = _prior([1.0, 1.1, 0.9])
        fabricated = []
        for seed in range(30):
            plan = FaultPlan(seed=seed, corrupt_rate=1.0,
                             max_faults_per_request=1)
            broker = FaultInjectingBroker(StubBroker(), plan)
            try:
                result = broker.measure(_request(prior=prior))
            except CorruptMeasurementError:
                continue
            fabricated.append(result)
        assert fabricated  # some seeds choose the outlier mode
        for result in fabricated:
            # Every fabricated outlier is far outside the resilient
            # wrapper's 20x rejection band — always detectable downstream.
            assert all(r > prior.mean * 20 for r in result.runtimes)


class TestResilientBroker:
    def test_retries_until_success_with_bounded_backoff(self):
        stub = StubBroker(failures=2)
        delays = []
        broker = ResilientBroker(
            stub,
            max_retries=3,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=0.5,
            backoff_jitter=0.25,
            sleep=delays.append,
        )
        result = broker.measure(_request())
        assert result.runtimes == (1.0,)
        assert stub.calls == 3
        assert broker.retries == 2
        assert len(delays) == 2
        for attempt, delay in enumerate(delays):
            base = min(0.1 * 2.0 ** attempt, 0.5)
            assert base <= delay <= base * 1.25

    def test_backoff_schedule_is_seeded(self):
        def delays(seed):
            stub = StubBroker(failures=3)
            recorded = []
            broker = ResilientBroker(stub, max_retries=3, seed=seed,
                                     sleep=recorded.append)
            broker.measure(_request())
            return recorded

        assert delays(5) == delays(5)
        assert delays(5) != delays(6)

    def test_exhausted_retries_dead_letter(self, tmp_path):
        dead_path = tmp_path / "dead-letters.jsonl"
        stub = StubBroker(failures=100)
        broker = ResilientBroker(
            stub,
            max_retries=2,
            sleep=lambda s: None,
            dead_letter_path=dead_path,
            unit="table1--mm--plan--r000",
        )
        with pytest.raises(MeasurementFailedError) as excinfo:
            broker.measure(_request())
        assert stub.calls == 3  # 1 + max_retries
        record = excinfo.value.dead_letter
        assert record["unit"] == "table1--mm--plan--r000"
        assert record["benchmark"] == "mm"
        assert len(record["attempts"]) == 3
        assert broker.dead_letters == [record]
        lines = dead_path.read_text("utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [record]

    def test_failed_error_round_trips_through_pickle(self):
        """A pool worker's unit error reaches the parent pickled, so the
        error must unpickle with its dead-letter record intact."""
        record = {"unit": "table1--mm--plan--r001", "attempts": ["boom"]}
        error = MeasurementFailedError("measurement failed", record)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is MeasurementFailedError
        assert str(copy) == "measurement failed"
        assert copy.dead_letter == record

    def test_deadline_times_out_a_hanging_measurement(self):
        stub = StubBroker(hang=0.5)
        broker = ResilientBroker(stub, max_retries=1, timeout=0.05,
                                 sleep=lambda s: None)
        with pytest.raises(MeasurementFailedError) as excinfo:
            broker.measure(_request())
        assert broker.timeouts == 2
        assert any(
            "MeasurementTimeoutError" in attempt
            for attempt in excinfo.value.dead_letter["attempts"]
        )

    def test_deadline_passes_a_fast_measurement(self):
        broker = ResilientBroker(StubBroker(), timeout=30.0)
        assert broker.measure(_request()).runtimes == (1.0,)
        assert broker.timeouts == 0

    def test_injected_timeout_is_retried(self):
        plan = FaultPlan(seed=3, timeout_rate=1.0, hang_seconds=0.0,
                         max_faults_per_request=1)
        stub = StubBroker()
        chain = ResilientBroker(
            FaultInjectingBroker(stub, plan), max_retries=2,
            sleep=lambda s: None,
        )
        with pytest.raises(MeasurementTimeoutError):
            FaultInjectingBroker(StubBroker(), plan).measure(_request())
        assert chain.measure(_request()).runtimes == (1.0,)
        assert chain.retries == 1
        assert stub.calls == 1

    def test_outlier_rejected_against_prior_statistics(self):
        prior = _prior([1.0, 1.1, 0.9])
        broker = ResilientBroker(StubBroker(runtime=100.0), max_retries=1,
                                 sleep=lambda s: None)
        with pytest.raises(MeasurementFailedError):
            broker.measure(_request(prior=prior))
        assert broker.rejections == 2
        sane = ResilientBroker(StubBroker(runtime=1.2))
        assert sane.measure(_request(prior=prior)).runtimes == (1.2,)
        assert sane.rejections == 0

    def test_no_prior_means_no_outlier_check(self):
        broker = ResilientBroker(StubBroker(runtime=100.0))
        assert broker.measure(_request(prior=None)).runtimes == (100.0,)


class TestSessionAbandon:
    def _session(self, seed=2017):
        benchmark = get_benchmark("mm")
        config = LearnerConfig(
            n_initial=4,
            seed_observations=2,
            n_candidates=8,
            max_training_examples=10,
            reference_size=6,
            evaluation_interval=5,
            tree_particles=6,
        )
        test_set = build_test_set(
            benchmark, size=12, observations=2,
            rng=np.random.default_rng(seed + 1),
        )
        session = TuningSession(
            benchmark,
            plan=sequential_plan(),
            config=config,
            rng=np.random.default_rng(seed),
            test_set=test_set,
        )
        return session, ProfilerBroker(Profiler(benchmark, rng=session.rng))

    def test_abandon_makes_the_session_re_askable(self):
        session, broker = self._session()
        request = session.ask()
        assert request is not None
        with pytest.raises(RuntimeError, match="outstanding"):
            session.ask()  # a pending request blocks further asks...
        session.abandon()
        request = session.ask()  # ...abandoning clears it
        assert request is not None
        # The session is uncorrupted: drive it to a clean completion.
        session.tell(broker.measure(request))
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        result = session.result()
        assert result.curve.points

    def test_abandon_drops_a_partially_measured_batch(self):
        session, broker = self._session()
        requests = session.ask(2)
        assert len(requests) == 2
        session.tell(broker.measure(requests[0]))
        session.abandon()
        assert session.pending_requests == []
        ledger_total = session.ledger.total_seconds
        requests = session.ask(2)
        assert requests
        # The parked partial result was dropped, not folded.
        assert session.ledger.total_seconds == ledger_total


class _CapturedChain:
    """Broker factory capturing the wrappers for post-run assertions."""

    def __init__(self, plan, max_retries=4):
        self.plan = plan
        self.max_retries = max_retries
        self.injector = None
        self.resilient = None

    def __call__(self, base, rng):
        self.injector = FaultInjectingBroker(base, self.plan,
                                             sleep=lambda s: None)
        self.resilient = ResilientBroker(
            self.injector, max_retries=self.max_retries,
            sleep=lambda s: None,
        )
        return self.resilient


class TestBitIdentity:
    """Transient faults plus retries are invisible to the learner."""

    def _run(self, broker_factory=None, seed=2017):
        benchmark = get_benchmark("mm")
        config = LearnerConfig(
            n_initial=4,
            seed_observations=4,
            n_candidates=12,
            max_training_examples=20,
            reference_size=8,
            evaluation_interval=5,
            tree_particles=6,
        )
        test_set = build_test_set(
            benchmark, size=30, observations=3,
            rng=np.random.default_rng(seed + 1),
        )
        learner = ActiveLearner(
            benchmark,
            plan=sequential_plan(),
            config=config,
            rng=np.random.default_rng(seed),
        )
        return learner.run(test_set, broker_factory=broker_factory)

    def _assert_identical(self, baseline, chaotic):
        assert len(baseline.curve.points) == len(chaotic.curve.points)
        for expected, actual in zip(baseline.curve.points,
                                    chaotic.curve.points):
            assert expected.cost_seconds == actual.cost_seconds
            assert expected.rmse == actual.rmse
        assert baseline.ledger.total_seconds == chaotic.ledger.total_seconds
        assert baseline.observation_counts == chaotic.observation_counts

    def test_transient_faults_are_invisible(self):
        baseline = self._run()
        chain = _CapturedChain(
            FaultPlan(seed=13, transient_rate=0.2, timeout_rate=0.15,
                      corrupt_rate=0.15, hang_seconds=0.0,
                      max_faults_per_request=2)
        )
        chaotic = self._run(broker_factory=chain)
        assert sum(chain.injector.injected.values()) > 0
        assert chain.resilient.retries > 0
        self._assert_identical(baseline, chaotic)

    def test_bit_identity_holds_for_a_random_chaos_seed(self, chaos_seed):
        """The per-run property: ANY fault schedule of transient faults
        must be invisible (the seed is echoed in the pytest header)."""
        baseline = self._run()
        chain = _CapturedChain(
            FaultPlan(seed=chaos_seed, transient_rate=0.25,
                      timeout_rate=0.15, corrupt_rate=0.15,
                      hang_seconds=0.0, max_faults_per_request=2)
        )
        chaotic = self._run(broker_factory=chain)
        self._assert_identical(baseline, chaotic)


def _run_all_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_all_command(run_dir, report, extra=(), resume=False,
                     repetitions="1"):
    argv = [
        sys.executable,
        "-m",
        "repro.experiments.run_all",
        "--paper-run",
        "--scale",
        "smoke",
        "--only",
        "table1",
        "--repetitions",
        repetitions,
        "--checkpoint-interval",
        "3",
        "--run-dir",
        str(run_dir),
        "--output",
        str(report),
        *extra,
    ]
    if resume:
        argv.append("--resume")
    return argv


def _report_body(path):
    # Drop the header section, which names the run directory.
    return path.read_text("utf-8").split("\n\n", 1)[1]


_CHAOS_FLAGS = (
    "--max-retries",
    "5",
    "--measure-timeout",
    "30",
    "--inject-faults",
    "seed=7,transient=0.2,timeout=0.1,corrupt=0.1,hang=0.005,max-faults=2",
)


class TestChaosEndToEnd:
    """The acceptance pins: smoke-scale ``run_all --paper-run`` chaos."""

    def test_chaos_run_with_kill_is_bit_identical(self, tmp_path):
        """Transient faults + retries + one SIGKILL'd worker + --resume
        produce a report byte-identical to a clean, fault-free run."""
        env = _run_all_env()
        clean_report = tmp_path / "clean.txt"
        subprocess.run(
            _run_all_command(tmp_path / "clean", clean_report),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )

        chaos_dir = tmp_path / "chaos"
        chaos_report = tmp_path / "chaos.txt"
        process = subprocess.Popen(
            _run_all_command(chaos_dir, chaos_report, extra=_CHAOS_FLAGS),
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        results_dir = chaos_dir / "results"
        checkpoints_dir = chaos_dir / "checkpoints"
        deadline = time.monotonic() + 300
        try:
            # Kill once demonstrably mid-flight: a published unit or an
            # in-flight checkpoint exists.
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail("chaos run finished before it could be killed")
                published = (
                    len(list(results_dir.glob("*.pkl")))
                    if results_dir.is_dir()
                    else 0
                )
                checkpointed = (
                    len(list(checkpoints_dir.glob("*.pkl")))
                    if checkpoints_dir.is_dir()
                    else 0
                )
                if published >= 1 or checkpointed >= 1:
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=60)

        resumed = subprocess.run(
            _run_all_command(chaos_dir, chaos_report, extra=_CHAOS_FLAGS,
                             resume=True),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )
        assert chaos_report.exists(), resumed.stderr.decode()
        assert _report_body(chaos_report) == _report_body(clean_report)

    def test_permanent_faults_quarantine_and_degrade_gracefully(
        self, tmp_path
    ):
        """Units whose every measurement fails are quarantined after
        --max-unit-attempts and the run completes with a partial report
        enumerating them."""
        env = _run_all_env()
        run_dir = tmp_path / "quarantine"
        report = tmp_path / "quarantine.txt"
        completed = subprocess.run(
            _run_all_command(
                run_dir,
                report,
                repetitions="2",
                extra=(
                    "--max-retries",
                    "1",
                    "--max-unit-attempts",
                    "2",
                    "--inject-faults",
                    "fail-units=r001",
                ),
            ),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )
        text = report.read_text("utf-8")
        assert "PARTIAL RESULT" in text, completed.stderr.decode()
        assert "Quarantined units" in text

        failures = sorted((run_dir / "failed").glob("*.json"))
        quarantined = [
            json.loads(path.read_text("utf-8"))
            for path in failures
            if path.name != "dead-letters.jsonl"
        ]
        assert quarantined
        for record in quarantined:
            assert "r001" in record["unit"]
            assert record["quarantined"] is True
            assert len(record["attempts"]) == 2
            assert record["attempts"][-1]["error"]
        # Every permanently failed request left a dead-letter record.
        dead_path = run_dir / "failed" / "dead-letters.jsonl"
        assert dead_path.exists()
        assert any(
            json.loads(line)["unit"] and "r001" in json.loads(line)["unit"]
            for line in dead_path.read_text("utf-8").splitlines()
        )
