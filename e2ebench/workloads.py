"""The three end-to-end workloads and the metrics they report.

``paper-mm`` and ``laptop-suite`` drive a closed loop of one client
(``TuningSession.ask`` -> ``ProfilerBroker.measure`` -> ``TuningSession.tell``,
the broker wrapped in a happy-path ``ResilientBroker``); ``sharded-table1``
drives ``run_paper_run`` over the on-disk runner.  Every workload

* derives a fixed set of runs from the seed, a *pass*, whose size does not
  depend on how fast the host or the code is;
* repeats that pass on freshly built inputs until ``--seconds`` have passed
  and a minimum number of passes (learner workloads) or of unit latency
  samples for the tail (``sharded-table1``) exists;
* reports the quality and ledger-based figures of the fixed pass (every
  repeat must reproduce it exactly) and each timing as the best of its
  repeats; set-up time too is timed per component (one benchmark's inputs,
  the manifest) and summed over each component's best repeat, the set-ups
  spread over the whole run;
* times every step in reference seconds, scaled by a calibration kernel
  run right before and after it, so that a slow phase of the host that
  outlasts the repeats cancels out (see ``REFERENCE_KERNEL_S``);
* checks its outputs against references computed here, never taken from
  the code under test.

A traced run executes one pass twice, untraced and then through the
proxies of :mod:`tracing`, and reports the per-layer split of the traced
pass together with the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import pickle
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation import TestSet, build_test_set
from repro.core.learner import LearnerConfig
from repro.core.plans import SamplingPlan, make_plan, standard_plans
from repro.core.session import SEEDING, TuningSession
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import run_artifacts
from repro.experiments.runner import ExperimentRunner, run_paper_run
from repro.measurement.broker import ProfilerBroker
from repro.measurement.faults import (
    BrokerPolicy,
    MeasurementFailedError,
    ResilientBroker,
)
from repro.measurement.profiler import Profiler
from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.spapt.suite import get_benchmark

from tracing import (
    LAYERS,
    TimedBenchmark,
    TimedBroker,
    TimedModel,
    TimedSession,
    Tracer,
    span,
)

#: The benchmark's own code (between layer spans) may take at most this
#: share of the traced wall time; the layers' self times account for the
#: rest.  For ``sharded-table1`` it also bounds how far the derived split
#: (unit-seconds over the worker count plus the runner's own time) may
#: miss the wall of ``run_paper_run``.
RESIDUAL_SHARE = 0.05

#: Retries armed on every broker chain; on the happy path none fire.
MAX_RETRIES = 2

#: Timed set-ups before every pass (the learner workloads' passes use the
#: inputs of the last one); ``sharded-table1`` also sets up as often after
#: its last pass.  Spreading them over the run lets a set-up component's
#: best repeat fall in a quiet second of the host even when whole stretches
#: of it are slow: the median of three set-ups at the start of a run moved
#: by a quarter between two sets of ten runs.
SETUP_REPEATS = 3

#: Observations per held-out configuration: the paper's 35.
TEST_OBSERVATIONS = 35

#: Passes a learner workload makes at least, so that every timing has
#: repeats to take the best of, whatever ``--seconds`` is.
MIN_PASSES = 3

#: The calibration kernel's CPU time in the fast phase of the host the
#: benchmark was tuned on (2 vCPUs of a shared x86-64 VM).  Every timing
#: is reported in reference seconds: measured seconds ×
#: ``REFERENCE_KERNEL_S`` ÷ the mean kernel time measured right before and
#: after the timed step (and, in a sharded pass, at every finished unit).
#: That host switches between a fast and a slow phase, for under a second
#: to minutes at a time, with the learner loop 1.5–1.7× slower in the slow
#: one; the kernel slows with it, so the ratio cancels most of the phase.
REFERENCE_KERNEL_S = 0.0032


# ------------------------------------------------------------------ helpers


class Checks:
    """Correctness checks of one benchmark run."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: List[str] = []

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one input stream of the workload."""
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def derived_seed(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def timed(function, *args):
    """``function(*args)`` and its wall time: (seconds, result)."""
    start = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - start, result


_KERNEL_ROW = np.linspace(0.0, 1.0, 64)


def calibration_kernel() -> None:
    """Fixed interpreter and small-array NumPy work, the learner's mix at
    laptop scale; it calls nothing of the package under test."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    row = _KERNEL_ROW
    for _ in range(300):
        row = np.sort(row + _KERNEL_ROW.mean())[::-1].copy()


def kernel_seconds() -> float:
    """The kernel's CPU time in this thread: a slow phase of the host
    lengthens it, while the runner's worker processes, which take the
    cores from it during a sharded pass, do not."""
    start = time.thread_time()
    calibration_kernel()
    return time.thread_time() - start


def host_scale(*kernels: float) -> float:
    """Reference seconds per measured second of a step timed among these
    kernel runs."""
    return REFERENCE_KERNEL_S / statistics.mean(kernels)


def timed_components(components) -> Tuple[Dict[str, float], list]:
    """Run each ``(label, thunk)`` of a set-up; (reference seconds per
    label, results).  A kernel run separates consecutive components."""
    times: Dict[str, float] = {}
    results = []
    before = kernel_seconds()
    for label, thunk in components:
        seconds, result = timed(thunk)
        after = kernel_seconds()
        times[label] = seconds * host_scale(before, after)
        before = after
        results.append(result)
    return times, results


def best_setup(setups: Sequence[Dict[str, float]]) -> float:
    """Set-up time: every component's best repeat, summed."""
    return sum(min(s[label] for s in setups) for label in setups[0])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def constant_rmse(mean_runtimes: np.ndarray) -> float:
    """RMSE of predicting the test set's own mean for every configuration."""
    values = np.asarray(mean_runtimes, dtype=float)
    return float(np.sqrt(np.mean((values - values.mean()) ** 2)))


def geometric_mean(values: Sequence[float]) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def samples_for_tail(level: float) -> int:
    """Samples needed for at least 10 to lie beyond the ``level`` percentile."""
    return int(math.ceil(10 / (1 - level / 100.0))) + 1


def tail(samples: Sequence[float], level: float) -> Tuple[float, int]:
    """The ``level`` percentile and how many samples lie beyond it."""
    value = float(np.percentile(np.asarray(samples, dtype=float), level))
    return value, sum(1 for s in samples if s > value)


def curve_points(curve) -> Tuple[Tuple[float, float, int, int], ...]:
    return tuple(
        (p.cost_seconds, p.rmse, p.training_examples, p.observations)
        for p in curve.points
    )


def check_curve(checks: Checks, label: str, curve, budget: int,
                ledger_seconds: float) -> None:
    points = curve_points(curve)
    costs = [p[0] for p in points]
    checks.check(
        all(a <= b for a, b in zip(costs, costs[1:])),
        f"{label}: curve cost is not monotone: {costs}",
    )
    checks.check(
        bool(points) and points[-1][2] == budget,
        f"{label}: curve ends at {points[-1][2] if points else 0} examples, "
        f"budget {budget}",
    )
    checks.check(
        bool(points) and math.isclose(costs[-1], ledger_seconds, rel_tol=1e-12),
        f"{label}: final curve cost {costs[-1] if costs else None} != "
        f"ledger {ledger_seconds}",
    )


def check_quality(checks: Checks, label: str, finals: Sequence[float],
                  constants: Sequence[float]) -> None:
    learned = geometric_mean(finals)
    constant = geometric_mean(constants)
    checks.check(
        learned < constant,
        f"{label}: final RMSE {learned:.5g} does not beat the constant "
        f"mean-of-test-set predictor {constant:.5g}",
    )


def build_inputs(name: str, size: int, observations: int,
                 rng: np.random.Generator,
                 tracer: Optional[Tracer] = None) -> Tuple[object, TestSet]:
    """A freshly constructed benchmark and its held-out test set."""
    with span(tracer, "spapt", "construct"):
        benchmark = get_benchmark(name)
    if tracer is not None:
        benchmark = TimedBenchmark(benchmark, tracer)
    with span(tracer, "measurement", "dataset"):
        test_set = build_test_set(benchmark, size=size,
                                  observations=observations, rng=rng)
    return benchmark, test_set


# ------------------------------------------------------- closed-loop client


@dataclass
class RunRecord:
    """One learner run driven by the closed-loop client."""

    label: str
    wall_s: float
    broker_s: float
    decide_s: List[float]
    #: Reference seconds per measured second (see ``REFERENCE_KERNEL_S``).
    scale: float
    examples: int
    ledger_s: float
    final_rmse: float
    constant_rmse: float
    curve: tuple
    requests: int
    failed: int
    retries: int
    dead_letters: int


def closed_loop(session, broker, label: str, tracer: Optional[Tracer] = None):
    """Drive ``session`` to completion against ``broker``.

    Returns (wall, broker seconds, decide latencies, requests, failed
    requests, Σ compile charges, Σ runtimes) as returned by the broker.
    A decide latency is what the measuring client waits between handing in
    one result and receiving the next request: ``tell`` plus ``ask``.  The
    waits between two seed configurations (no model yet, microseconds)
    are left out; the one that fits the model on the seeds is kept.
    """
    compile_total = 0.0
    runtime_total = 0.0
    decide: List[float] = []
    broker_s = 0.0
    requests = failed = 0
    start = time.perf_counter()
    request = session.ask()
    while request is not None:
        requests += 1
        if tracer is not None:
            tracer.request = f"{label}#{requests}"
        t0 = time.perf_counter()
        try:
            result = broker.measure(request)
        except MeasurementFailedError:
            failed += 1
            broker_s += time.perf_counter() - t0
            session.abandon()
            request = session.ask()
            continue
        t1 = time.perf_counter()
        session.tell(result)
        seeding = session.phase == SEEDING
        request = session.ask()
        t2 = time.perf_counter()
        broker_s += t1 - t0
        if not seeding:
            decide.append(t2 - t1)
        for seconds in result.compile_seconds:
            compile_total += seconds
        for seconds in result.runtimes:
            runtime_total += seconds
    wall = time.perf_counter() - start
    return wall, broker_s, decide, requests, failed, compile_total, runtime_total


# ---------------------------------------------------------- learner workloads


@dataclass(frozen=True)
class LearnerWorkload:
    """A closed-loop learner workload over benchmarks × sampling plans."""

    name: str
    benchmarks: Tuple[str, ...]
    plans: Tuple[SamplingPlan, ...]
    config: LearnerConfig
    test_size: int
    tail_level: float


def paper_mm() -> LearnerWorkload:
    return LearnerWorkload(
        name="paper-mm",
        benchmarks=("mm",),
        plans=(make_plan("variable-observations"),),
        # 40 examples give 36 decide steps, the fewest that leave ten
        # beyond a p70 tail.
        config=LearnerConfig.paper_scale(max_training_examples=40),
        test_size=1000,
        tail_level=70.0,
    )


def laptop_suite() -> LearnerWorkload:
    return LearnerWorkload(
        name="laptop-suite",
        # Quiet (mm, lu), noisy (correlation) and frequency-drift (adi,
        # correlation) benchmarks.
        benchmarks=("mm", "lu", "adi", "correlation"),
        plans=tuple(standard_plans()),
        config=ExperimentScale.laptop().learner,
        test_size=250,
        tail_level=99.0,
    )


@dataclass
class LearnerPass:
    """Every run of a learner workload once, on freshly built inputs."""

    setup: Dict[str, float]
    runs: List[RunRecord]

    @property
    def decide_s(self) -> List[float]:
        return [s for r in self.runs for s in r.decide_s]

    @property
    def examples(self) -> int:
        return sum(r.examples for r in self.runs)


class LearnerRunner:
    """Executes a :class:`LearnerWorkload` for one seed."""

    def __init__(self, workload: LearnerWorkload, seed: int, checks: Checks,
                 say: Callable[[str], None]) -> None:
        self.workload = workload
        self.seed = seed
        self.checks = checks
        self.say = say
        self.models: List[TimedModel] = []

    def setup(self, tracer: Optional[Tracer] = None
              ) -> Tuple[Dict[str, float], List[Tuple[object, TestSet]]]:
        """Benchmark construction + held-out test-set profiling, timed per
        benchmark.

        Inputs are rebuilt for every pass: the drift benchmarks carry noise
        state that profiling advances, so only fresh inputs repeat a run.
        """
        return timed_components(
            (name, lambda name=name, index=index: build_inputs(
                name, self.workload.test_size, TEST_OBSERVATIONS,
                derived_rng(self.seed, 0, index), tracer))
            for index, name in enumerate(self.workload.benchmarks)
        )

    def run_one(self, benchmark, test_set: TestSet, bench_index: int,
                plan_index: int, tracer: Optional[Tracer] = None) -> RunRecord:
        workload = self.workload
        plan = workload.plans[plan_index]
        config = workload.config
        label = f"{workload.benchmarks[bench_index]}/{plan.name}"
        model_factory = None
        if tracer is not None:
            def model_factory(rng):
                model = TimedModel(
                    DynamicTreeRegressor(
                        DynamicTreeConfig(
                            n_particles=config.tree_particles,
                            backend=config.tree_backend,
                            float_mode=config.tree_float_mode,
                        ),
                        rng=rng,
                    ),
                    tracer,
                    test_set.features,
                )
                self.models.append(model)
                return model
        session = TuningSession(
            benchmark,
            plan=plan,
            config=config,
            model_factory=model_factory,
            rng=derived_rng(self.seed, 1, bench_index, plan_index),
            test_set=test_set,
        )
        resilient = ResilientBroker(
            ProfilerBroker(Profiler(benchmark, rng=session.rng)),
            max_retries=MAX_RETRIES,
            seed=derived_seed(self.seed, 2, bench_index, plan_index),
        )
        driven_session, broker = session, resilient
        if tracer is not None:
            driven_session = TimedSession(session, tracer)
            broker = TimedBroker(resilient, tracer)
        before = kernel_seconds()
        wall, broker_s, decide, requests, failed, compiles, runtimes = closed_loop(
            driven_session, broker, label, tracer
        )
        scale = host_scale(before, kernel_seconds())
        ledger = session.ledger
        # The session's ledger must equal what the broker handed back.
        self.checks.check(
            math.isclose(ledger.compile_seconds, compiles, rel_tol=1e-12)
            and math.isclose(ledger.runtime_seconds, runtimes, rel_tol=1e-12),
            f"{label}: ledger ({ledger.compile_seconds}, "
            f"{ledger.runtime_seconds}) != broker sums ({compiles}, {runtimes})",
        )
        check_curve(self.checks, label, session.curve,
                    config.max_training_examples, ledger.total_seconds)
        points = curve_points(session.curve)
        return RunRecord(
            label=label,
            wall_s=wall,
            broker_s=broker_s,
            decide_s=decide,
            scale=scale,
            examples=session.training_examples,
            ledger_s=ledger.total_seconds,
            final_rmse=points[-1][1],
            constant_rmse=constant_rmse(test_set.mean_runtimes),
            curve=points,
            requests=requests,
            failed=failed,
            retries=resilient.retries,
            dead_letters=len(resilient.dead_letters),
        )

    def run_pass(self, tracer: Optional[Tracer] = None) -> LearnerPass:
        """Set up, then run every benchmark × plan once."""
        with span(tracer, "bench", "setup"):
            setup, pairs = self.setup(tracer)
        runs = []
        for bench_index, (benchmark, test_set) in enumerate(pairs):
            for plan_index in range(len(self.workload.plans)):
                record = self.run_one(benchmark, test_set, bench_index,
                                      plan_index, tracer)
                self.say(
                    f"run {record.label}: {record.examples} examples, "
                    f"loop {record.wall_s:.3f} s (broker {record.broker_s:.3f} s, "
                    f"{record.scale:.3f} reference s per s), "
                    f"ledger {record.ledger_s:.1f} s, "
                    f"final RMSE {record.final_rmse:.5g} "
                    f"(constant {record.constant_rmse:.5g})"
                )
                runs.append(record)
        return LearnerPass(setup, runs)


def check_same_runs(checks: Checks, first: Sequence[RunRecord],
                    again: Sequence[RunRecord], what: str) -> None:
    """The same seed on fresh inputs must give the same curves."""
    for a, b in zip(first, again):
        checks.check(a.curve == b.curve, f"{a.label}: {what} gave another curve")


def learner_metrics(workload: LearnerWorkload, passes: List[LearnerPass],
                    setups: List[Dict[str, float]], checks: Checks,
                    say: Callable[[str], None]) -> Dict[str, Tuple[float, str]]:
    """Every pass repeats the same runs step for step, so each run's wall
    and each decide step is timed once per pass; each timing, in
    reference seconds, is the best of its repeats.  On a shared host
    other tenants only ever add time, so the best repeat of a step is the
    one they disturbed least.  The simulated profiling seconds are those
    of one pass (every pass charges the same), so ``overhead_pct`` relates
    the learner's time to the ledger of the very runs it was measured
    on."""
    repeats = list(zip(*(p.runs for p in passes)))
    wall = sum(min(r.wall_s * r.scale for r in runs) for runs in repeats)
    learner = sum(
        min((r.wall_s - r.broker_s) * r.scale for r in runs) for runs in repeats
    )
    decide = [
        min(step)
        for runs in repeats
        for step in zip(*([s * r.scale for s in r.decide_s] for r in runs))
    ]
    tail_value, beyond = tail(decide, workload.tail_level)
    say(
        f"decide latency: n={len(decide)} steps, each the best of "
        f"{len(passes)} passes; p50 {np.percentile(decide, 50) * 1e3:.3f} ms, "
        f"p{workload.tail_level:g} {tail_value * 1e3:.3f} ms "
        f"({beyond} samples beyond it)"
    )
    checks.check(beyond >= 10, f"only {beyond} samples beyond the tail")
    first = passes[0]
    return {
        "setup_s": (best_setup(setups), "s"),
        "s_per_example": (wall / first.examples, "s/example"),
        "decide_p50_ms": (1000.0 * statistics.median(decide), "ms"),
        "decide_tail_ms": (tail_value * 1000.0, "ms"),
        "overhead_pct": (
            100.0 * learner / sum(r.ledger_s for r in first.runs), "%"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "final_rmse": (geometric_mean([r.final_rmse for r in first.runs]), "s"),
    }


def run_learner(workload: LearnerWorkload, seed: int, seconds: float,
                checks: Checks, say: Callable[[str], None]) -> dict:
    runner = LearnerRunner(workload, seed, checks, say)
    # One untimed run warms lazy set-up (imports, first touches).
    warm = runner.run_one(*runner.setup()[1][0], 0, 0)
    say(f"warm-up {warm.label}: loop {warm.wall_s:.3f} s")
    passes: List[LearnerPass] = []
    setups: List[Dict[str, float]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(runner.setup()[0])
        passes.append(runner.run_pass())
        setups.append(passes[-1].setup)
        say(f"pass {len(passes)}: setups "
            + ", ".join(f"{sum(s.values()):.4f}" for s in setups[-SETUP_REPEATS:])
            + " s")
    first = passes[0].runs
    check_same_runs(checks, first, [warm], "the warm-up run")
    for later in passes[1:]:
        check_same_runs(checks, first, later.runs, "a repeated pass")
    check_quality(checks, workload.name, [r.final_rmse for r in first],
                  [r.constant_rmse for r in first])
    records = [warm] + [r for p in passes for r in p.runs]
    return {
        "metrics": learner_metrics(workload, passes, setups, checks, say),
        "attempted": sum(r.requests for r in records),
        "failed": sum(r.failed for r in records),
    }


def trace_learner(workload: LearnerWorkload, seed: int, checks: Checks,
                  say: Callable[[str], None], trace_path: pathlib.Path) -> dict:
    """One pass untraced, then the same traced, both after an untimed
    warm-up run."""
    runner = LearnerRunner(workload, seed, checks, say)
    runner.run_one(*runner.setup()[1][0], 0, 0)
    untraced_wall, plain = timed(runner.run_pass)

    tracer = Tracer()
    with tracer.span("bench", "run"):
        traced = runner.run_pass(tracer)
    tracer.write(trace_path)
    check_same_runs(checks, plain.runs, traced.runs, "the traced run")
    records = plain.runs + traced.runs
    checks.check(all(r.failed == 0 for r in records),
                 "a measurement failed on the happy path")
    metrics = layer_metrics(tracer, untraced_wall, checks, say)
    timings: Dict[str, float] = {}
    for model in runner.models:
        for phase, seconds in model.phase_timings.items():
            timings[phase] = timings.get(phase, 0.0) + seconds
    for phase in ("reweight", "resample", "propagate-score", "propagate-apply"):
        metrics[f"models.{phase.replace('-', '_')}_s"] = (timings.get(phase, 0.0), "s")
    metrics["measurement.retries"] = (sum(r.retries for r in traced.runs), "count")
    metrics["measurement.dead_letters"] = (
        sum(r.dead_letters for r in traced.runs), "count"
    )
    return {
        "metrics": metrics,
        "attempted": sum(r.requests for r in records),
        "failed": sum(r.failed for r in records),
    }


# ------------------------------------------------------- per-layer metrics

#: Every per-layer metric with its unit; layers a workload does not
#: exercise report 0.
PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "spapt.self_s": "s",
    "spapt.construct_s": "s",
    "spapt.cost_calls": "count",
    "spapt.cost_cold": "count",
    "spapt.cost_hit_ratio": "ratio",
    "spapt.cost_s": "s",
    "spapt.features_rows": "count",
    "spapt.features_s": "s",
    "measurement.self_s": "s",
    "measurement.requests": "count",
    "measurement.observations": "count",
    "measurement.broker_self_s": "s",
    "measurement.dataset_s": "s",
    "measurement.retries": "count",
    "measurement.dead_letters": "count",
    "core.self_s": "s",
    "core.asks": "count",
    "core.ask_self_s": "s",
    "core.tell_self_s": "s",
    "core.evaluations": "count",
    "core.evaluate_s": "s",
    "models.self_s": "s",
    "models.alc_calls": "count",
    "models.alc_rows": "count",
    "models.alc_s": "s",
    "models.fit_s": "s",
    "models.updates": "count",
    "models.update_s": "s",
    "models.reweight_s": "s",
    "models.resample_s": "s",
    "models.propagate_score_s": "s",
    "models.propagate_apply_s": "s",
    "experiments.self_s": "s",
    "experiments.units": "count",
    "experiments.unit_s": "s",
    "experiments.checkpoint_s": "s",
    "experiments.runner_self_s": "s",
    "experiments.result_bytes": "B",
}


def layer_metrics(tracer: Tracer, untraced_wall: float, checks: Checks,
                  say: Callable[[str], None]) -> Dict[str, Tuple[float, str]]:
    """Per-layer self times and counts of a traced pass.

    The self times of the layers and of the benchmark's own code add up to
    the root span's wall by construction; what is checked is that the
    benchmark's own share, the time no layer accounts for, stays below
    ``RESIDUAL_SHARE``.
    """
    root = tracer.spans[0]
    wall = root.duration
    layers = tracer.layer_self_times()
    residual = layers["bench"]
    checks.check(
        residual <= RESIDUAL_SHARE * wall,
        f"unattributed benchmark time {residual:.4f} s exceeds "
        f"{RESIDUAL_SHARE:.0%} of the {wall:.4f} s wall",
    )
    selfs = tracer.self_times()
    counts = tracer.counts
    calls = counts["spapt.cost_calls"]
    metrics: Dict[str, Tuple[float, str]] = {
        name: (0, unit) for name, unit in PER_LAYER_UNITS.items()
    }
    values = {
        "trace.wall_s": wall,
        "trace.residual_s": residual,
        "trace.overhead_s": wall - untraced_wall,
        "spapt.construct_s": tracer.total("spapt", "construct"),
        "spapt.cost_calls": calls,
        "spapt.cost_cold": counts["spapt.cost_cold"],
        "spapt.cost_hit_ratio": (
            (calls - counts["spapt.cost_cold"]) / calls if calls else 0.0
        ),
        "spapt.cost_s": tracer.total("spapt", "cost"),
        "spapt.features_rows": counts["spapt.features_rows"],
        "spapt.features_s": tracer.total("spapt", "features"),
        "measurement.requests": counts["measurement.requests"],
        "measurement.observations": counts["measurement.observations"],
        "measurement.broker_self_s": selfs.get("measurement.measure", 0.0),
        "measurement.dataset_s": selfs.get("measurement.dataset", 0.0),
        "core.asks": counts["core.asks"],
        "core.ask_self_s": selfs.get("core.ask", 0.0),
        "core.tell_self_s": selfs.get("core.tell", 0.0),
        "core.evaluations": counts["core.evaluations"],
        "core.evaluate_s": tracer.total("core", "evaluate"),
        "models.alc_calls": counts["models.alc_calls"],
        "models.alc_rows": counts["models.alc_rows"],
        "models.alc_s": tracer.total("models", "alc"),
        "models.fit_s": tracer.total("models", "fit"),
        "models.updates": counts["models.updates"],
        "models.update_s": tracer.total("models", "update"),
    }
    for layer in LAYERS[1:]:
        values[f"{layer}.self_s"] = layers[layer]
    for name, value in values.items():
        metrics[name] = (value, PER_LAYER_UNITS[name])
    split = ", ".join(
        f"{layer} {seconds:.3f} s ({seconds / wall:.1%})"
        for layer, seconds in layers.items()
    )
    say(f"trace: wall {wall:.3f} s = {split}; untraced wall "
        f"{untraced_wall:.3f} s, overhead {wall - untraced_wall:+.3f} s")
    setup = tracer.find("bench", "setup")
    setup_split = ", ".join(
        f"{layer} {seconds / setup.duration:.1%}"
        for layer, seconds in tracer.layer_self_times(setup).items()
    )
    say(f"trace: setup {setup.duration:.3f} s = {setup_split}")
    if calls:
        say(f"trace: cost-model hit ratio {values['spapt.cost_hit_ratio']:.3f} "
            f"of {calls} calls ({counts['spapt.cost_cold']} distinct)")
    return metrics


# ------------------------------------------------------------ sharded runner

SHARDED_BENCHMARKS = ("mm", "lu", "adi", "correlation")
SHARDED_TAIL_LEVEL = 75.0


def sharded_scale(seed: int) -> ExperimentScale:
    """A seeded Table 1 scale whose session checkpoints dominate the work:
    200 particles, checkpointed after every example."""
    laptop = ExperimentScale.laptop(SHARDED_BENCHMARKS)
    return dataclasses.replace(
        laptop,
        name="e2e-sharded",
        seed=derived_seed(seed, 3),
        repetitions=2,
        test_size=100,
        learner=dataclasses.replace(
            laptop.learner, max_training_examples=30, tree_particles=200
        ),
    )


def sharded_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class ShardedPass:
    """One ``run_paper_run`` of the workload's scale in a fresh directory."""

    wall_s: float
    #: Reference seconds per measured second (see ``REFERENCE_KERNEL_S``).
    scale: float
    start: float
    end: float
    report: Dict[str, str]
    intervals: Dict[str, Tuple[float, float]]
    payloads: Dict[str, object]
    #: unit id -> (benchmark, repetition)
    keys: Dict[str, Tuple[str, int]]
    result_bytes: int
    executions: int
    failures: int
    dead_letters: int

    @property
    def examples(self) -> int:
        return sum(p.training_examples for p in self.payloads.values())

    @property
    def ledger_s(self) -> float:
        return sum(p.ledger.total_seconds for p in self.payloads.values())

    @property
    def reference_wall_s(self) -> float:
        return self.wall_s * self.scale

    def step_seconds(self) -> List[float]:
        """Per unit: execute-to-publish wall divided by its examples, in
        reference seconds."""
        return [
            (finish - begin) * self.scale / self.payloads[unit].training_examples
            for unit, (begin, finish) in self.intervals.items()
        ]


def sharded_pass(scale: ExperimentScale, run_dir: pathlib.Path,
                 policy: BrokerPolicy) -> ShardedPass:
    sections: Dict[str, str] = {}

    def sink(name: str, text: str) -> None:
        sections[name] = text

    # A pass outlasts the host's phases, so the kernel also runs at each
    # progress line, once per finished unit, while the workers go on.
    kernels = [kernel_seconds()]
    start_wall = time.time()
    wall, _ = timed(lambda: run_paper_run(
        scale,
        run_dir,
        artifacts=["table1"],
        workers=sharded_workers(),
        checkpoint_interval=1,
        progress=lambda line: kernels.append(kernel_seconds()),
        section_sink=sink,
        broker_policy=policy,
    ))
    end_wall = time.time()
    kernels.append(kernel_seconds())
    scale = host_scale(*kernels)
    executes: Dict[str, float] = {}
    intervals: Dict[str, Tuple[float, float]] = {}
    executions = failures = 0
    with open(run_dir / "log" / "events.jsonl", encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event["event"] == "execute":
                executions += 1
                executes[event["unit"]] = event["time"]
            elif event["event"] == "publish":
                intervals[event["unit"]] = (executes[event["unit"]], event["time"])
            elif event["event"] in ("fail", "quarantine"):
                failures += 1
    payloads = {}
    keys = {}
    result_bytes = 0
    for path in sorted((run_dir / "results").glob("*.pkl")):
        data = path.read_bytes()
        result_bytes += len(data)
        record = pickle.loads(data)
        payloads[path.stem] = record["payload"]
        params = record["unit"]["params"]
        keys[path.stem] = (str(params["benchmark"]), int(params["repetition"]))
    dead_path = run_dir / "failed" / "dead-letters.jsonl"
    dead_letters = (
        len(dead_path.read_text("utf-8").splitlines()) if dead_path.exists() else 0
    )
    return ShardedPass(wall, scale, start_wall, end_wall, sections, intervals,
                       payloads, keys, result_bytes, executions, failures,
                       dead_letters)


def union_seconds(intervals) -> float:
    covered = 0.0
    current_start = current_end = None
    for begin, finish in sorted(intervals):
        if current_end is None or begin > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = begin, finish
        else:
            current_end = max(current_end, finish)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def strip_wall_time(text: str) -> List[str]:
    return [line for line in text.splitlines() if "wall time" not in line.lower()]


def same_report(a: ShardedPass, b: ShardedPass) -> bool:
    """Whether two passes rendered the same Table 1, wall time aside."""
    return (strip_wall_time(a.report.get("table1", ""))
            == strip_wall_time(b.report.get("table1", "")))


class ShardedRunner:
    """Executes the ``sharded-table1`` workload for one seed."""

    def __init__(self, seed: int, checks: Checks, scratch: pathlib.Path,
                 say: Callable[[str], None]) -> None:
        self.scale = sharded_scale(seed)
        self.checks = checks
        self.scratch = scratch
        self.say = say
        self.policy = BrokerPolicy(max_retries=MAX_RETRIES)
        self._dirs = 0

    def fresh_dir(self, tag: str) -> pathlib.Path:
        self._dirs += 1
        path = self.scratch / f"{tag}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self, tracer: Optional[Tracer] = None
              ) -> Tuple[Dict[str, float], Dict[Tuple[str, int], float]]:
        """Benchmark construction + held-out test sets + manifest prepare,
        timed per test set and for the prepare.

        The units run in worker processes and build their own inputs, so
        this is a stand-alone probe of the same set-up: every (benchmark,
        repetition) test set a unit builds, from the seed the registry
        documents for it (``scale.seed + 7919 * repetition``), and the
        manifest the runner writes.  Returns the component times and each
        test set's constant-predictor RMSE, the reference the units'
        models must beat.
        """
        scale = self.scale
        keys = [(name, repetition) for name in scale.benchmarks
                for repetition in range(scale.repetitions)]
        run_dir = self.fresh_dir("setup")

        def prepare() -> None:
            with span(tracer, "experiments", "prepare"):
                ExperimentRunner(run_dir, scale, artifacts=["table1"],
                                 checkpoint_interval=1,
                                 broker_policy=self.policy).prepare()

        times, results = timed_components(
            [(f"{name}/{repetition}", lambda name=name, repetition=repetition:
              build_inputs(name, scale.test_size, scale.test_observations,
                           np.random.default_rng(scale.seed + 7919 * repetition),
                           tracer)[1])
             for name, repetition in keys]
            + [("prepare", prepare)]
        )
        shutil.rmtree(run_dir, ignore_errors=True)
        constants = {
            key: constant_rmse(test_set.mean_runtimes)
            for key, test_set in zip(keys, results)
        }
        return times, constants

    def run_pass(self, tracer: Optional[Tracer] = None) -> ShardedPass:
        run_dir = self.fresh_dir("pass")
        with span(tracer, "experiments", "run_paper_run"):
            result = sharded_pass(self.scale, run_dir, self.policy)
        shutil.rmtree(run_dir, ignore_errors=True)
        budget = self.scale.learner.max_training_examples
        for unit_id, payload in sorted(result.payloads.items()):
            ledger = payload.ledger
            self.checks.check(
                ledger.executions == sum(payload.observation_counts.values()),
                f"{unit_id}: ledger counts {ledger.executions} executions, "
                f"observation counts sum to "
                f"{sum(payload.observation_counts.values())}",
            )
            check_curve(self.checks, unit_id, payload.curve, budget,
                        ledger.total_seconds)
        self.checks.check(
            len(result.payloads) == len(result.intervals) == result.executions,
            f"{result.executions} executions, {len(result.intervals)} "
            f"published, {len(result.payloads)} results",
        )
        self.say(
            f"pass: {len(result.payloads)} units in {result.wall_s:.3f} s "
            f"({result.scale:.3f} reference s per s), "
            f"{result.result_bytes} result bytes"
        )
        return result

    def check_report(self, result: ShardedPass, workers: int) -> float:
        """The sharded report must equal the in-memory one; returns the
        in-memory run's wall time."""
        wall, results = timed(lambda: run_artifacts(
            self.scale, ["table1"], workers=workers, broker_policy=self.policy
        ))
        self.checks.check(
            strip_wall_time(result.report.get("table1", ""))
            == strip_wall_time(results["table1"].render()),
            "the sharded Table 1 differs from the in-memory run_artifacts report",
        )
        return wall


def run_sharded(seed: int, seconds: float, checks: Checks,
                scratch: pathlib.Path, say: Callable[[str], None]) -> dict:
    runner = ShardedRunner(seed, checks, scratch, say)
    setups: List[Dict[str, float]] = []

    def set_up() -> Dict[Tuple[str, int], float]:
        for _ in range(SETUP_REPEATS):
            times, constants = runner.setup()
            setups.append(times)
        say("setups " + ", ".join(
            f"{sum(s.values()):.4f}" for s in setups[-SETUP_REPEATS:]) + " s")
        return constants

    constants = set_up()
    min_samples = samples_for_tail(SHARDED_TAIL_LEVEL)
    passes: List[ShardedPass] = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or sum(len(p.intervals) for p in passes) < min_samples):
        passes.append(runner.run_pass())
        set_up()
    for later in passes[1:]:
        checks.check(same_report(later, passes[0]),
                     "a repeated pass rendered another Table 1")
    runner.check_report(passes[0], sharded_workers())
    return {
        "metrics": sharded_metrics(setups, passes, constants, checks, say),
        "attempted": sum(p.executions for p in passes),
        "failed": sum(p.failures + p.dead_letters for p in passes),
    }


def sharded_metrics(setups: List[Dict[str, float]], passes: List[ShardedPass],
                    constants: Dict[Tuple[str, int], float], checks: Checks,
                    say: Callable[[str], None]) -> Dict[str, Tuple[float, str]]:
    """Rates are the best pass, as for the learner workloads; the units'
    step latencies pool every pass (one pass has too few units for a tail).
    Quality and ledger come from the fixed pass every repeat reproduces."""
    steps = [s for p in passes for s in p.step_seconds()]
    tail_value, beyond = tail(steps, SHARDED_TAIL_LEVEL)
    say(f"unit step latency: n={len(steps)} over {len(passes)} passes, p50 "
        f"{np.percentile(steps, 50) * 1e3:.3f} ms, p{SHARDED_TAIL_LEVEL:g} "
        f"{tail_value * 1e3:.3f} ms ({beyond} samples beyond it)")
    checks.check(beyond >= 10, f"only {beyond} samples beyond the tail")
    first = passes[0]
    units = sorted(first.payloads)
    finals = [first.payloads[u].curve.points[-1].rmse for u in units]
    check_quality(checks, "sharded-table1", finals,
                  [constants[first.keys[u]] for u in units])
    wall = min(p.reference_wall_s for p in passes)
    return {
        "setup_s": (best_setup(setups), "s"),
        "s_per_example": (wall / first.examples, "s/example"),
        "decide_p50_ms": (1000.0 * statistics.median(steps), "ms"),
        "decide_tail_ms": (tail_value * 1000.0, "ms"),
        "overhead_pct": (100.0 * wall / first.ledger_s, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "final_rmse": (geometric_mean(finals), "s"),
    }


def trace_sharded(seed: int, checks: Checks, scratch: pathlib.Path,
                  say: Callable[[str], None], trace_path: pathlib.Path) -> dict:
    runner = ShardedRunner(seed, checks, scratch, say)
    start = time.perf_counter()
    runner.setup()
    plain = runner.run_pass()
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    with tracer.span("bench", "run"):
        with tracer.span("bench", "setup"):
            runner.setup(tracer)
        traced = runner.run_pass(tracer)
    tracer.write(trace_path)
    # Serial, so that its wall is the units' own compute time (their
    # set-up included, as in the units' execute-to-publish intervals).
    in_memory_s = runner.check_report(traced, workers=1)
    checks.check(same_report(plain, traced),
                 "the traced sharded run rendered another Table 1")
    metrics = layer_metrics(tracer, untraced_wall, checks, say)
    workers = sharded_workers()
    run_wall = traced.end - traced.start
    unit_s = sum(finish - begin for begin, finish in traced.intervals.values())
    covered = union_seconds(traced.intervals.values())
    runner_self = run_wall - covered
    checkpoint_s = unit_s - in_memory_s
    # The runner's wall is its own time plus the units' time spread over
    # the workers: checkpoints and in-memory compute, converted to wall.
    accounted = (checkpoint_s + in_memory_s) / workers + runner_self
    checks.check(
        runner_self >= 0 and abs(accounted - run_wall) <= RESIDUAL_SHARE * run_wall,
        f"sharded split accounts for {accounted:.3f} s of the {run_wall:.3f} s "
        f"run_paper_run wall (runner self {runner_self:.3f} s)",
    )
    say(
        f"runner: {len(traced.intervals)} units on {workers} workers, "
        f"{unit_s:.3f} unit-seconds covering {covered:.3f} s of "
        f"{run_wall:.3f} s; the same units in memory {in_memory_s:.3f} s, so "
        f"checkpoints ~{checkpoint_s:.3f} unit-seconds "
        f"({checkpoint_s / unit_s:.1%}); as wall: checkpoints "
        f"{checkpoint_s / workers:.3f} s + compute {in_memory_s / workers:.3f} s "
        f"+ runner self {runner_self:.3f} s = {accounted:.3f} s "
        f"({(checkpoint_s / workers + runner_self) / run_wall:.1%} "
        f"checkpoints + runner)"
    )
    metrics.update({
        "experiments.units": (len(traced.intervals), "count"),
        "experiments.unit_s": (unit_s, "s"),
        "experiments.checkpoint_s": (checkpoint_s, "s"),
        "experiments.runner_self_s": (runner_self, "s"),
        "experiments.result_bytes": (traced.result_bytes, "B"),
        "measurement.dead_letters": (traced.dead_letters, "count"),
    })
    return {
        "metrics": metrics,
        "attempted": plain.executions + traced.executions,
        "failed": (plain.failures + traced.failures
                   + plain.dead_letters + traced.dead_letters),
    }
