"""Fault tolerance for the measurement pipeline: injection and resilience.

Real profiling — the paper's whole cost model — runs on machines that
fail, hang and lie.  This module adds the two broker wrappers that let the
rest of the stack assume measurements either succeed or fail *cleanly*:

* :class:`FaultInjectingBroker` wraps any
  :class:`~repro.measurement.broker.MeasurementBroker` and deterministically
  (seeded) injects the in-the-wild failure modes: transient exceptions,
  hangs/timeouts, corrupted results (NaN, negative, wild outliers) and
  crash-before-record losses.  Crucially, every fabricated fault fires
  *before* the wrapped broker is consulted, so a faulted attempt consumes
  nothing from the profiler's noise stream — a retry then performs the real
  measurement exactly once, which is what makes retries invisible to the
  learner (the chaos bit-identity contract pinned by ``tests/test_chaos.py``).
  The one exception is the ``crash`` fault, which deliberately *does*
  measure and then loses the result — modelling a worker dying between
  measurement and record — and is therefore excluded from bit-identity
  scenarios.

* :class:`ResilientBroker` is the policy wrapper production runs put above
  a live broker: per-request deadlines, bounded retries with seeded
  exponential backoff + jitter, result sanity checks (non-finite and
  negative runtimes are rejected at the
  :class:`~repro.measurement.broker.MeasurementResult` boundary; finite
  outliers are rejected against the request's ``prior_stats``), and a
  dead-letter record for requests that fail permanently.  On the happy
  path with no deadline configured the wrapper is a direct call plus a
  cheap sanity scan — overhead is benchmarked under 5% in
  ``benchmarks/test_bench_broker_overhead.py``.

The retry RNG (backoff jitter) and the fault RNG are plain
:class:`random.Random` instances owned by the wrappers — they never touch
the session's NumPy generator, so retrying, backing off or injecting
faults cannot perturb the learning trajectory.

:class:`BrokerPolicy` is the picklable bundle of knobs the experiment
layer threads from ``run_all --max-retries/--measure-timeout/
--inject-faults`` down to each work unit's broker chain.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .broker import MeasurementBroker, MeasurementRequest, MeasurementResult

__all__ = [
    "TransientMeasurementError",
    "CorruptMeasurementError",
    "MeasurementTimeoutError",
    "MeasurementFailedError",
    "FaultPlan",
    "FaultInjectingBroker",
    "ResilientBroker",
    "BrokerPolicy",
]

logger = logging.getLogger(__name__)


class TransientMeasurementError(RuntimeError):
    """A measurement attempt failed in a way a retry may fix."""


class CorruptMeasurementError(TransientMeasurementError):
    """An attempt produced values the result sanity checks rejected."""


class MeasurementTimeoutError(TransientMeasurementError):
    """An attempt exceeded its per-request deadline."""


class MeasurementFailedError(RuntimeError):
    """Every allowed attempt at a request failed.

    ``dead_letter`` is the JSON-serialisable record of the failure (the
    request identity plus the error of every attempt) that
    :class:`ResilientBroker` also appends to its dead-letter log.
    """

    def __init__(self, message: str, dead_letter: dict) -> None:
        super().__init__(message)
        self.dead_letter = dead_letter

    def __reduce__(self):
        # Rebuild with both arguments: a pool worker's error reaches the
        # parent process pickled.
        return type(self), (self.args[0], self.dead_letter)


def _parse_fail_units(raw: str) -> Tuple[str, ...]:
    return tuple(part for part in raw.split("+") if part)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded recipe of measurement faults to inject.

    Rates are independent per-attempt probabilities drawn from one
    ``random.Random(seed)`` stream; their sum must stay at or below 1.
    ``max_faults_per_request`` bounds how many attempts at the *same*
    request (benchmark, configuration, prior count) may fault, so any
    retry policy with ``max_retries >= max_faults_per_request`` is
    guaranteed to get a clean measurement eventually — the shape every
    transient-fault chaos scenario relies on.  ``fail_units`` lists
    substrings of work-unit ids whose every request fails *permanently*
    (never served), the hook for quarantine scenarios.
    """

    seed: int = 0
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    corrupt_rate: float = 0.0
    crash_rate: float = 0.0
    hang_seconds: float = 0.05
    max_faults_per_request: int = 2
    fail_units: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        rates = (
            self.transient_rate,
            self.timeout_rate,
            self.corrupt_rate,
            self.crash_rate,
        )
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must lie in [0, 1]")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        if self.hang_seconds < 0:
            raise ValueError("hang_seconds must be non-negative")
        if self.max_faults_per_request < 0:
            raise ValueError("max_faults_per_request must be non-negative")
        object.__setattr__(self, "fail_units", tuple(self.fail_units))

    #: spec key <-> field name for the ``--inject-faults`` mini-language.
    _SPEC_KEYS = {
        "seed": "seed",
        "transient": "transient_rate",
        "timeout": "timeout_rate",
        "corrupt": "corrupt_rate",
        "crash": "crash_rate",
        "hang": "hang_seconds",
        "max-faults": "max_faults_per_request",
        "fail-units": "fail_units",
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``key=value,key=value`` spec string.

        Keys: ``seed``, ``transient``, ``timeout``, ``corrupt``, ``crash``
        (rates), ``hang`` (seconds), ``max-faults``, and ``fail-units``
        (``+``-separated unit-id substrings).  Example::

            seed=7,transient=0.2,timeout=0.1,corrupt=0.1,max-faults=2
        """
        kwargs: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"fault spec entry {part!r} is not of the form key=value"
                )
            key, raw = part.split("=", 1)
            key = key.strip()
            raw = raw.strip()
            name = cls._SPEC_KEYS.get(key)
            if name is None:
                raise ValueError(
                    f"unknown fault spec key {key!r}; "
                    f"expected one of {sorted(cls._SPEC_KEYS)}"
                )
            if name == "fail_units":
                kwargs[name] = _parse_fail_units(raw)
            elif name in ("seed", "max_faults_per_request"):
                kwargs[name] = int(raw)
            else:
                kwargs[name] = float(raw)
        return cls(**kwargs)

    def to_spec(self) -> str:
        """The ``parse``-round-trippable spec string for this plan."""
        parts = [f"seed={self.seed}"]
        for key, name in self._SPEC_KEYS.items():
            if name == "seed":
                continue
            value = getattr(self, name)
            if name == "fail_units":
                if value:
                    parts.append(f"{key}={'+'.join(value)}")
            elif value != getattr(type(self)(), name):
                parts.append(f"{key}={value:g}" if isinstance(value, float)
                             else f"{key}={value}")
        return ",".join(parts)


class FaultInjectingBroker:
    """Wrap a broker and deterministically inject measurement faults.

    Fault draws come from the plan's own seeded ``random.Random`` stream —
    never from the session's generator — and (except for the ``crash``
    fault) fire *before* the wrapped broker runs, so a faulted attempt
    consumes nothing from the profiler's noise stream and a retried
    request measures exactly what an unfaulted run would.

    ``unit`` is the work-unit identity used to match the plan's
    ``fail_units`` permanent faults.  ``injected`` counts the faults
    actually raised, by kind.
    """

    #: Outlier corruption needs prior statistics to be detectable (and
    #: rejectable) downstream; below this prior count the corrupt fault
    #: falls back to NaN/negative values, which the result boundary
    #: itself rejects.  Must not exceed the resilient wrapper's
    #: ``outlier_min_prior``.
    _OUTLIER_MIN_PRIOR = 1

    def __init__(
        self,
        inner: MeasurementBroker,
        plan: FaultPlan,
        unit: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._unit = unit or ""
        self._sleep = sleep
        self._rng = random.Random(plan.seed)
        #: (benchmark, configuration, prior) -> faults injected so far.
        self._fault_counts: Dict[Tuple[str, Tuple[int, ...], int], int] = {}
        self.injected: Dict[str, int] = {}

    @property
    def inner(self) -> MeasurementBroker:
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    def _note(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _raise(self, kind: str, message: str) -> None:
        self._note(kind)
        logger.debug("injecting %s fault: %s", kind, message)
        if kind == "timeout":
            raise MeasurementTimeoutError(message)
        raise TransientMeasurementError(message)

    def _corrupt_result(self, request: MeasurementRequest) -> MeasurementResult:
        """Fabricate a corrupted result without touching the inner broker."""
        prior = request.prior_stats
        modes = ["nan", "negative"]
        if (
            prior is not None
            and prior.count >= self._OUTLIER_MIN_PRIOR
            and prior.mean > 0
        ):
            modes.append("outlier")
        mode = self._rng.choice(modes)
        self._note("corrupt")
        if mode == "outlier":
            value = prior.mean * 1000.0 * (1.0 + self._rng.random())
            logger.debug("injecting corrupt fault: fabricated outlier %g", value)
            return MeasurementResult(
                configuration=request.configuration,
                runtimes=(value,) * request.repetitions,
            )
        value = float("nan") if mode == "nan" else -1.0
        try:
            MeasurementResult(
                configuration=request.configuration,
                runtimes=(value,) * request.repetitions,
            )
        except ValueError as exc:
            raise CorruptMeasurementError(
                f"injected corrupt measurement ({mode}): {exc}"
            ) from exc
        raise AssertionError("the result boundary accepted a corrupt value")

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        plan = self._plan
        if plan.fail_units and any(s in self._unit for s in plan.fail_units):
            self._raise(
                "permanent",
                f"injected permanent fault for unit {self._unit!r}",
            )
        key = (
            request.benchmark,
            request.configuration,
            request.prior_observations,
        )
        count = self._fault_counts.get(key, 0)
        if count < plan.max_faults_per_request:
            draw = self._rng.random()
            edge = plan.transient_rate
            if draw < edge:
                self._fault_counts[key] = count + 1
                self._raise("transient", "injected transient measurement failure")
            edge += plan.timeout_rate
            if draw < edge:
                self._fault_counts[key] = count + 1
                self._sleep(plan.hang_seconds)
                self._raise(
                    "timeout",
                    f"injected hang ({plan.hang_seconds:g}s) before failing",
                )
            edge += plan.corrupt_rate
            if draw < edge:
                self._fault_counts[key] = count + 1
                return self._corrupt_result(request)
            edge += plan.crash_rate
            if draw < edge:
                self._fault_counts[key] = count + 1
                # Crash-before-record: the measurement happens (and consumes
                # the profiler's noise stream) but the result is lost, as
                # when a worker dies between measuring and publishing.  Not
                # bit-identity safe — quarantine scenarios only.
                self._inner.measure(request)
                self._raise(
                    "crash", "injected crash before recording the result"
                )
        return self._inner.measure(request)


class ResilientBroker:
    """Retry/deadline/sanity policy around any measurement broker.

    Attempts a request up to ``1 + max_retries`` times, retrying on
    :class:`TransientMeasurementError` (which includes injected or real
    timeouts and corrupt results) with exponential backoff —
    ``backoff_base * backoff_factor**attempt`` capped at ``backoff_max``,
    plus seeded multiplicative jitter in ``[0, backoff_jitter]`` — from a
    private ``random.Random(seed)`` stream that never touches the
    session's generator.

    ``timeout`` (seconds) arms a per-request deadline: the inner broker
    runs in a daemon worker thread and an attempt still running at the
    deadline raises :class:`MeasurementTimeoutError` (the abandoned thread
    is left to finish in the background — with simulated profilers it
    completes harmlessly; a real measurement service would cancel the
    job).  With ``timeout=None`` (the default) the inner broker is called
    directly, keeping happy-path overhead to a sanity scan of the result.

    Sanity checks: the :class:`MeasurementResult` boundary already rejects
    non-finite and negative values at construction; this wrapper
    additionally rejects *finite* outliers — any runtime more than
    ``outlier_factor`` times away (either direction) from the mean of the
    request's ``prior_stats`` (once it has ``outlier_min_prior``
    observations).  The simulation's heavy-tailed noise spikes max out
    around 1.5x, so a factor of 20 never rejects genuine noise.

    A request that exhausts its attempts raises
    :class:`MeasurementFailedError` and appends a dead-letter record (the
    request identity plus every attempt's error) to :attr:`dead_letters`
    and, when ``dead_letter_path`` is set, to that JSONL file.
    """

    def __init__(
        self,
        inner: MeasurementBroker,
        max_retries: int = 3,
        timeout: Optional[float] = None,
        backoff_base: float = 0.01,
        backoff_factor: float = 2.0,
        backoff_max: float = 1.0,
        backoff_jitter: float = 0.25,
        seed: int = 0,
        outlier_factor: float = 20.0,
        outlier_min_prior: int = 1,
        sleep: Callable[[float], None] = time.sleep,
        dead_letter_path: Optional[os.PathLike] = None,
        unit: Optional[str] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive when given")
        if outlier_factor <= 1:
            raise ValueError("outlier_factor must exceed 1")
        self._inner = inner
        self._max_retries = max_retries
        self._timeout = timeout
        self._backoff_base = backoff_base
        self._backoff_factor = backoff_factor
        self._backoff_max = backoff_max
        self._backoff_jitter = backoff_jitter
        self._rng = random.Random(seed)
        self._outlier_factor = outlier_factor
        self._outlier_min_prior = outlier_min_prior
        self._sleep = sleep
        self._dead_letter_path = dead_letter_path
        self._unit = unit
        self.retries = 0
        self.timeouts = 0
        self.rejections = 0
        self.dead_letters: List[dict] = []

    @property
    def inner(self) -> MeasurementBroker:
        return self._inner

    def _backoff(self, attempt: int) -> float:
        delay = min(
            self._backoff_base * self._backoff_factor ** attempt,
            self._backoff_max,
        )
        return delay * (1.0 + self._backoff_jitter * self._rng.random())

    def _attempt(self, request: MeasurementRequest) -> MeasurementResult:
        if self._timeout is None:
            return self._inner.measure(request)
        box: Dict[str, object] = {}

        def work() -> None:
            try:
                box["result"] = self._inner.measure(request)
            except BaseException as exc:  # propagated to the caller below
                box["error"] = exc

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(self._timeout)
        if worker.is_alive():
            self.timeouts += 1
            raise MeasurementTimeoutError(
                f"measurement of {request.configuration} exceeded the "
                f"{self._timeout:g}s deadline"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["result"]  # type: ignore[return-value]

    def _check_sane(
        self, request: MeasurementRequest, result: MeasurementResult
    ) -> None:
        prior = request.prior_stats
        if (
            prior is None
            or prior.count < self._outlier_min_prior
            or not prior.mean > 0
        ):
            return
        low = prior.mean / self._outlier_factor
        high = prior.mean * self._outlier_factor
        for runtime in result.runtimes:
            if not low <= runtime <= high:
                self.rejections += 1
                raise CorruptMeasurementError(
                    f"runtime {runtime:g} for {request.configuration} is "
                    f"more than {self._outlier_factor:g}x away from the "
                    f"prior mean {prior.mean:g} over {prior.count} "
                    f"observations"
                )

    def _record_dead_letter(self, request: MeasurementRequest,
                            attempts: List[str]) -> dict:
        record = {
            "unit": self._unit,
            "benchmark": request.benchmark,
            "configuration": list(request.configuration),
            "prior": request.prior_observations,
            "repetitions": request.repetitions,
            "attempts": attempts,
        }
        self.dead_letters.append(record)
        if self._dead_letter_path is not None:
            line = (json.dumps(record) + "\n").encode("utf-8")
            fd = os.open(
                self._dead_letter_path,
                os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line)
                os.fsync(fd)
            finally:
                os.close(fd)
        return record

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        attempts: List[str] = []
        for attempt in range(self._max_retries + 1):
            try:
                result = self._attempt(request)
                self._check_sane(request, result)
                return result
            except TransientMeasurementError as exc:
                attempts.append(f"{type(exc).__name__}: {exc}")
                logger.warning(
                    "measurement attempt %d/%d for %s failed: %s",
                    attempt + 1,
                    self._max_retries + 1,
                    request.configuration,
                    exc,
                )
                if attempt >= self._max_retries:
                    break
                self.retries += 1
                self._sleep(self._backoff(attempt))
        record = self._record_dead_letter(request, attempts)
        raise MeasurementFailedError(
            f"measurement of {request.configuration} "
            f"(benchmark {request.benchmark!r}) failed permanently after "
            f"{len(attempts)} attempts: {attempts[-1]}",
            record,
        )


def _stable_seed(text: str) -> int:
    """A deterministic, process-independent seed from a unit identity."""
    value = 0
    for ch in text:
        value = (value * 1000003 + ord(ch)) % (2 ** 31)
    return value


@dataclass(frozen=True)
class BrokerPolicy:
    """The fault-tolerance knobs threaded from the CLI to each work unit.

    ``inject_faults`` is a :meth:`FaultPlan.parse` spec string (kept as a
    string so the policy pickles across worker processes and round-trips
    through the CLI).  :meth:`wrap` composes the chain around a base
    broker: fault injection innermost (when configured), the resilient
    retry/deadline/sanity wrapper outermost.
    """

    max_retries: int = 0
    measure_timeout: Optional[float] = None
    inject_faults: Optional[str] = None
    dead_letter_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.measure_timeout is not None and self.measure_timeout <= 0:
            raise ValueError("measure_timeout must be positive when given")
        if self.inject_faults is not None:
            FaultPlan.parse(self.inject_faults)  # validate eagerly

    @property
    def active(self) -> bool:
        return (
            self.max_retries > 0
            or self.measure_timeout is not None
            or self.inject_faults is not None
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.inject_faults is None:
            return None
        return FaultPlan.parse(self.inject_faults)

    def wrap(
        self, broker: MeasurementBroker, unit: Optional[str] = None
    ) -> MeasurementBroker:
        """The policy's broker chain around ``broker`` for work unit
        ``unit`` (fault injection, then retries/deadline/sanity)."""
        plan = self.fault_plan()
        if plan is not None:
            broker = FaultInjectingBroker(broker, plan, unit=unit)
        return ResilientBroker(
            broker,
            max_retries=self.max_retries,
            timeout=self.measure_timeout,
            seed=_stable_seed(unit or ""),
            dead_letter_path=self.dead_letter_path,
            unit=unit,
        )
