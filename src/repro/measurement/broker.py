"""Measurement brokers: the execution side of the ask/tell learning loop.

The inverted-control core (:class:`repro.core.session.TuningSession`) never
calls a profiler itself — it emits :class:`MeasurementRequest`\\ s and
consumes :class:`MeasurementResult`\\ s, and *how* a request is satisfied is
a :class:`MeasurementBroker`'s business:

* :class:`ProfilerBroker` is the live broker: it wraps a
  :class:`~repro.measurement.profiler.Profiler` and compiles-and-runs the
  requested configuration, applying the request's CI stopping rule;
* :class:`ReplayBroker` memoises ``(unit, benchmark, configuration, prior
  observation count) -> observations`` to an on-disk trace: a request this
  *same unit* recorded before is served from the trace without touching a
  profiler, and a miss is delegated to a fallback broker (typically a
  :class:`ProfilerBroker`) and recorded for next time.  Records are
  namespaced by the recording session's unit identity, so many units
  recording into one trace directory stay statistically independent — a
  recording run takes exactly the measurements a live run would.
  Re-running a recorded experiment therefore profiles nothing, and
  re-*scoring* a different strategy against a recorded trace is an
  explicit opt-in (``rescore_from`` names the artifacts whose records may
  be shared): shared records serve their observations common-random-numbers
  style but never their RNG or noise state, and only the configurations the
  recorded artifact never visited are profiled live.

A broker implements one method, ``measure``; a round of several requests
is served one ``measure`` call per request, in ask order.

A request is self-contained: it carries the configuration, the initial
repetition count, the CI stopping rule (threshold and per-example cap) and
a snapshot of the statistics of every observation the configuration has
received so far.  Brokers therefore hold no adaptive state of their own,
which is what keeps them trivially replaceable mid-run (checkpoint/resume
reconstructs a fresh broker and loses nothing).

This module deliberately does not import anything from :mod:`repro.core`:
the session layer depends on the measurement layer, never the reverse.
"""

from __future__ import annotations

import json
import logging
import math
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .noise import NoiseModel
from .profiler import Profiler
from .stats import RunningStats

__all__ = [
    "MeasurementRequest",
    "MeasurementResult",
    "MeasurementBroker",
    "ProfilerBroker",
    "ReplayBroker",
    "ReplayTrace",
    "ReplayMissError",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeasurementRequest:
    """One self-contained "compile and run this configuration" order.

    Attributes
    ----------
    benchmark:
        Name of the benchmark the configuration belongs to (the broker may
        serve several sessions from one trace).
    configuration:
        The configuration to profile.
    repetitions:
        How many runs to take unconditionally (the plan's
        ``observations_per_selection``, or ``seed_observations`` while
        seeding).
    ci_threshold:
        When set, keep profiling one run at a time after the initial
        ``repetitions`` until the 95% CI/mean ratio over *all* of the
        configuration's observations falls below this value or the
        configuration reaches ``max_observations`` total — the sampling
        plan's stopping rule, carried in the request so the broker needs no
        knowledge of plans.
    max_observations:
        Total per-configuration observation cap for the stopping rule
        (prior observations included).
    prior_stats:
        Snapshot of the running statistics of every observation the
        configuration received in earlier selections (``None`` when it was
        never measured).  The broker evaluates the CI rule against prior
        plus new observations, exactly as an inline loop reading the
        profiler's own statistics would, and a configuration with prior
        observations is never charged its compile time again.
    """

    benchmark: str
    configuration: Tuple[int, ...]
    repetitions: int
    ci_threshold: Optional[float] = None
    max_observations: Optional[int] = None
    prior_stats: Optional[RunningStats] = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        object.__setattr__(
            self, "configuration", tuple(int(v) for v in self.configuration)
        )
        if self.ci_threshold is not None and self.max_observations is None:
            raise ValueError("a ci_threshold request needs max_observations")

    @property
    def prior_observations(self) -> int:
        """How many times the configuration was measured before this request."""
        return self.prior_stats.count if self.prior_stats is not None else 0


@dataclass(frozen=True)
class MeasurementResult:
    """A broker's answer: the observed runtimes plus the cost charged.

    ``compile_seconds`` lists the compile charges the request incurred (one
    entry on the configuration's first build, empty afterwards — binaries
    are cached); ``runtimes`` charges one execution each.  The session
    replays these into its own cost ledger in order, which reproduces the
    inline loop's float accumulation bit for bit.

    Construction is the sanity boundary of the measurement pipeline: a
    non-finite or non-positive runtime, or a non-finite or negative
    compile charge, is rejected (and logged) here rather than silently
    fed into the Welford statistics and the model update — a clock can
    glitch, a broker can lie, but a result object always holds usable
    observations.  Finite-but-absurd outliers pass construction and are
    the business of :class:`~repro.measurement.faults.ResilientBroker`'s
    prior-statistics check.
    """

    configuration: Tuple[int, ...]
    runtimes: Tuple[float, ...]
    compile_seconds: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "configuration", tuple(int(v) for v in self.configuration)
        )
        object.__setattr__(
            self, "runtimes", tuple(float(v) for v in self.runtimes)
        )
        object.__setattr__(
            self, "compile_seconds", tuple(float(v) for v in self.compile_seconds)
        )
        if not self.runtimes:
            raise ValueError("a measurement result needs at least one runtime")
        for runtime in self.runtimes:
            if not math.isfinite(runtime) or runtime <= 0:
                logger.warning(
                    "rejecting measurement result for %s: runtime %r is "
                    "not a finite positive number",
                    self.configuration,
                    runtime,
                )
                raise ValueError(
                    f"runtime {runtime!r} is not a finite positive number"
                )
        for charge in self.compile_seconds:
            if not math.isfinite(charge) or charge < 0:
                logger.warning(
                    "rejecting measurement result for %s: compile charge "
                    "%r is not a finite non-negative number",
                    self.configuration,
                    charge,
                )
                raise ValueError(
                    f"compile charge {charge!r} is not a finite "
                    f"non-negative number"
                )


class MeasurementBroker(Protocol):
    """Anything that can satisfy a :class:`MeasurementRequest`.

    A round of several requests is served one :meth:`measure` call per
    request; the session folds the round in ask order whatever order the
    results are told in.
    """

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        """Satisfy ``request`` and return the observations and charges."""
        ...


def _stats_after(request: MeasurementRequest) -> RunningStats:
    """A private working copy of the request's prior statistics."""
    if request.prior_stats is None:
        return RunningStats()
    return request.prior_stats.copy()


class ProfilerBroker:
    """The live broker: compile-and-run through a :class:`Profiler`.

    The profiler supplies the noise stream (it shares the session's
    generator) and the benchmark's cost model; the request's
    ``repetitions`` runs are one :meth:`Profiler.measure` pass.  The CI
    stopping rule is evaluated against the request's ``prior_stats`` plus
    the runs taken here, so the broker behaves identically whether the
    profiler is the original one or a fresh instance reconstructed after a
    resume.  Only a request with a stopping rule gets a working copy of
    the prior statistics; a fixed-count request (every standard plan's)
    needs none.
    """

    def __init__(self, profiler: Profiler) -> None:
        self._profiler = profiler

    @property
    def profiler(self) -> Profiler:
        return self._profiler

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        key = request.configuration
        compile_seconds: Tuple[float, ...] = ()
        if request.prior_observations == 0:
            # First build of this configuration anywhere in the session —
            # the (memoised, deterministic) compile time is charged once.
            compile_seconds = (float(self._profiler.program.compile_time(key)),)
        observations = self._profiler.measure(
            key, repetitions=request.repetitions
        ).tolist()
        if request.ci_threshold is not None:
            stats = _stats_after(request)
            stats.extend(observations)
            while (
                stats.count < request.max_observations
                and not stats.summary().passes_ci_validation(request.ci_threshold)
            ):
                more = self._profiler.measure(key, repetitions=1).tolist()
                observations.extend(more)
                stats.extend(more)
        return MeasurementResult(
            configuration=key,
            runtimes=tuple(observations),
            compile_seconds=compile_seconds,
        )


class ReplayMissError(KeyError):
    """A replay-only broker was asked for a request its trace cannot serve."""


class ReplayTrace:
    """On-disk memo of measurement results, one JSONL file per benchmark.

    Records are keyed by ``(unit, configuration, prior observation
    count)``.  ``unit`` is the recording session's identity (a work-unit
    id from the experiment registry, or ``None`` for anonymous
    single-session use); namespacing by it means sessions recording into
    one trace directory never see each other's records through
    :meth:`lookup`, so a *recording* run takes exactly the measurements a
    live run would — observations are never silently reused across plans,
    repetitions or ablation arms.  The same configuration revisited later
    in a run has a different ``prior`` and therefore a different key, so a
    sequential-analysis trajectory replays observation-for-observation.
    Cross-unit serving exists only through :meth:`lookup_shared`, the
    explicit re-scoring path of :class:`ReplayBroker`.

    Files are append-only and written with single ``O_APPEND`` writes, so
    several worker processes can record into one trace directory; lookups
    that miss the in-memory index re-read any lines appended since the
    last read (by this or any other process).  On conflicting duplicate
    keys the first record in file order wins — with unit-namespaced keys a
    duplicate only arises when two hosts executed the same unit (a claim
    takeover), where either trajectory is valid and only one was published.

    Each record also stores the measuring generator's state (and the
    benchmark noise model's drift-walk state) *after* the request was
    satisfied.  Live measurements consume noise draws from the session's
    generator and replayed ones do not, so on a full same-unit replay hit
    the broker restores the recorded states — a re-run of the recorded
    session then follows the recorded trajectory exactly even when parts
    of the trace are missing and the run falls back to live profiling
    mid-way.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        #: (unit, configuration, prior) -> first record, per benchmark.
        self._exact: Dict[
            str, Dict[Tuple[Optional[str], Tuple[int, ...], int], dict]
        ] = {}
        #: (configuration, prior) -> records of every unit in file order,
        #: per benchmark — the re-scoring index.
        self._shared: Dict[str, Dict[Tuple[Tuple[int, ...], int], List[dict]]] = {}
        #: Bytes of complete lines consumed from each benchmark's file.
        self._offsets: Dict[str, int] = {}

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    def _path(self, benchmark: str) -> pathlib.Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in benchmark)
        return self._directory / f"{safe}.jsonl"

    def _ingest(self, benchmark: str, record: dict) -> None:
        try:
            key = (
                record.get("unit"),
                tuple(int(v) for v in record["configuration"]),
                int(record["prior"]),
            )
        except (KeyError, TypeError, ValueError):
            return  # malformed record: skip, as with torn lines
        exact = self._exact[benchmark]
        if key in exact:
            return  # first record wins; re-reads of our own appends too
        exact[key] = record
        self._shared[benchmark].setdefault(key[1:], []).append(record)

    def _refresh(self, benchmark: str) -> None:
        """Index any complete lines appended since the last read — by this
        process or a concurrent recorder sharing the trace directory."""
        path = self._path(benchmark)
        offset = self._offsets[benchmark]
        try:
            size = path.stat().st_size
        except OSError:
            return
        if size <= offset:
            return
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
        # Only consume up to the last newline: a torn tail (a recorder
        # mid-append, or killed mid-write) is left for a later refresh.
        end = data.rfind(b"\n")
        if end < 0:
            return
        self._offsets[benchmark] = offset + end + 1
        for line in data[: end + 1].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # torn/corrupt line of a killed recorder
            self._ingest(benchmark, record)

    def _load(self, benchmark: str) -> None:
        if benchmark not in self._exact:
            self._exact[benchmark] = {}
            self._shared[benchmark] = {}
            self._offsets[benchmark] = 0
            self._refresh(benchmark)

    def lookup(
        self,
        benchmark: str,
        configuration: Sequence[int],
        prior: int,
        unit: Optional[str] = None,
    ) -> Optional[dict]:
        """The result ``unit`` recorded for ``(configuration, prior)``, or
        ``None``.  Only records written under the same unit identity match
        (``None`` matches the anonymous namespace)."""
        key = (unit, tuple(int(v) for v in configuration), int(prior))
        self._load(benchmark)
        record = self._exact[benchmark].get(key)
        if record is None:
            self._refresh(benchmark)
            record = self._exact[benchmark].get(key)
        return record

    def lookup_shared(
        self, benchmark: str, configuration: Sequence[int], prior: int
    ) -> List[dict]:
        """Every unit's records for ``(configuration, prior)``, in file
        order — the cross-unit re-scoring index (see
        :class:`ReplayBroker`'s ``rescore_from``)."""
        key = (tuple(int(v) for v in configuration), int(prior))
        self._load(benchmark)
        records = self._shared[benchmark].get(key)
        if not records:
            self._refresh(benchmark)
            records = self._shared[benchmark].get(key)
        return list(records) if records else []

    def record(
        self,
        benchmark: str,
        configuration: Sequence[int],
        prior: int,
        result: MeasurementResult,
        rng_state: Optional[dict] = None,
        unit: Optional[str] = None,
        artifact: Optional[str] = None,
        noise_state: Optional[List[float]] = None,
    ) -> None:
        """Append one result to the trace (and the in-memory index)."""
        record = {
            "unit": unit,
            "artifact": artifact,
            "configuration": [int(v) for v in configuration],
            "prior": int(prior),
            "runtimes": list(result.runtimes),
            "compile": list(result.compile_seconds),
            "rng_state": rng_state,
            "noise_state": noise_state,
        }
        line = (json.dumps(record) + "\n").encode("utf-8")
        fd = os.open(
            self._path(benchmark), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self._load(benchmark)
        self._ingest(benchmark, record)

    def __len__(self) -> int:
        """Recorded entries across every benchmark file in the directory."""
        total = 0
        for path in self._directory.glob("*.jsonl"):
            with open(path, "r", encoding="utf-8") as handle:
                total += sum(1 for line in handle if line.strip())
        return total


def _replay_length(request: MeasurementRequest, runtimes: List[float]) -> Optional[int]:
    """How many recorded runtimes the request's stopping rule consumes.

    Returns ``None`` when the record cannot satisfy the request (too few
    runtimes for the rule to terminate) — the broker treats that as a miss.
    """
    if len(runtimes) < request.repetitions:
        return None
    taken = request.repetitions
    if request.ci_threshold is None:
        return taken
    stats = _stats_after(request)
    stats.extend(runtimes[:taken])
    while (
        stats.count < request.max_observations
        and not stats.summary().passes_ci_validation(request.ci_threshold)
    ):
        if taken >= len(runtimes):
            return None
        stats.add(runtimes[taken])
        taken += 1
    return taken


class ReplayBroker:
    """Serve measurement requests from a recorded trace; record on miss.

    ``fallback`` (typically a :class:`ProfilerBroker`) satisfies and
    records requests the trace cannot answer; without one a miss raises
    :class:`ReplayMissError`.

    ``unit`` is the session's identity (a work-unit id, or ``None`` for
    anonymous single-session use) and namespaces everything the broker
    records: requests only replay against records *this same unit* wrote,
    so concurrent or sequential units sharing one trace directory never
    contaminate each other's measurement streams.  ``rng`` is the
    session's generator and ``noise_model`` the benchmark's (stateful)
    noise model: their states are recorded after every live measurement
    and restored on every full same-unit replay hit, which keeps a
    replayed session on the recorded trajectory — including any live
    fallback after a partial replay — without consuming noise draws.
    Recorded states are never restored from another unit's records.

    ``rescore_from`` opts in to the explicit cross-unit re-scoring mode:
    a request missing from the unit's own namespace may be served from a
    record one of the named *artifacts* wrote (any unit).  Shared records
    supply their observations common-random-numbers style but never their
    RNG or noise state, which belong to the session that recorded them.
    Record a trace first and re-score against it in a later run:
    re-scoring against a trace that is still being recorded serves
    whatever happens to be on disk at lookup time and is therefore not
    deterministic.

    ``hits``/``shared_hits``/``misses`` count same-unit replays,
    cross-unit re-scoring serves and fell-back requests.
    """

    def __init__(
        self,
        trace: "ReplayTrace | os.PathLike",
        fallback: Optional[MeasurementBroker] = None,
        rng: Optional[np.random.Generator] = None,
        noise_model: Optional[NoiseModel] = None,
        unit: Optional[str] = None,
        artifact: Optional[str] = None,
        rescore_from: Sequence[str] = (),
    ) -> None:
        self._trace = trace if isinstance(trace, ReplayTrace) else ReplayTrace(trace)
        self._fallback = fallback
        self._rng = rng
        self._noise_model = noise_model
        self._unit = unit
        self._artifact = artifact
        self._rescore_from = tuple(rescore_from)
        self.hits = 0
        self.shared_hits = 0
        self.misses = 0

    @property
    def trace(self) -> ReplayTrace:
        return self._trace

    @property
    def unit(self) -> Optional[str]:
        return self._unit

    def _serve(
        self, request: MeasurementRequest, runtimes: List[float], taken: int,
        record: dict,
    ) -> MeasurementResult:
        return MeasurementResult(
            configuration=request.configuration,
            runtimes=tuple(runtimes[:taken]),
            compile_seconds=tuple(float(v) for v in record.get("compile", ())),
        )

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        record = self._trace.lookup(
            request.benchmark,
            request.configuration,
            request.prior_observations,
            unit=self._unit,
        )
        if record is not None:
            runtimes = [float(v) for v in record["runtimes"]]
            taken = _replay_length(request, runtimes)
            if taken is not None:
                self.hits += 1
                if taken == len(runtimes):
                    # Full same-unit replay: put the generator and the
                    # noise model's drift walk where the recording left
                    # them, so a live fallback later in the run continues
                    # the recorded trajectory exactly.
                    if (
                        self._rng is not None
                        and record.get("rng_state") is not None
                    ):
                        self._rng.bit_generator.state = record["rng_state"]
                    if (
                        self._noise_model is not None
                        and record.get("noise_state") is not None
                    ):
                        self._noise_model.restore_drift_state(
                            record["noise_state"]
                        )
                return self._serve(request, runtimes, taken, record)
        for shared in self._shared_candidates(request):
            runtimes = [float(v) for v in shared["runtimes"]]
            taken = _replay_length(request, runtimes)
            if taken is not None:
                # Cross-unit re-scoring: serve the foreign observations,
                # but never the foreign RNG/noise state — injecting
                # another session's mid-run state would correlate draws
                # across units.
                self.shared_hits += 1
                return self._serve(request, runtimes, taken, shared)
        if self._fallback is None:
            raise ReplayMissError(
                f"trace at {self._trace.directory} has no record for "
                f"benchmark {request.benchmark!r}, configuration "
                f"{request.configuration} at prior count "
                f"{request.prior_observations} (unit {self._unit!r}), and no "
                f"fallback broker was given"
            )
        self.misses += 1
        result = self._fallback.measure(request)
        rng_state = None
        if self._rng is not None:
            state = self._rng.bit_generator.state
            rng_state = json.loads(json.dumps(state))  # plain-JSON deep copy
        noise_state = None
        if self._noise_model is not None:
            noise_state = list(self._noise_model.drift_state())
        self._trace.record(
            request.benchmark,
            request.configuration,
            request.prior_observations,
            result,
            rng_state=rng_state,
            unit=self._unit,
            artifact=self._artifact,
            noise_state=noise_state,
        )
        return result

    def _shared_candidates(self, request: MeasurementRequest) -> List[dict]:
        if not self._rescore_from:
            return []
        return [
            record
            for record in self._trace.lookup_shared(
                request.benchmark,
                request.configuration,
                request.prior_observations,
            )
            if record.get("artifact") in self._rescore_from
        ]
