"""The simulated profiler: compile + run a configuration, charging cost.

In the paper every training example is obtained by compiling a SPAPT kernel
with a particular set of optimization parameters and running the binary one
or more times; the *cost* of learning is the cumulative compilation and
runtime of everything executed during training (Section 4.3).

This module provides the same interface against the simulated substrate:

* :class:`TunableProgram` is the protocol any benchmark must satisfy — it
  exposes the deterministic *true* runtime and compile time for a
  configuration plus a noise model and a per-configuration noise
  sensitivity.  The SPAPT substrate (:mod:`repro.spapt`) implements it by
  applying IR transformations and the machine cost model.
* :class:`Profiler` turns configurations into noisy observations, caching
  "binaries" so that a configuration is only charged its compile time the
  first time it is compiled (exactly as a real harness caches binaries), and
  accumulating the cost ledger the experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .noise import NoiseModel
from .stats import RunningStats, SampleSummary

__all__ = ["TunableProgram", "CostLedger", "Observation", "Profiler"]


class TunableProgram(Protocol):
    """The interface the profiler needs from a benchmark.

    ``Configuration`` objects are treated opaquely; they only need to be
    hashable (the SPAPT substrate uses tuples of parameter values).
    """

    name: str

    def true_runtime(self, configuration: Sequence[int]) -> float:
        """Deterministic mean runtime (seconds) of the configuration."""
        ...

    def compile_time(self, configuration: Sequence[int]) -> float:
        """Compilation time (seconds) charged the first time a configuration is built."""
        ...

    def noise_sensitivity(self, configuration: Sequence[int]) -> float:
        """Heteroskedasticity knob in [0, 1] for this configuration."""
        ...

    @property
    def noise_model(self) -> NoiseModel:
        """The noise model perturbing this benchmark's measurements."""
        ...


@dataclass
class CostLedger:
    """Running account of simulated profiling cost.

    The experiments plot model error against *evaluation time*, defined in
    the paper as cumulative compilation plus runtime cost of everything
    executed during training.  The ledger tracks both parts separately so
    ablations can report them independently.
    """

    compile_seconds: float = 0.0
    runtime_seconds: float = 0.0
    compilations: int = 0
    executions: int = 0

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.runtime_seconds

    def charge_compile(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("compile time cannot be negative")
        self.compile_seconds += seconds
        self.compilations += 1

    def charge_run(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("runtime cannot be negative")
        self.runtime_seconds += seconds
        self.executions += 1

    def snapshot(self) -> "CostLedger":
        """An independent copy of the current totals."""
        return CostLedger(
            compile_seconds=self.compile_seconds,
            runtime_seconds=self.runtime_seconds,
            compilations=self.compilations,
            executions=self.executions,
        )


@dataclass(frozen=True)
class Observation:
    """A single profiled execution of a configuration."""

    configuration: Tuple[int, ...]
    runtime: float
    index: int


class Profiler:
    """Compile-and-measure front end over a :class:`TunableProgram`.

    The profiler owns the random generator used for noise so that an
    experiment seeded once produces the exact same stream of measurements.
    It keeps, per configuration, the running statistics of all observations
    taken so far — the sequential-analysis learner reads those to decide
    whether a configuration still looks under-sampled.
    """

    def __init__(
        self,
        program: TunableProgram,
        rng: Optional[np.random.Generator] = None,
        charge_compile_once: bool = True,
    ) -> None:
        self._program = program
        self._rng = rng if rng is not None else np.random.default_rng()
        self._charge_compile_once = charge_compile_once
        self._ledger = CostLedger()
        self._compiled: set[Hashable] = set()
        self._stats: Dict[Tuple[int, ...], RunningStats] = {}
        self._observations: List[Observation] = []

    @property
    def program(self) -> TunableProgram:
        return self._program

    # ---------------------------------------------------------- checkpointing

    def __getstate__(self) -> dict:
        """Pickle everything except the program (benchmarks hold unpicklable
        memoisation caches); :meth:`attach_program` reattaches one on resume."""
        state = self.__dict__.copy()
        state["_program"] = None
        return state

    def attach_program(self, program: TunableProgram) -> None:
        """Reattach a program to an unpickled profiler.

        The profiler's own state (ledger, per-configuration statistics,
        compiled set, generator) is restored by pickle; the program is
        supplied by the checkpoint owner, which must also restore any
        stateful noise components the program carries.
        """
        self._program = program

    @property
    def ledger(self) -> CostLedger:
        return self._ledger

    @property
    def observations(self) -> Tuple[Observation, ...]:
        return tuple(self._observations)

    def observation_count(self, configuration: Sequence[int]) -> int:
        """How many times ``configuration`` has been measured so far."""
        key = tuple(configuration)
        stats = self._stats.get(key)
        return stats.count if stats is not None else 0

    def summary(self, configuration: Sequence[int]) -> SampleSummary:
        """Summary statistics of all observations of ``configuration``."""
        key = tuple(configuration)
        if key not in self._stats:
            raise KeyError(f"configuration {key} has never been measured")
        return self._stats[key].summary()

    def mean_runtime(self, configuration: Sequence[int]) -> float:
        """Mean of the observations taken so far for ``configuration``."""
        key = tuple(configuration)
        if key not in self._stats:
            raise KeyError(f"configuration {key} has never been measured")
        return self._stats[key].mean

    def measure(self, configuration: Sequence[int], repetitions: int = 1) -> np.ndarray:
        """Compile (if needed) and run ``configuration`` ``repetitions`` times.

        Every execution charges its observed runtime to the ledger; the
        compile time is charged only on the first build of a configuration
        (binaries are cached), unless the profiler was constructed with
        ``charge_compile_once=False`` in which case each call recompiles.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        key = tuple(int(v) for v in configuration)
        self._ensure_compiled(key)
        true_runtime = self._program.true_runtime(key)
        sensitivity = self._program.noise_sensitivity(key)
        stats = self._stats.setdefault(key, RunningStats())
        results = np.empty(repetitions, dtype=float)
        for i in range(repetitions):
            observed = self._program.noise_model.observe(
                true_runtime, self._rng, sensitivity=sensitivity
            )
            self._ledger.charge_run(observed)
            stats.add(observed)
            self._observations.append(
                Observation(configuration=key, runtime=observed, index=stats.count)
            )
            results[i] = observed
        return results

    def measure_many(
        self, configurations: Iterable[Sequence[int]], repetitions: int = 1
    ) -> List[np.ndarray]:
        """Measure several configurations, returning one array per configuration."""
        return [self.measure(cfg, repetitions=repetitions) for cfg in configurations]

    def _ensure_compiled(self, key: Tuple[int, ...]) -> None:
        if self._charge_compile_once and key in self._compiled:
            return
        compile_seconds = self._program.compile_time(key)
        self._ledger.charge_compile(compile_seconds)
        self._compiled.add(key)
