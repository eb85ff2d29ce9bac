"""Declarative experiment registry: every paper artifact as work units.

The registry is the only way an artifact is computed.  It gives *every*
artifact — tables, figures, the noise-robustness study, the ablations —
the same shape:

* an :class:`ExperimentSpec` declares how the artifact **decomposes** into
  seeded, order-independent, checkpointable :class:`WorkUnit`\\ s for a
  given :class:`~repro.experiments.config.ExperimentScale`, how one unit
  **executes** (a picklable payload per unit), and how completed payloads
  **fold** back into the artifact's report object;
* the registry maps artifact names (``table1`` … ``figure6``,
  ``noise_robustness``, ``acquisition-ablation``, ``model-ablation``)
  to their specs and resolves dependency closures
  (Figures 5 and 6 fold from Table 1's comparisons instead of recomputing
  them);
* one executor core runs the units and folds them for both backends:
  :class:`UnitExecution` executes a unit under its :class:`UnitContext`,
  :func:`map_units` runs units in-process or over a process pool, and
  :func:`fold_artifacts` folds each artifact from what its backend
  collected.  :func:`run_artifacts` is that core in memory — the sharded
  backend (:mod:`repro.experiments.runner`) without its run directory —
  and the runner executes the *same* units through it from an on-disk
  queue across processes and hosts.  In-process callers take one
  artifact as ``run_artifacts(scale, [name])[name]``.

Unit payloads must be picklable and model-free (surrogate models are
stripped before publication); unit parameters must be JSON-serialisable so
the manifest can round-trip them.

:func:`execute_learner_run` is the shared work-unit body for every
artifact whose unit is "one active-learner run" (Table 1, the ablations):
it seeds each run with :func:`repro.core.comparison.run_seeds` on a fresh
benchmark instance and supports mid-unit checkpoint/resume through a
:class:`UnitContext`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import importlib
import os
import pathlib
import pickle
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.comparison import ComparisonConfig, resolve_acquisition, run_seeds
from ..core.evaluation import TestSet, build_test_set
from ..core.learner import ActiveLearner, LearningResult
from ..core.plans import SamplingPlan
from ..core.session import TuningSession
from ..measurement.broker import ReplayBroker, ReplayTrace
from ..measurement.faults import BrokerPolicy
from ..measurement.noise import NoiseModel
from ..spapt.suite import SpaptBenchmark, get_benchmark
from .config import ExperimentScale
from .profiling import profile_unit_call

__all__ = [
    "WorkUnit",
    "UnitContext",
    "ExperimentSpec",
    "register",
    "get_spec",
    "spec_names",
    "resolve_artifacts",
    "run_artifacts",
    "execute_learner_run",
    "group_learner_results",
    "DEFAULT_ARTIFACTS",
    "slugify",
]

#: The artifacts of the consolidated report, in report order (Figures 5
#: and 6 come last because they fold from Table 1's comparisons).
DEFAULT_ARTIFACTS: Tuple[str, ...] = (
    "table2",
    "figure1",
    "figure2",
    "table1",
    "figure5",
    "figure6",
)

#: Modules that register the built-in specs when imported.
_BUILTIN_MODULES: Tuple[str, ...] = (
    "table1",
    "table2",
    "figure1",
    "figure2",
    "figure5",
    "figure6",
    "noise_robustness",
    "ablations",
)


def slugify(text: str) -> str:
    """Filesystem-safe identifier component (used in unit ids and paths)."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in text)


@dataclass(frozen=True)
class WorkUnit:
    """One independent, seeded slice of an artifact's computation.

    ``key`` is the human-readable identity (it becomes the unit's
    filesystem id); ``params`` carries whatever the spec's
    ``execute_unit`` needs and must round-trip through JSON.
    """

    artifact: str
    key: Tuple[str, ...]
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def unit_id(self) -> str:
        """Filesystem-safe identifier, stable across runs and hosts."""
        parts = (self.artifact,) + tuple(self.key)
        return "--".join(slugify(str(part)) for part in parts)

    def to_record(self) -> dict:
        return {
            "kind": "unit",
            "artifact": self.artifact,
            "key": list(self.key),
            "params": dict(self.params),
        }

    @classmethod
    def from_record(cls, record: dict) -> "WorkUnit":
        return cls(
            artifact=record["artifact"],
            key=tuple(str(part) for part in record["key"]),
            params=dict(record.get("params", {})),
        )


class UnitContext:
    """What an executing unit learns about its run, plus checkpointing.

    Built from the executing unit, a context takes the unit's identity
    and its spec's :attr:`ExperimentSpec.replay_rescore_from` itself.
    The base class does not checkpoint; the sharded runner's file-backed
    subclass adds that, committing each checkpoint — state, digest and
    example progress, which feeds the ETA display — into one of the
    unit's two slot files, and points :attr:`inputs_dir` at its run
    directory.  Specs whose units are long learner runs route these
    through :func:`execute_learner_run`; short units ignore them.
    """

    #: Training examples between checkpoints; 0, the in-memory base
    #: context's value, disables checkpointing.  The sharded runner always
    #: checkpoints (:class:`~repro.experiments.runner.ExperimentRunner`
    #: requires an interval of at least 1).
    checkpoint_interval: int = 0

    #: Directory of a measurement trace (see
    #: :class:`~repro.measurement.broker.ReplayTrace`); when set, learner
    #: units measure through a :class:`~repro.measurement.broker.ReplayBroker`
    #: over this trace — requests this unit recorded before replay without
    #: profiling, misses fall back to the live profiler and are recorded.
    #: ``None`` measures live (the default).
    replay_trace: Optional[str] = None

    #: Identity of the executing work unit (:attr:`WorkUnit.unit_id`) and
    #: its artifact name.  Trace records are namespaced by the unit id, so
    #: the many units of a recording run stay statistically independent of
    #: each other; a context built from a unit sets both.  Direct API
    #: callers whose context has no unit get a per-run namespace
    #: derived from the run's identity by :func:`execute_learner_run`.
    unit_id: Optional[str] = None
    artifact: Optional[str] = None

    #: Artifacts whose recorded trace entries this unit may *re-score*
    #: from: a request missing from the unit's own namespace is served
    #: from a record one of these artifacts wrote (observations only —
    #: never the foreign RNG/noise state).  Taken from the unit's spec.
    replay_rescore_from: Tuple[str, ...] = ()

    #: Fault-tolerance policy for the unit's measurements (see
    #: :class:`~repro.measurement.faults.BrokerPolicy`): retries with
    #: backoff, per-request deadlines, and — for chaos testing — seeded
    #: fault injection.  ``None`` (or an inactive policy) measures through
    #: the bare broker chain.
    broker_policy: Optional[BrokerPolicy] = None

    #: Directory where learner units share their held-out test sets across
    #: processes and hosts (see :func:`_held_out_test_set`): the sharded
    #: runner's ``<run_dir>/inputs``.  ``None`` keeps them in the process
    #: memo only (the in-memory backend).
    inputs_dir: Optional[str] = None

    def __init__(
        self,
        unit: Optional[WorkUnit] = None,
        replay_trace: Optional[str] = None,
        broker_policy: Optional[BrokerPolicy] = None,
    ) -> None:
        self.replay_trace = replay_trace
        self.broker_policy = broker_policy
        if unit is not None:
            self.unit_id = unit.unit_id
            self.artifact = unit.artifact
            self.replay_rescore_from = tuple(
                get_spec(unit.artifact).replay_rescore_from
            )

    def load_checkpoint(self) -> Optional[Any]:
        """The unit's most recent checkpoint, or None to start fresh."""
        return None

    def save_checkpoint(self, state: Any, done: int, target: int) -> None:
        """Persist ``state`` (must serialise before returning) together with
        the unit's progress: ``done`` of ``target`` training examples."""


class ExperimentSpec(ABC):
    """How one paper artifact decomposes, executes and folds.

    Subclasses declare ``name`` (the registry key), ``title`` (for report
    headers) and optionally ``depends_on`` (artifacts whose folded results
    this artifact's fold consumes — e.g. Figure 5 folds from Table 1 and
    contributes no units of its own).
    """

    name: str = "abstract"
    title: str = "abstract"
    depends_on: Tuple[str, ...] = ()

    #: Artifacts whose recorded measurement traces this artifact's learner
    #: units may re-score from when running with a replay trace (see
    #: :attr:`UnitContext.replay_rescore_from`).  Empty (the default)
    #: means units only ever replay records they wrote themselves — the
    #: safe record/replay mode.  The ablation specs set ``("table1",)`` to
    #: enable the record-table1-then-re-score workflow; re-score against a
    #: *completed* trace, not one still being recorded.
    replay_rescore_from: Tuple[str, ...] = ()

    @abstractmethod
    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        """Decompose the artifact into order-independent units."""

    @abstractmethod
    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> Any:
        """Run one unit to completion and return its picklable payload."""

    @abstractmethod
    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> Any:
        """Fold completed unit payloads (manifest order) into the report
        object; ``deps`` maps each name in ``depends_on`` to that
        artifact's folded result.  The returned object must expose
        ``render() -> str``."""

    def fingerprint_extras(self) -> Tuple:
        """Extra spec constants that belong in the fingerprint (e.g. an
        ablation's variant list).  Override this, not :meth:`fingerprint`,
        so the hashing scheme stays in one place."""
        return ()

    def fingerprint(self, scale: ExperimentScale) -> str:
        """Digest identifying this artifact's configuration at ``scale``.

        Used by the sharded runner to refuse resuming a run directory
        with a different experiment.  Folds the spec identity, the full
        scale repr and :meth:`fingerprint_extras`.
        """
        blob = repr(
            (type(self).__qualname__, self.name, self.fingerprint_extras(), scale)
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


_REGISTRY: Dict[str, ExperimentSpec] = {}
_BUILTINS_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (idempotent per name; re-registration
    replaces, which keeps module reloads harmless)."""
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(f"{__package__}.{module}")


def spec_names() -> List[str]:
    """Every registered artifact name (sorted: registration order depends
    on module import order, which is an implementation detail)."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def get_spec(name: str) -> ExperimentSpec:
    """Look up an artifact spec by name."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown artifact {name!r}; registered: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[name]


def resolve_artifacts(
    names: Optional[Sequence[str]] = None,
) -> List[ExperimentSpec]:
    """Specs for ``names`` (default: the consolidated report) plus their
    dependency closure, in execution order (dependencies first, requested
    order otherwise preserved)."""
    requested = list(names) if names is not None else list(DEFAULT_ARTIFACTS)
    ordered: List[ExperimentSpec] = []
    seen: Dict[str, bool] = {}  # name -> fully resolved (False = in progress)

    def visit(name: str) -> None:
        if seen.get(name):
            return
        if name in seen:
            raise ValueError(f"artifact dependency cycle through {name!r}")
        seen[name] = False
        spec = get_spec(name)
        for dependency in spec.depends_on:
            visit(dependency)
        seen[name] = True
        ordered.append(spec)

    for name in requested:
        visit(name)
    return ordered


# ------------------------------------------ execution (core of both backends)


def _atomic_write_bytes(path: pathlib.Path, payload: bytes) -> None:
    """Write ``payload`` so that ``path`` is either absent, old or complete.

    The temporary file lives in the target directory (same filesystem) and
    carries the writer's pid and thread, so concurrent workers never
    collide (two runners may share one process, as threads) and a crash
    mid-write leaves at worst a stray ``*.tmp`` behind.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True)
class UnitExecution:
    """What every unit of one run shares: the scale and the options each
    unit's context carries.  It pickles, so a pool worker receives it
    with its unit; calling it executes one unit in memory."""

    scale: ExperimentScale
    replay_trace: Optional[str] = None
    profile_dir: Optional[str] = None
    broker_policy: Optional[BrokerPolicy] = None

    def execute(self, unit: WorkUnit, context: UnitContext) -> Any:
        """Run ``unit`` under ``context``, with per-unit cProfile dumps
        when ``profile_dir`` is set (see :mod:`repro.experiments.profiling`)."""
        spec = get_spec(unit.artifact)
        return profile_unit_call(
            self.profile_dir,
            unit.unit_id,
            lambda: spec.execute_unit(unit, self.scale, context),
        )

    def __call__(self, unit: WorkUnit) -> Any:
        return self.execute(
            unit, UnitContext(unit, self.replay_trace, self.broker_policy)
        )


def map_units(
    job: Callable[[WorkUnit], Any],
    units: Sequence[WorkUnit],
    workers: int,
    on_done: Callable[[WorkUnit, Any], None],
    on_wake: Optional[Callable[[], None]] = None,
    wake_seconds: Optional[float] = None,
) -> None:
    """Run ``job(unit)`` for every unit; ``on_done(unit, result)`` fires
    as each one finishes.

    ``workers <= 1`` runs the units in-process, in order.  Otherwise a
    pool of ``min(workers, len(units))`` processes runs them (``job``
    must pickle) and ``on_wake`` fires each time the collecting loop
    wakes: when units finished, or after ``wake_seconds`` without one.
    An error fails fast: it cancels every queued unit before it
    propagates, where leaving the pool would first run the whole queue —
    hours of doomed compute at paper scale.
    """
    if workers <= 1 or not units:
        for unit in units:
            on_done(unit, job(unit))
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(units))) as pool:
        futures = {pool.submit(job, unit): unit for unit in units}
        outstanding = set(futures)
        try:
            while outstanding:
                finished, outstanding = wait(
                    outstanding, timeout=wake_seconds, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    on_done(futures[future], future.result())
                if on_wake is not None:
                    on_wake()
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def failure_summary_line(record: dict) -> str:
    """One human-readable line for a quarantined unit's failure record."""
    attempts = record.get("attempts", [])
    last_error = ""
    if attempts:
        lines = [
            line
            for line in str(attempts[-1].get("error", "")).strip().splitlines()
            if line.strip()
        ]
        last_error = lines[-1].strip() if lines else ""
    return (
        f"{record.get('unit', '?')}: {len(attempts)} failed attempt(s)"
        + (f"; last error: {last_error}" if last_error else "")
    )


class PartialArtifactResult:
    """A folded artifact missing some quarantined units, plus its coverage.

    Wraps the spec's folded result (built from the completed units only)
    and prepends an explicit coverage report to :meth:`render`, so a
    degraded report can never be mistaken for a complete one.  Attribute
    access delegates to the wrapped result, which keeps dependent folds
    working (Figure 5 reads ``.comparisons`` off Table 1 whether or not
    Table 1 is partial).  Only :func:`fold_artifacts` builds one.
    """

    def __init__(
        self, result: Any, completed_units: int, quarantined: Sequence[dict]
    ) -> None:
        self.result = result
        self.completed_units = completed_units
        self.quarantined = list(quarantined)

    def coverage_report(self) -> str:
        total = self.completed_units + len(self.quarantined)
        lines = [
            f"!! PARTIAL RESULT: {self.completed_units}/{total} "
            f"units folded; {len(self.quarantined)} quarantined:"
        ]
        lines.extend(
            f"!!   {failure_summary_line(record)}" for record in self.quarantined
        )
        return "\n".join(lines)

    def render(self) -> str:
        return self.coverage_report() + "\n\n" + self.result.render()

    def __getattr__(self, name: str) -> Any:
        # Only ``result``'s own fields delegate.  ``copy`` and ``pickle``
        # probe dunders on an instance whose ``__init__`` has not run, and
        # delegating ``result`` itself there would recurse without end.
        if name == "result" or (name.startswith("__") and name.endswith("__")):
            raise AttributeError(name)
        return getattr(self.result, name)


#: What a backend collects for one artifact: its completed (unit, payload)
#: pairs in manifest order, and the failure records of its quarantined units.
Collected = Tuple[List[Tuple[WorkUnit, Any]], List[dict]]


def fold_artifacts(
    scale: ExperimentScale,
    specs: Sequence[ExperimentSpec],
    collect: Callable[[ExperimentSpec], Collected],
    on_result: Optional[Callable[[ExperimentSpec, Any], None]] = None,
) -> Dict[str, Any]:
    """Fold ``specs`` in order (dependencies first) — the fold loop of
    both backends.

    ``collect(spec)`` executes or loads the spec's units.  A spec with
    quarantined units folds from the completed ones and comes back
    wrapped in :class:`PartialArtifactResult`.  ``on_result`` fires with
    ``(spec, result)`` after each fold.
    """
    results: Dict[str, Any] = {}
    for spec in specs:
        pairs, quarantined = collect(spec)
        deps = {name: results[name] for name in spec.depends_on}
        result = spec.fold(scale, pairs, deps)
        if quarantined:
            result = PartialArtifactResult(result, len(pairs), quarantined)
        results[spec.name] = result
        if on_result is not None:
            on_result(spec, result)
    return results


def run_artifacts(
    scale: ExperimentScale,
    artifacts: Optional[Sequence[str]] = None,
    workers: int = 1,
    on_result: Optional[Callable[[ExperimentSpec, Any], None]] = None,
    replay_trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
    broker_policy: Optional[BrokerPolicy] = None,
) -> Dict[str, Any]:
    """Execute and fold artifacts in dependency order, in memory.

    The sharded backend's core without its run directory: the same
    units, seeding, worker map and folds, but no on-disk queue, claims or
    checkpoints.  ``workers == 1`` runs in-process; larger values fan each
    artifact's units out over a process pool, with identical results.
    ``on_result`` fires after each artifact folds (dependency-closure
    artifacts included), which is what lets the report stream section by
    section.  ``replay_trace`` names a measurement-trace directory:
    learner runs replay recorded measurements and record whatever they
    had to measure live, so a second run (or a re-scoring of different
    acquisition arms) profiles only what the trace does not already hold.
    ``profile_dir`` turns on per-unit cProfile dumps (the caller merges
    them, see :func:`repro.experiments.profiling.write_profile_summary`).
    ``broker_policy`` arms the fault-tolerance broker chain around each
    unit's measurements (see
    :class:`~repro.measurement.faults.BrokerPolicy`).  There is no
    quarantine here: a permanently failed measurement raises its
    :class:`~repro.measurement.faults.MeasurementFailedError` at any
    worker count (graceful degradation is the sharded runner's job).
    """
    execution = UnitExecution(scale, replay_trace, profile_dir, broker_policy)

    def collect(spec: ExperimentSpec) -> Collected:
        units = spec.work_units(scale)
        payloads: Dict[str, Any] = {}

        def done(unit: WorkUnit, payload: Any) -> None:
            payloads[unit.unit_id] = payload

        map_units(execution, units, workers, done)
        return [(unit, payloads[unit.unit_id]) for unit in units], []

    return fold_artifacts(scale, resolve_artifacts(artifacts), collect, on_result)


def group_learner_results(
    payloads: Sequence[Tuple[WorkUnit, Any]],
    benchmarks: Sequence[str],
    labels: Sequence[str],
    axis_param: str,
) -> Dict[str, Dict[str, List[Any]]]:
    """Group learner-run payloads by (benchmark × axis label), each list
    sorted by repetition — the shape
    :func:`~repro.core.comparison.assemble_comparison` consumes.

    ``axis_param`` names the unit parameter carrying the label:
    ``"plan_name"`` for Table 1, ``"variant"`` for the ablation specs.
    """
    grouped: Dict[str, Dict[str, List[Tuple[int, Any]]]] = {
        name: {label: [] for label in labels} for name in benchmarks
    }
    for unit, result in payloads:
        grouped[str(unit.params["benchmark"])][str(unit.params[axis_param])].append(
            (int(unit.params["repetition"]), result)
        )
    return {
        name: {
            label: [result for _, result in sorted(runs, key=lambda item: item[0])]
            for label, runs in per_label.items()
        }
        for name, per_label in grouped.items()
    }


#: Most held-out test sets one process keeps (see :func:`_held_out_test_set`).
_TEST_SET_MEMO_SIZE = 16

#: (benchmark, size, observations, seed) -> the test set and a copy of the
#: benchmark's noise model right after the build, least recently used first.
_TEST_SET_MEMO: "OrderedDict[Tuple[str, int, int, int], Tuple[TestSet, NoiseModel]]"
_TEST_SET_MEMO = OrderedDict()


def _read_shared_test_set(
    path: pathlib.Path,
) -> Optional[Tuple[TestSet, NoiseModel]]:
    """The (test set, noise snapshot) pair a peer published at ``path``, or
    None when the file is missing or fails its digest or unpickling.

    Any unpickling error counts as a failed verification — a run directory
    resumed after the pickled classes moved raises ImportError or
    TypeError, not only UnpicklingError — so the caller rebuilds the set
    and overwrites the file instead of failing on every attempt.
    """
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    line, _, payload = blob.partition(b"\n")
    if line != hashlib.sha256(payload).hexdigest().encode("ascii"):
        return None
    try:
        return pickle.loads(payload)
    except Exception:
        return None


def _held_out_test_set(
    benchmark: SpaptBenchmark,
    size: int,
    observations: int,
    seed: int,
    inputs_dir: Optional[str] = None,
) -> TestSet:
    """The held-out test set of a freshly built ``benchmark``, profiled at
    most once per process, and once per run directory when ``inputs_dir``
    is set.

    Every plan (or variant) of a repetition is scored on the same test
    set, so the learner units of one (benchmark, repetition) would
    otherwise profile it once each.  Building it advances the benchmark's
    drift walk, the benchmark's only state; on a memo hit the benchmark
    gets a copy of the noise model as it stood after the build, so the
    unit runs exactly as if it had built the set itself.  The arrays of a
    memoized set are read-only, since units share it.

    On a memo miss with ``inputs_dir`` set, the set comes from
    ``<inputs_dir>/testset-<benchmark>-<size>x<observations>-s<seed>.pkl``
    when that file verifies: a sha256 line, then the pickled (test set,
    noise snapshot) pair the memo keeps, published by whichever unit of
    the repetition built it first, on any worker or host.  A file that is
    missing or fails verification is rebuilt and rewritten; units that
    build it concurrently write identical bytes, so their race is benign.
    """
    key = (benchmark.name, size, observations, seed)
    entry = _TEST_SET_MEMO.get(key)
    if entry is not None:
        _TEST_SET_MEMO.move_to_end(key)
    else:
        path = None
        if inputs_dir is not None:
            path = pathlib.Path(inputs_dir) / (
                f"testset-{slugify(benchmark.name)}-{size}x{observations}-s{seed}.pkl"
            )
            entry = _read_shared_test_set(path)
        if entry is None:
            test_set = build_test_set(
                benchmark,
                size=size,
                observations=observations,
                rng=np.random.default_rng(seed),
            )
            entry = (test_set, copy.deepcopy(benchmark.noise_model))
            if path is not None:
                payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
                digest = hashlib.sha256(payload).hexdigest().encode("ascii")
                _atomic_write_bytes(path, digest + b"\n" + payload)
            _memoize_test_set(key, entry)
            return test_set
        _memoize_test_set(key, entry)
    test_set, noise_model = entry
    benchmark.restore_noise_model(copy.deepcopy(noise_model))
    return test_set


def _memoize_test_set(
    key: Tuple[str, int, int, int], entry: Tuple[TestSet, NoiseModel]
) -> None:
    """Keep ``entry`` in the process memo, its arrays read-only since units
    share them, and drop the least recently used entry past the bound."""
    entry[0].features.setflags(write=False)
    entry[0].mean_runtimes.setflags(write=False)
    _TEST_SET_MEMO[key] = entry
    if len(_TEST_SET_MEMO) > _TEST_SET_MEMO_SIZE:
        _TEST_SET_MEMO.popitem(last=False)


def execute_learner_run(
    benchmark_name: str,
    plan: SamplingPlan,
    plan_index: int,
    repetition: int,
    config: ComparisonConfig,
    acquisition: Optional[object] = None,
    model_factory: Optional[Callable] = None,
    context: Optional[UnitContext] = None,
) -> LearningResult:
    """One seeded active-learner run — the shared learner-unit body.

    Rebuilds the benchmark and takes the repetition's held-out test set
    from their deterministic seeds (:func:`~repro.core.comparison.run_seeds`:
    the test seed depends only on the repetition, the run seed on
    repetition × ``plan_index``; :func:`_held_out_test_set` profiles each
    test set once per process, and once per run directory when the
    context has an ``inputs_dir``), resumes from the context's checkpoint
    when one exists — a pickled
    :class:`~repro.core.session.TuningSession`, whose
    ``attach_benchmark`` restores the benchmark's stateful noise
    components only *after* the test set is taken here, since building
    it advances the drift walk — and returns the result with the
    surrogate model stripped (payloads must stay small and picklable).
    ``plan_index`` is whatever position the run occupies on its
    comparison axis: the sampling-plan index for Table 1, the variant
    index for the ablation specs.  When the context carries a
    ``replay_trace`` directory, measurements go through a
    :class:`~repro.measurement.broker.ReplayBroker` over that trace
    (replay recorded requests, record live-measured misses).
    """
    context = context if context is not None else UnitContext()
    benchmark = get_benchmark(benchmark_name)
    test_seed, run_seed = run_seeds(config, repetition, plan_index)
    test_set = _held_out_test_set(
        benchmark,
        config.test_size,
        config.test_observations,
        test_seed,
        context.inputs_dir,
    )
    resume: Optional[TuningSession] = context.load_checkpoint()
    learner = ActiveLearner(
        benchmark,
        plan=plan,
        acquisition=resolve_acquisition(acquisition),
        config=config.learner,
        model_factory=model_factory,
        rng=np.random.default_rng(run_seed),
    )

    def sink(session: TuningSession) -> None:
        context.save_checkpoint(
            session, session.training_examples, config.learner.max_training_examples
        )

    policy = context.broker_policy
    policy_active = policy is not None and policy.active
    trace = (
        ReplayTrace(context.replay_trace)
        if context.replay_trace is not None
        else None
    )
    broker_factory = None
    if trace is not None or policy_active:
        # Trace records are namespaced by the unit identity, so parallel or
        # sequential units recording into one directory never replay each
        # other's measurements.  Direct API callers without a registry unit
        # id get a namespace derived from the run's identity coordinates.
        # The fault-tolerance policy reuses the same identity for its
        # fail-unit matching, jitter seeding and dead-letter records.
        unit_id = context.unit_id
        if unit_id is None:
            unit_id = "--".join(
                (
                    slugify(benchmark_name),
                    slugify(plan.name),
                    f"p{plan_index:02d}",
                    f"r{repetition:03d}",
                )
            )

        def broker_factory(base, rng):
            # Called after ``attach_benchmark`` on resume, so the noise
            # model read here is the (restored) one measurements go through.
            # Chain order: fault injection and retries wrap the *live*
            # broker; the replay broker sits outermost, so replayed hits
            # never consult the policy (a disk read has nothing to retry)
            # while misses fall through to the resilient live chain.
            broker = base
            if policy_active:
                broker = policy.wrap(broker, unit=unit_id)
            if trace is not None:
                broker = ReplayBroker(
                    trace,
                    fallback=broker,
                    rng=rng,
                    noise_model=benchmark.noise_model,
                    unit=unit_id,
                    artifact=context.artifact,
                    rescore_from=context.replay_rescore_from,
                )
            return broker

    interval = context.checkpoint_interval
    result = learner.run(
        test_set,
        resume=resume,
        checkpoint_interval=interval if interval > 0 else None,
        checkpoint_sink=sink if interval > 0 else None,
        broker_factory=broker_factory,
    )
    return dataclasses.replace(result, model=None)
