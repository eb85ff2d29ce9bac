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
  ``noise_robustness``, ``acquisition-ablation``, ``model-ablation``,
  ``batch-acquisition``) to their specs and resolves dependency closures
  (Figures 5 and 6 fold from Table 1's comparisons instead of recomputing
  them);
* :func:`run_artifacts` is the in-memory executor — the degenerate
  one-worker path of the sharded backend
  (:mod:`repro.experiments.runner`), which executes the *same* units from
  an on-disk queue across processes and hosts.  In-process callers take
  one artifact as ``run_artifacts(scale, [name])[name]``.

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

import dataclasses
import hashlib
import importlib
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
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
from ..core.evaluation import build_test_set
from ..core.learner import ActiveLearner, LearningResult
from ..core.plans import SamplingPlan
from ..core.session import TuningSession
from ..measurement.broker import ReplayBroker, ReplayTrace
from ..measurement.faults import BrokerPolicy
from ..spapt.suite import get_benchmark
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
    """Checkpoint facilities handed to an executing unit.

    The base class is the in-memory no-op (no checkpointing); the sharded
    runner substitutes a file-backed context that commits each checkpoint
    — state, digest and example progress, which feeds the ETA display —
    as one atomically written file.  Specs whose units are long learner
    runs route these through :func:`execute_learner_run`; short units
    ignore them.
    """

    #: Training examples between checkpoints; 0 disables checkpointing.
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
    #: each other; both executors (in-memory and sharded) set these.
    #: Direct API callers that leave them ``None`` get a per-run namespace
    #: derived from the run's identity by :func:`execute_learner_run`.
    unit_id: Optional[str] = None
    artifact: Optional[str] = None

    #: Artifacts whose recorded trace entries this unit may *re-score*
    #: from: a request missing from the unit's own namespace is served
    #: from a record one of these artifacts wrote (observations only —
    #: never the foreign RNG/noise state).  Copied from the executing
    #: spec's :attr:`ExperimentSpec.replay_rescore_from`.
    replay_rescore_from: Tuple[str, ...] = ()

    #: Fault-tolerance policy for the unit's measurements (see
    #: :class:`~repro.measurement.faults.BrokerPolicy`): retries with
    #: backoff, per-request deadlines, and — for chaos testing — seeded
    #: fault injection.  ``None`` (or an inactive policy) measures through
    #: the bare broker chain.
    broker_policy: Optional[BrokerPolicy] = None

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


# --------------------------------------------------------------- execution


def _memory_context(
    replay_trace: Optional[str],
    unit: Optional[WorkUnit] = None,
    spec: Optional[ExperimentSpec] = None,
    broker_policy: Optional[BrokerPolicy] = None,
) -> UnitContext:
    context = UnitContext()
    context.replay_trace = replay_trace
    context.broker_policy = broker_policy
    if unit is not None:
        context.unit_id = unit.unit_id
        context.artifact = unit.artifact
    if spec is not None:
        context.replay_rescore_from = tuple(spec.replay_rescore_from)
    return context


def _execute_unit_job(
    args: Tuple[
        str,
        ExperimentScale,
        dict,
        Optional[str],
        Optional[str],
        Optional[BrokerPolicy],
    ]
) -> Any:
    """Worker-process entry point for the in-memory pool path."""
    spec_name, scale, record, replay_trace, profile_dir, broker_policy = args
    spec = get_spec(spec_name)
    unit = WorkUnit.from_record(record)
    return profile_unit_call(
        profile_dir,
        unit.unit_id,
        lambda: spec.execute_unit(
            unit,
            scale,
            _memory_context(replay_trace, unit, spec, broker_policy),
        ),
    )


def execute_artifact_units(
    spec: ExperimentSpec,
    scale: ExperimentScale,
    workers: int = 1,
    replay_trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
    broker_policy: Optional[BrokerPolicy] = None,
) -> List[Tuple[WorkUnit, Any]]:
    """Execute every unit of ``spec`` and return (unit, payload) pairs.

    ``workers == 1`` runs in-process; larger values fan the units out over
    a process pool.  Units are seeded independently of execution order, so
    the pairs are identical either way.  ``replay_trace`` routes learner
    units through a recorded measurement trace (see :class:`UnitContext`).
    ``profile_dir`` wraps each unit in cProfile and dumps per-unit stats
    there (see :mod:`repro.experiments.profiling`).  ``broker_policy``
    arms the fault-tolerance broker chain around each unit's measurements
    (see :class:`~repro.measurement.faults.BrokerPolicy`); note the
    in-memory executor has no quarantine — a permanently failed
    measurement propagates and aborts the run (graceful degradation is
    the sharded runner's job).
    """
    units = spec.work_units(scale)
    if workers <= 1 or len(units) <= 1:
        return [
            (
                unit,
                profile_unit_call(
                    profile_dir,
                    unit.unit_id,
                    lambda unit=unit: spec.execute_unit(
                        unit,
                        scale,
                        _memory_context(replay_trace, unit, spec, broker_policy),
                    ),
                ),
            )
            for unit in units
        ]
    jobs = [
        (
            spec.name,
            scale,
            unit.to_record(),
            replay_trace,
            profile_dir,
            broker_policy,
        )
        for unit in units
    ]
    with ProcessPoolExecutor(max_workers=min(workers, len(units))) as pool:
        payloads = list(pool.map(_execute_unit_job, jobs))
    return list(zip(units, payloads))


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

    This is the degenerate one-worker path of the sharded backend: the
    same units, the same seeding, the same folds — just without the
    on-disk queue, claims and checkpoints.  ``on_result`` fires after each
    artifact folds (dependency-closure artifacts included), which is what
    lets the report stream section by section.  ``replay_trace`` names a
    measurement-trace directory: learner runs replay recorded measurements
    and record whatever they had to measure live, so a second run (or a
    re-scoring of different acquisition arms) profiles only what the trace
    does not already hold.  ``profile_dir`` turns on per-unit cProfile
    dumps (the caller is responsible for merging them into a summary, see
    :func:`repro.experiments.profiling.write_profile_summary`).
    """
    results: Dict[str, Any] = {}
    for spec in resolve_artifacts(artifacts):
        pairs = execute_artifact_units(
            spec,
            scale,
            workers=workers,
            replay_trace=replay_trace,
            profile_dir=profile_dir,
            broker_policy=broker_policy,
        )
        deps = {name: results[name] for name in spec.depends_on}
        results[spec.name] = spec.fold(scale, pairs, deps)
        if on_result is not None:
            on_result(spec, results[spec.name])
    return results


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


def execute_learner_run(
    benchmark_name: str,
    plan: SamplingPlan,
    plan_index: int,
    repetition: int,
    config: ComparisonConfig,
    acquisition: Optional[object] = None,
    model_factory: Optional[Callable] = None,
    context: Optional[UnitContext] = None,
    batch_size: int = 1,
) -> LearningResult:
    """One seeded active-learner run — the shared learner-unit body.

    Rebuilds the benchmark and the repetition's held-out test set from
    their deterministic seeds (:func:`~repro.core.comparison.run_seeds`:
    the test seed depends only on the repetition, the run seed on
    repetition × ``plan_index``), resumes from the context's checkpoint
    when one exists — a pickled
    :class:`~repro.core.session.TuningSession`, whose
    ``attach_benchmark`` restores the benchmark's stateful noise
    components only *after* the test set is rebuilt here, since building
    it advances the drift walk — and returns the result with the
    surrogate model stripped (payloads must stay small and picklable).
    ``plan_index`` is whatever position the run occupies on its
    comparison axis: the sampling-plan index for Table 1, the variant
    index for the ablation specs.  When the context carries a
    ``replay_trace`` directory, measurements go through a
    :class:`~repro.measurement.broker.ReplayBroker` over that trace
    (replay recorded requests, record live-measured misses).
    ``batch_size > 1`` drives the run through batch acquisition
    (``TuningSession.ask(k)``) — the ``batch-acquisition`` ablation's
    axis; the default of 1 is the paper's sequential loop.
    """
    context = context if context is not None else UnitContext()
    benchmark = get_benchmark(benchmark_name)
    test_seed, run_seed = run_seeds(config, repetition, plan_index)
    test_set = build_test_set(
        benchmark,
        size=config.test_size,
        observations=config.test_observations,
        rng=np.random.default_rng(test_seed),
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
        batch_size=batch_size,
    )
    return dataclasses.replace(result, model=None)
