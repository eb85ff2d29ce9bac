"""The inverted-control core of Algorithm 1: an ask/tell tuning session.

:class:`TuningSession` is the learning loop of the paper turned inside
out.  Instead of a closed batch loop that owns both candidate selection
*and* profiling, the session is a state machine that *proposes* — every
:meth:`TuningSession.ask` returns a
:class:`~repro.measurement.broker.MeasurementRequest` naming the next
configuration to profile together with the sampling plan's repetition
count and CI stopping rule — and *consumes* — :meth:`TuningSession.tell`
feeds the resulting observations back into the model, the candidate pool,
the cost ledger and the learning curve.  Who satisfies a request is the
caller's business: a live :class:`~repro.measurement.broker.ProfilerBroker`,
a trace-backed :class:`~repro.measurement.broker.ReplayBroker`, or any
future measurement service.

The session covers the full lifecycle of Algorithm 1 — ``seeding`` (the
``n_initial`` bootstrap configurations), ``learning`` (acquisition-driven
selection) and ``done`` — and is fully picklable mid-run: a pickled
session *is* the checkpoint, carrying the model, the generator, the
per-configuration statistics, the cost ledger, the candidate pool, the
curve, the held-out test set and the benchmark's stateful noise
components.  Only the benchmark itself is dropped (it holds unpicklable
memoisation caches) and reattached on resume through
:meth:`TuningSession.attach_benchmark`.  The model pickles only its
posterior's source of truth and recompiles the rest lazily, and every
pickle carries :attr:`TuningSession._CHECKPOINT_FORMAT`: a blob with any
other stamp refuses to load, which checkpoint loaders treat as "restart
the unit".

Determinism contract: a session driven ask/tell against a live profiler
sharing :attr:`TuningSession.rng` reproduces the pre-refactor inline loop
bit for bit — same candidate draws, same acquisition tie-breaks, same
noise stream, same float accumulation in the ledger, same curve.  The
tests in ``tests/test_session.py`` pin this against a frozen copy of the
inline loop.

``ask(k)`` returns a round of up to ``k`` requests for N parallel
workers, and ``ask()`` is simply a round of one: the acquisition
function's ``select_batch`` takes the top ``k`` distinct candidates of one
scoring pass, and the resulting ``tell()``\\ s may arrive in any order —
the session stores them and folds the whole round in *ask order* once the
last one lands, so the trajectory is a deterministic function of the requests
alone, not of measurement-arrival races.  A pickled session checkpoints
its outstanding requests; :attr:`TuningSession.pending_requests` lists
what is still owed after a resume.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..measurement.broker import MeasurementRequest, MeasurementResult
from ..measurement.profiler import CostLedger
from ..measurement.stats import RunningStats
from ..models.base import SurrogateModel
from ..models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from .acquisition import AcquisitionFunction, ALCAcquisition
from .candidates import CandidatePool
from .curves import CurvePoint, LearningCurve
from .evaluation import TestSet, evaluate_rmse
from .plans import SamplingPlan, sequential_plan

__all__ = ["TuningSession", "SEEDING", "LEARNING", "DONE"]

ModelFactory = Callable[[np.random.Generator], SurrogateModel]

#: Lifecycle phases of a session.
SEEDING = "seeding"
LEARNING = "learning"
DONE = "done"


class TuningSession:
    """Ask/tell state machine for one benchmark × plan × acquisition run.

    Construct it with a benchmark and drive it to completion::

        session = TuningSession(benchmark, plan=plan, config=config,
                                rng=rng, test_set=test_set)
        broker = ProfilerBroker(Profiler(benchmark, rng=session.rng))
        while (request := session.ask()) is not None:
            session.tell(broker.measure(request))
        result = session.result()

    The session owns the random generator (candidate draws, acquisition
    tie-breaks and — through the profiler constructed over
    :attr:`rng` — the noise stream all consume from it), the cost ledger
    and the per-configuration observation statistics; brokers are
    stateless with respect to the adaptive sampling rule, which is what
    makes a mid-run pickle of the session a complete checkpoint.
    """

    def __init__(
        self,
        benchmark,
        plan: Optional[SamplingPlan] = None,
        acquisition: Optional[AcquisitionFunction] = None,
        config=None,
        model_factory: Optional[ModelFactory] = None,
        rng: Optional[np.random.Generator] = None,
        test_set: Optional[TestSet] = None,
    ) -> None:
        from .learner import LearnerConfig  # late: learner imports this module

        if test_set is None:
            raise ValueError("a TuningSession needs a held-out test_set")
        self._benchmark = benchmark
        self._benchmark_name = benchmark.name
        self._plan = plan if plan is not None else sequential_plan()
        self._acquisition = acquisition if acquisition is not None else ALCAcquisition()
        self._config = config if config is not None else LearnerConfig()
        self._model_factory = model_factory
        self._rng = rng if rng is not None else np.random.default_rng()
        self._test_set = test_set
        self._pool = CandidatePool(
            benchmark.search_space,
            max_observations=self._plan.max_observations_per_example,
            revisit=self._plan.revisit,
        )
        self._ledger = CostLedger()
        self._stats: Dict[Tuple[int, ...], RunningStats] = {}
        self._phase = SEEDING
        self._model: Optional[SurrogateModel] = None
        self._curve: Optional[LearningCurve] = None
        self._n_seed = 0
        self._seed_configurations: List[Tuple[int, ...]] = []
        self._seed_targets: List[float] = []
        self._seed_index = 0
        self._training_examples = 0
        self._iteration = 0
        # The outstanding round: requests in ask order, and the results
        # that have arrived so far keyed by configuration.  The round folds
        # only once complete, in ask order.
        self._batch_requests: List[MeasurementRequest] = []
        self._batch_results: Dict[Tuple[int, ...], MeasurementResult] = {}
        # Training-example count when the last fold began — the anchor for
        # the batch-aware checkpoint cadence.
        self._fold_start = 0
        self._noise_model = None

    # ------------------------------------------------------------ properties

    @property
    def phase(self) -> str:
        """``"seeding"``, ``"learning"`` or ``"done"``."""
        return self._phase

    @property
    def done(self) -> bool:
        return self._phase == DONE

    @property
    def rng(self) -> np.random.Generator:
        """The session's generator — build the live profiler over this, so
        candidate draws and measurement noise share one stream exactly as
        the inline loop did."""
        return self._rng

    @property
    def plan(self) -> SamplingPlan:
        return self._plan

    @property
    def plan_name(self) -> str:
        return self._plan.name

    @property
    def benchmark_name(self) -> str:
        return self._benchmark_name

    @property
    def n_seed(self) -> int:
        return self._n_seed

    @property
    def training_examples(self) -> int:
        return self._training_examples

    @property
    def next_iteration(self) -> int:
        """The next Algorithm-1 iteration index."""
        return self._iteration

    @property
    def model(self) -> Optional[SurrogateModel]:
        return self._model

    @property
    def pool(self) -> CandidatePool:
        return self._pool

    @property
    def curve(self) -> Optional[LearningCurve]:
        return self._curve

    @property
    def ledger(self) -> CostLedger:
        return self._ledger

    @property
    def test_set(self) -> TestSet:
        return self._test_set

    @property
    def pending_requests(self) -> List[MeasurementRequest]:
        """Outstanding requests still awaiting :meth:`tell`, in ask order.

        Empty between rounds.  After unpickling a session that was saved
        mid-round, this is exactly the work still owed — a resuming driver
        measures these before calling :meth:`ask` again.
        """
        return [
            request
            for request in self._batch_requests
            if request.configuration not in self._batch_results
        ]

    @property
    def noise_model(self):
        """The benchmark's (stateful) noise model, for checkpoint owners
        that restore it explicitly; on a live session this reads through to
        the attached benchmark."""
        if self._benchmark is not None:
            return self._benchmark.noise_model
        return self._noise_model

    # -------------------------------------------------------- (un)pickling

    #: Layout version of a pickled session, stamped into every checkpoint.
    #: Bump it whenever a change to the session or to anything it pickles
    #: (model, pool, ledger, curve) means an older checkpoint would not
    #: resume bit-identically.  Format 7: a single ``ask()`` is a batch of
    #: one, so its outstanding request travels in the batch bookkeeping (a
    #: format-6 blob could hold it in a separate field this layout would
    #: silently drop), and the model no longer pickles a scalar
    #: marginal-likelihood cache.  Format 6: the particle snapshot no longer
    #: carries per-leaf index lists (loading re-derives leaf membership by
    #: routing the training rows).  Format 5: each model update draws its
    #: randomness as one fixed-layout block, so a format-4 generator state
    #: would continue under another draw order.  Format 4: the model's
    #: config no longer carries a ``vectorized`` field.  Format 3 first
    #: sent the particles as an array snapshot of the particle forest
    #: (format 2 pickled them as ``_Node`` objects; format 1 also carried
    #: per-particle compilations and an incremental forest).
    _CHECKPOINT_FORMAT = 7

    def __getstate__(self) -> dict:
        """Drop the benchmark (unpicklable memoisation caches) and the model
        factory (often a closure); capture the benchmark's stateful noise
        components so :meth:`attach_benchmark` can restore them.  The model
        factory is only consulted on the first :meth:`ask`, which always
        precedes the first checkpoint, so dropping it loses nothing.  The
        model pickles only its posterior's source of truth (see
        :meth:`DynamicTreeRegressor.__getstate__`)."""
        state = self.__dict__.copy()
        if self._benchmark is not None:
            state["_noise_model"] = self._benchmark.noise_model
        state["_benchmark"] = None
        state["_model_factory"] = None
        state["_checkpoint_format"] = self._CHECKPOINT_FORMAT
        return state

    def __setstate__(self, state: dict) -> None:
        if state.pop("_checkpoint_format", None) != self._CHECKPOINT_FORMAT:
            # A checkpoint from another layout (or no session at all):
            # surface it as the error the checkpoint loaders treat as
            # "stale: restart the unit".
            raise AttributeError(
                "incompatible checkpoint: not a pickled TuningSession of "
                f"format {self._CHECKPOINT_FORMAT}"
            )
        self.__dict__.update(state)

    def attach_benchmark(self, benchmark) -> None:
        """Reattach a (freshly rebuilt) benchmark to an unpickled session.

        Restores the checkpointed noise-model state into the benchmark, so
        the resumed measurement stream continues the recorded random walk
        bit for bit.  The benchmark must be the one the session was created
        for.
        """
        if benchmark.name != self._benchmark_name:
            raise ValueError(
                f"session is for benchmark {self._benchmark_name!r}, "
                f"not {benchmark.name!r}"
            )
        self._benchmark = benchmark
        if self._noise_model is not None:
            benchmark.restore_noise_model(self._noise_model)

    # -------------------------------------------------------------- ask/tell

    def ask(self, k: int = 1):
        """The next measurement order(s), or nothing when the run is done.

        One acquisition round selects up to ``k`` distinct candidates
        through the acquisition function's ``select_batch``; the round never
        crosses a phase boundary or the ``max_training_examples`` budget, so
        fewer than ``k`` requests come back near either edge.  ``k == 1``
        (the default) returns the round's single
        :class:`~repro.measurement.broker.MeasurementRequest`, or ``None``
        when the run is complete; ``k > 1`` returns a *list* (empty when
        done).  The matching :meth:`tell`\\ s may arrive in any order.
        """
        if k < 1:
            raise ValueError("batch size k must be at least 1")
        if self._batch_requests:
            raise RuntimeError(
                "ask() called while a request is outstanding; "
                "tell() the previous result(s) first"
            )
        requests: List[MeasurementRequest] = []
        if self._phase != DONE:
            self._require_benchmark()
            if self._phase == SEEDING:
                requests = self._seeding_round(k)
            else:
                requests = self._learning_round(k)
            self._batch_requests = list(requests)
        if k == 1:
            return requests[0] if requests else None
        return requests

    def tell(self, result: MeasurementResult) -> None:
        """Feed the observations answering an outstanding request back in.

        Results may arrive in any order: each is held until the round is
        complete, then the whole round folds in *ask order* — the model
        updates, ledger charges, statistics and curve points are a
        deterministic function of the requests, independent of
        measurement-arrival interleaving.
        """
        if not self._batch_requests:
            raise RuntimeError("tell() called without an outstanding ask()")
        self._require_benchmark()
        key = tuple(result.configuration)
        outstanding = {request.configuration for request in self._batch_requests}
        if key not in outstanding:
            raise ValueError(
                f"result is for configuration {key}, which is not part of "
                f"the outstanding requests {sorted(outstanding)}"
            )
        if key in self._batch_results:
            raise ValueError(
                f"duplicate tell() for configuration {key} in this round"
            )
        self._batch_results[key] = result
        if len(self._batch_results) < len(self._batch_requests):
            return
        requests = self._batch_requests
        results = self._batch_results
        self._batch_requests = []
        self._batch_results = {}
        self._fold_start = self._training_examples
        # Fold in ask order, not arrival order: this is the determinism
        # contract for out-of-order tells.
        for request in requests:
            self._fold_one(request, results[request.configuration])

    def abandon(self) -> None:
        """Discard every outstanding request without folding anything.

        The recovery path for a permanently failed measurement (a broker
        raising :class:`~repro.measurement.faults.MeasurementFailedError`):
        the driver abandons the round and the session is immediately
        re-askable.  Nothing was told, so the model, ledger, statistics,
        pool and curve are exactly as they were before the failed
        :meth:`ask` — no state is corrupted.  Parked results of a
        partially measured round are dropped rather than folded, because
        folding a partial round would make the trajectory depend on
        *which* member failed.  The generator draws the abandoned ask
        consumed (candidate sampling, acquisition) are not rewound; a
        permanently lost measurement genuinely forks the trajectory, and
        the session simply continues on a valid one.
        """
        self._batch_requests = []
        self._batch_results = {}

    def _fold_one(
        self, request: MeasurementRequest, result: MeasurementResult
    ) -> None:
        key = request.configuration
        # Replay the charges into the session ledger in measurement order;
        # compile and runtime accumulate separately, so the totals match an
        # inline profiler's ledger bit for bit.
        for seconds in result.compile_seconds:
            self._ledger.charge_compile(seconds)
        stats = self._stats.setdefault(key, RunningStats())
        self._ledger.charge_runs(result.runtimes)
        stats.extend(result.runtimes)
        self._pool.record(key, len(result.runtimes))
        if self._phase == SEEDING:
            self._tell_seeding(key, stats)
        else:
            self._tell_learning(key, result)

    def result(self):
        """The finished run's :class:`~repro.core.learner.LearningResult`."""
        from .learner import LearningResult  # late: learner imports this module

        if not self.done:
            raise RuntimeError(
                "result() is only available once the session is done; "
                "keep asking until ask() returns None"
            )
        return LearningResult(
            plan_name=self._plan.name,
            curve=self._curve,
            ledger=self._ledger.snapshot(),
            observation_counts=self._pool.observation_counts,
            training_examples=self._training_examples,
            model=self._model,
        )

    def should_checkpoint(self, interval: int) -> bool:
        """True when the inline loop's checkpoint cadence fires: every
        ``interval`` training examples past seeding (never during or right
        after the seeding phase itself).

        Batch-aware: a single batch fold can advance the example count by
        more than one, so the cadence fires when the count *crossed* a
        multiple of ``interval`` since the fold began.  With ``k=1`` each
        fold advances by exactly one example and the crossing rule reduces
        to the original modulo test.
        """
        if interval < 1:
            raise ValueError("interval must be positive")
        if self._training_examples <= self._n_seed:
            return False
        since_fold = max(self._fold_start, self._n_seed) - self._n_seed
        since_now = self._training_examples - self._n_seed
        return since_now // interval > since_fold // interval or (
            since_now % interval == 0 and since_now == since_fold
        )

    # ------------------------------------------------------------- internals

    def _require_benchmark(self) -> None:
        if self._benchmark is None:
            raise RuntimeError(
                "session has no benchmark attached; call attach_benchmark() "
                "after unpickling"
            )

    def _seeding_round(self, k: int) -> List[MeasurementRequest]:
        """Up to ``k`` of the remaining seed configurations.

        A round never crosses the seeding/learning phase boundary: the
        model must be fitted on the complete seed set before acquisition
        can score anything, so the last seeding round is simply short.
        """
        if self._model is None:
            # First ask of the run: the generator draws happen in exactly
            # the inline loop's order — model seed first, then the seed
            # configurations.
            space = self._benchmark.search_space
            self._model = self._make_model(
                np.random.default_rng(self._rng.integers(2 ** 63))
            )
            self._curve = LearningCurve(self._plan.name)
            self._n_seed = min(self._config.n_initial, space.size)
            self._seed_configurations, seed_features = space.sample_distinct_featurized(
                self._n_seed, self._rng
            )
            self._pool.remember_features(self._seed_configurations, seed_features)
        remaining = self._n_seed - self._seed_index
        return [
            MeasurementRequest(
                benchmark=self._benchmark_name,
                configuration=self._seed_configurations[self._seed_index + offset],
                repetitions=self._config.seed_observations,
            )
            for offset in range(min(k, remaining))
        ]

    def _learning_round(self, k: int) -> List[MeasurementRequest]:
        """One acquisition round selecting up to ``k`` distinct candidates.

        The completion checks run once per round (not per member), and the
        round is truncated at the remaining example budget, so a run with
        ``max_training_examples`` examples never overshoots.  One candidate
        draw and one reference draw serve the whole round, and the
        acquisition function's ``select_batch`` takes its top ``k``.
        The candidates' features come with the draw (the pool's featurized
        draw and feature cache), and the chosen rows go into the cache for
        ``tell`` and later revisits: the session reads features from the
        search space only, never from the benchmark.
        """
        config = self._config
        if self._iteration >= config.max_training_examples or self._budget_exhausted():
            self._finish()
            return []
        # An exhausted pool draws nothing (and consumes no randomness), so
        # the empty draw is the exhaustion check.
        candidates, candidate_features = self._pool.draw_featurized(
            config.n_candidates, self._rng
        )
        if not candidates:
            self._finish()
            return []
        k_eff = min(k, config.max_training_examples - self._iteration, len(candidates))
        reference_rows = self._reference_rows(len(candidates))
        indices = self._acquisition.select_batch(
            self._model, candidate_features, reference_rows, self._rng, k_eff
        )
        if len(set(indices)) != len(indices):
            raise RuntimeError(
                f"{type(self._acquisition).__name__}.select_batch returned "
                "duplicate candidate indices"
            )
        self._pool.remember_features(
            [candidates[index] for index in indices], candidate_features[indices]
        )
        # Members are distinct configurations, so no member's measurement
        # changes another's prior-statistics snapshot.
        return [
            self._plan.measurement_request(
                self._benchmark_name,
                candidates[index],
                prior_stats=self._stats.get(tuple(candidates[index])),
            )
            for index in indices
        ]

    def _tell_seeding(self, key: Tuple[int, ...], stats: RunningStats) -> None:
        self._seed_targets.append(stats.mean)
        self._seed_index += 1
        if self._seed_index < self._n_seed:
            return
        seed_features = self._pool.features(self._seed_configurations)
        self._model.fit(seed_features, np.asarray(self._seed_targets))
        self._record_point(self._n_seed)
        self._training_examples = self._n_seed
        self._iteration = self._n_seed
        self._phase = LEARNING

    def _tell_learning(
        self, key: Tuple[int, ...], result: MeasurementResult
    ) -> None:
        observations = np.asarray(result.runtimes)
        chosen_features = self._pool.features([key])[0]
        if self._plan.aggregate_mean:
            self._model.update(chosen_features, float(np.mean(observations)))
        else:
            for observation in observations:
                self._model.update(chosen_features, float(observation))
        self._training_examples = self._iteration + 1
        evaluate_now = (
            (self._training_examples - self._n_seed) % self._config.evaluation_interval
            == 0
            or self._training_examples == self._config.max_training_examples
        )
        if evaluate_now:
            self._record_point(self._training_examples)
        self._iteration += 1

    def _finish(self) -> None:
        if (
            not self._curve.points
            or self._curve.points[-1].training_examples != self._training_examples
        ):
            self._record_point(self._training_examples)
        self._phase = DONE

    def _make_model(self, rng: np.random.Generator) -> SurrogateModel:
        if self._model_factory is not None:
            return self._model_factory(rng)
        return DynamicTreeRegressor(
            DynamicTreeConfig(n_particles=self._config.tree_particles), rng=rng
        )

    def _budget_exhausted(self) -> bool:
        budget = self._config.max_cost_seconds
        return budget is not None and self._ledger.total_seconds >= budget

    def _reference_rows(self, n_candidates: int) -> np.ndarray:
        """Row indices of the round's reference set, drawn from its candidates."""
        size = min(self._config.reference_size, n_candidates)
        return self._rng.choice(n_candidates, size=size, replace=False)

    def _record_point(self, training_examples: int) -> None:
        rmse = evaluate_rmse(self._model, self._test_set)
        self._curve.add(
            CurvePoint(
                cost_seconds=self._ledger.total_seconds,
                rmse=rmse,
                training_examples=training_examples,
                observations=self._ledger.executions,
            )
        )
