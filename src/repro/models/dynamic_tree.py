"""Dynamic trees for sequential regression with uncertainty.

This is a from-scratch implementation of the model the paper uses (via the
R ``dynaTree`` package): the *dynamic tree* of Taddy, Gramacy & Polson
(2011).  A dynamic tree is a Bayesian regression tree whose posterior is
tracked by a set of particles; when a new observation ``(x, y)`` arrives,
each particle applies one of three *local* moves to the leaf containing
``x`` — **stay** (leave the structure unchanged), **grow** (split the leaf
in two) or **prune** (collapse the leaf's parent back into a leaf) — chosen
stochastically according to its posterior weight (Figure 4 of the paper).
Particles are reweighted by how well they predicted ``y`` and resampled when
the effective sample size degrades.

The properties the paper relies on are all preserved here:

* **sequential updates** — absorbing one observation costs O(depth) plus a
  constant amount of sufficient-statistics work per particle, so there is no
  model rebuild inside the active-learning loop;
* **predictive uncertainty** — every prediction is a mixture (over
  particles) of Student-t posterior predictive distributions, giving a
  calibrated variance for the ALM/ALC acquisition functions;
* **noise robustness** — leaves carry full conjugate posteriors rather than
  point estimates, and structural moves are scored by marginal likelihood,
  so a single noisy observation cannot commit the model to a bad split.

Leaves use the constant (Gaussian) model of :mod:`repro.models.leaf`; the
tree prior is the standard Chipman-George-McCulloch
``p_split(depth) = alpha * (1 + depth)^-beta``.

The posterior is one :class:`~repro.models.flat_tree.ParticleForest` and
nothing else: every particle's tree as a row of padded NumPy arrays, its
leaves' cached statistics, and ``leaf_of``, the leaf of every training row
in every particle.  Prediction and the ALC score descend the forest level
by level for all rows and particles at once, and the sequential update
(Algorithm 1's per-observation model update) is batched across particles,
which is what makes paper-scale particle counts (5 000) tractable:

* **reweight** — one ``FlatForest.route_update`` descent routes the
  incoming ``x`` through every particle together, and the predictive
  log-pdfs come from the cached log-pdf terms of the leaves it lands on;
* **resample** — the systematic resampler gathers the forest's rows;
* **propagate** — stay/grow/prune scores come from count-indexed NIG term
  tables.  Particles whose leaves hold the same training rows (read from
  ``leaf_of``) share one grow table, each distinct candidate split is
  summed by one batched masked scan and scored once, and every particle
  still draws its own move.  The moves land on the forest as one row
  write for every stay, one splice for every grow and one for every prune.

Each update draws its randomness up front in one fixed, data-independent
layout (see :meth:`DynamicTreeRegressor.update`).  Every floating-point
operation replays a per-particle reference exactly (sums over particles
in row order, scalar ``math`` transcendentals), and the reference decodes
the same draw block row by row, so seeded learning curves are
bit-identical between the two.  That reference (``ReferenceDynamicTree`` in
``tests/oracles/dynamic_tree.py``, node trees with one Python descent per
particle and row) is the oracle of the equivalence tests.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .base import Prediction, SurrogateModel
from .flat_tree import FlatForest, ParticleForest
from .leaf import LeafCacheArrays, LeafTermTables, NIGPrior, log_map_exact

__all__ = ["DynamicTreeConfig", "DynamicTreeRegressor"]

_COUNT, _SUM, _SUM_SQ, _LML = (
    LeafCacheArrays.COUNT, LeafCacheArrays.SUM, LeafCacheArrays.SUM_SQ, LeafCacheArrays.LML
)


def _equal_rows(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of a boolean matrix by content.

    Returns ``(group_of, first)``: each row's group and each group's
    first row.  The rows are packed to bits, zero-padded to ``uint64``
    words and lexsorted, and a group starts wherever a row differs from
    its sorted predecessor.  A zero-width matrix is one group.
    """
    count, width = mask.shape
    if not width:
        return np.zeros(count, dtype=np.intp), np.zeros(1, dtype=np.intp)
    packed = np.zeros((count, -(-width // 64) * 8), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(mask, axis=1)
    words = packed.view(np.uint64)
    order = np.lexsort(words.T)
    ordered = words[order]
    starts = np.empty(count, dtype=bool)
    starts[0] = True
    (ordered[1:] != ordered[:-1]).any(axis=1, out=starts[1:])
    group_of = np.empty(count, dtype=np.intp)
    group_of[order] = starts.cumsum() - 1
    return group_of, order[starts]


def _sum_particles(values: np.ndarray) -> np.ndarray:
    """Column sums of a ``(particles, columns)`` array, added in row order.

    Row order is the per-particle reference's accumulation order, so the
    sums are bit-identical to it.  ``np.add.reduce`` over axis 0 of a
    C-contiguous array at least two columns wide adds one row at a time;
    along a contiguous axis (one column, or Fortran order) it adds
    pairwise instead, so those shapes keep the last row of a ``cumsum``,
    which is sequential always but writes the whole running array.
    """
    if values.shape[1] >= 2 and values.flags.c_contiguous:
        return np.add.reduce(values, axis=0)
    return np.cumsum(values, axis=0)[-1]


@dataclass(frozen=True)
class DynamicTreeConfig:
    """Hyper-parameters of the dynamic tree model.

    The paper uses the ``dynaTree`` defaults with 5 000 particles; the
    decision spaces are low-dimensional and the acquisition only needs
    well-ranked variances, so a few dozen particles behave almost
    identically (this is exercised by an ablation benchmark), but with the
    batched update kernel the paper's particle count is affordable too.

    ``backend`` and ``float_mode`` each have one accepted value,
    ``"numpy"`` and ``"exact"``; they are kept only because the traced
    path of ``e2ebench/workloads.py`` still passes them.  Every reduction
    and transcendental is bit-identical to the per-particle reference
    (see ``docs/architecture.md``, "Kernels and the float contract").
    """

    n_particles: int = 40
    split_alpha: float = 0.95
    split_beta: float = 2.0
    min_leaf: int = 2
    n_split_candidates: int = 12
    resample_threshold: float = 0.5
    prior_kappa: float = 0.1
    prior_alpha: float = 3.0
    backend: str = "numpy"
    float_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if not 0.0 < self.split_alpha < 1.0:
            raise ValueError("split_alpha must be in (0, 1)")
        if self.split_beta < 0:
            raise ValueError("split_beta cannot be negative")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if self.n_split_candidates < 1:
            raise ValueError("n_split_candidates must be at least 1")
        if not 0.0 < self.resample_threshold <= 1.0:
            raise ValueError("resample_threshold must be in (0, 1]")
        if self.backend != "numpy":
            raise ValueError('backend must be "numpy"')
        if self.float_mode != "exact":
            raise ValueError('float_mode must be "exact"')

    def split_probability(self, depth: int) -> float:
        """CGM tree prior: probability that a node at ``depth`` is split."""
        return self.split_alpha * (1.0 + depth) ** (-self.split_beta)


class _UpdateRouting(NamedTuple):
    """Per-particle routing context of one update's reweight descent.

    Produced by :meth:`FlatForest.route_update` over the (pre-update) forest
    and threaded from :meth:`DynamicTreeRegressor._resample` into the
    propagate phases, which read each particle's leaf and prune-sibling
    statistics straight from the forest's packed cache columns.  After a
    resample the per-particle arrays are permuted to the post-resample
    particle order while ``forest`` keeps viewing the *pre-resample* rows,
    so the global ids still index into it; local node and leaf ids
    (``global % capacity``) hold in either layout.
    """

    forest: FlatForest
    local_ids: np.ndarray
    gids: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    depths: np.ndarray


class _LeafContext(NamedTuple):
    """Each particle's pre-update leaf state, gathered by phase 1a.

    ``leaf`` holds every particle's leaf cache row and ``sibling`` the
    prune sibling's row of each prunable particle (``pr`` lists them, in
    particle order).  Particles whose leaves hold the same training rows
    (resample copies, mostly) form one group: ``group_of[p]`` is particle
    ``p``'s group, ``groups`` one representative particle per group, and
    ``members`` the training rows of every representative's leaf,
    group-major and in ascending training order.
    """

    leaf: np.ndarray
    sibling: np.ndarray
    prunable: np.ndarray
    pr: np.ndarray
    is_left: np.ndarray
    group_of: np.ndarray
    groups: np.ndarray
    members: np.ndarray


class _GrowTables(NamedTuple):
    """Phase 1b's padded grow-proposal tables, one per group of particles.

    Table ``t`` holds one group's leaf observations plus the incoming
    point; tables are numbered in ascending leaf size and ``table_of[p]``
    is particle ``p``'s.  Each bucket is ``(start, features, targets,
    compacted)``: tables ``start, start + 1, ...`` padded to the bucket's
    widest leaf, and the sorted distinct values of each feature column
    compacted to the front.  ``n_unique[t, d]`` counts the distinct
    values and ``n_points[t]`` the table's real rows.
    """

    buckets: list
    table_of: np.ndarray
    n_unique: np.ndarray
    n_points: np.ndarray


class _Splits(NamedTuple):
    """Phase 2a: the distinct candidate splits and their partition sums.

    Candidates of particles that share a table and draw the same
    ``(dim, cut)`` share one split; ``of_candidate[c]`` is candidate
    ``c``'s.  Per split: its ``dim``, ``threshold``, left count, the
    table's point count and ``sums[s] = [[sum_l, sq_l], [sum_r, sq_r]]``.
    """

    of_candidate: np.ndarray
    dims: np.ndarray
    thresholds: np.ndarray
    n_left: np.ndarray
    n_points: np.ndarray
    sums: np.ndarray


class _Moves(NamedTuple):
    """The drawn moves (phase 2): who stays, grows and prunes, and how.

    The grow fields hold each grower's winning split and both sides'
    ``(count, sum, sum_sq)``; ``sums[g]`` is ``[[sum_l, sq_l],
    [sum_r, sq_r]]``.  ``lml`` and ``beta_n`` are the scoring pass's
    terms of every new leaf, in cache-row order: the stays' leaves, the
    growers' left and then right children, the prunes' merged leaves.
    """

    stays: np.ndarray
    grows: np.ndarray
    prunes: np.ndarray
    dims: np.ndarray
    thresholds: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    sums: np.ndarray
    lml: np.ndarray
    beta_n: np.ndarray


class DynamicTreeRegressor(SurrogateModel):
    """Particle-learning dynamic tree regression."""

    #: Update phases instrumented by :attr:`phase_timings`.
    _PHASES = ("reweight", "resample", "propagate-score", "propagate-apply")

    def __init__(
        self,
        config: Optional[DynamicTreeConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._config = config if config is not None else DynamicTreeConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        # Training data lives in growing arrays so partition scans and grow
        # proposals can slice it without materialising Python tuples.
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._n = 0
        self._prior: Optional[NIGPrior] = None
        # The posterior: built root-only by ``fit`` and kept in step by
        # every update.  A loaded model holds the pickled snapshot instead
        # until the first query or update rebuilds the forest from it.
        self._particle_forest: Optional[ParticleForest] = None
        self._snapshot: Optional[dict] = None
        # Count-indexed NIG term tables (see LeafTermTables) and the
        # depth-indexed tree-prior table the vectorized scoring gathers
        # from; built on first use (and again after unpickling).
        self._term_tables: Optional[LeafTermTables] = None
        self._depth_arrays: Optional[np.ndarray] = None
        # Wall-clock accumulated per batched-update phase (see
        # ``phase_timings``); plain floats, negligible next to the work
        # they measure.
        self._phase_timings = dict.fromkeys(self._PHASES, 0.0)

    def __getstate__(self) -> dict:
        """Pickle the posterior's source of truth, not what derives from it.

        The training buffers, RNG, prior and config are kept; the
        particles travel as the particle forest's pre-order array snapshot
        (see :meth:`~repro.models.flat_tree.ParticleForest.preorder`), one
        pickle of a few arrays.  The
        forest itself and the count and depth term tables are dropped:
        after load the next predict, ALC score or update rebuilds them,
        with bit-identical values.
        """
        state = self.__dict__.copy()
        for derived in ("_particle_forest", "_term_tables", "_depth_arrays"):
            del state[derived]
        if self._particle_forest is not None:
            state["_snapshot"] = self._particle_forest.preorder()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._particle_forest = None
        self._term_tables = None
        self._depth_arrays = None

    def __deepcopy__(self, memo: dict) -> "DynamicTreeRegressor":
        # An in-memory copy keeps the derived state: rebuilding it would
        # only make the copy's next update slower.
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return clone

    # ----------------------------------------------------------- properties

    @property
    def config(self) -> DynamicTreeConfig:
        return self._config

    @property
    def phase_timings(self) -> Dict[str, float]:
        """Cumulative wall-clock seconds spent in each batched-update phase.

        Keys: ``"reweight"`` (routing + predictive log-weights; the first
        update after a load also rebuilds the particle forest here),
        ``"resample"`` (ESS decision + systematic permutation + forest row
        gather), ``"propagate-score"`` (stat gathers, grow-candidate
        tables, move scoring and the draw inversion) and
        ``"propagate-apply"`` (the forest's stay write, grow/prune splices
        and ``leaf_of`` writes).  :meth:`reset_phase_timings` zeroes the
        counters.
        """
        return dict(self._phase_timings)

    def reset_phase_timings(self) -> None:
        """Zero the :attr:`phase_timings` accumulators."""
        self._phase_timings = dict.fromkeys(self._PHASES, 0.0)

    @property
    def training_size(self) -> int:
        return self._n

    @property
    def n_particles(self) -> int:
        return 0 if self._prior is None else self._config.n_particles

    def leaf_counts(self) -> List[int]:
        """Number of leaves in each particle (useful for diagnostics/tests)."""
        if self._prior is None:
            return []
        return ((self._forest().n_nodes + 1) // 2).tolist()

    def fantasy_copy(self) -> "DynamicTreeRegressor":
        """A cheap copy safe to ``update`` with fantasies.

        Batch acquisition (kriging believer) needs a throwaway model to
        absorb believed observations.  The particle forest's arrays and the
        training buffers are copied (one memcpy each; updates write both in
        place), and the RNG is deep-copied so fantasy draws do not consume
        the real model's stream.  The memoized pure caches (count-term
        tables, depth terms) stay shared — both sides only ever add
        deterministically recomputable entries.
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._rng = copy.deepcopy(self._rng)
        clone._X = None if self._X is None else self._X.copy()
        clone._y = None if self._y is None else self._y.copy()
        clone._particle_forest = None if self._prior is None else self._forest().copy()
        clone._snapshot = None
        clone._phase_timings = dict.fromkeys(self._PHASES, 0.0)
        return clone

    # ------------------------------------------------------- data management

    def _append_observation(self, x: np.ndarray, y: float) -> int:
        """Store one observation, growing the buffers geometrically."""
        if self._X is None or self._y is None:
            capacity = 64
            self._X = np.empty((capacity, x.shape[0]), dtype=float)
            self._y = np.empty(capacity, dtype=float)
        elif self._n == self._X.shape[0]:
            self._X = np.concatenate([self._X, np.empty_like(self._X)], axis=0)
            self._y = np.concatenate([self._y, np.empty_like(self._y)])
        index = self._n
        self._X[index] = x
        self._y[index] = y
        self._n = index + 1
        return index

    def _forest(self) -> ParticleForest:
        """The particle forest, rebuilt from a loaded snapshot on first use.

        Cache rows are recomputed from the snapshot's leaf statistics with
        the arithmetic every update uses (:meth:`_cache_rows`), and
        ``leaf_of`` by routing the training rows through the trees — the
        partition every grow and prune maintains.
        """
        forest = self._particle_forest
        if forest is None:
            snapshot = self._snapshot
            if snapshot is None:
                raise RuntimeError("the model must be seeded with fit() first")
            stats = snapshot["leaf_stats"]
            counts = stats[:, 0].astype(np.intp)
            self._leaf_term_tables().ensure(int(counts.max()))
            rows = self._cache_rows(counts, stats[:, 1], stats[:, 2])
            forest = ParticleForest.from_preorder(
                snapshot["n_nodes"], snapshot["split_dim"], snapshot["split_value"], rows
            )
            view = forest.view()
            leaf_ids = view.route(self._X[: self._n]) - view.leaf_offsets[:, None]
            forest.leaf_of = leaf_ids.astype(np.int32)
            self._particle_forest = forest
            self._snapshot = None
        return forest

    # ------------------------------------------------------------- training

    def _seed_posterior(self) -> None:
        """Every particle a single empty root leaf (called by :meth:`fit`)."""
        self._particle_forest = ParticleForest.root_only(self._config.n_particles)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """Seed the model, then absorb the seed observations sequentially."""
        X = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("features and targets disagree on the number of rows")
        if X.shape[0] == 0:
            raise ValueError("fit() needs at least one observation")
        self._X = None
        self._y = None
        self._n = 0
        self._prior = NIGPrior.from_observations(
            y, kappa=self._config.prior_kappa, alpha=self._config.prior_alpha
        )
        self._snapshot = None
        self._seed_posterior()
        order = self._rng.permutation(X.shape[0])
        for index in order:
            self.update(X[index], float(y[index]))

    def _observation(
        self, features: np.ndarray, target: float
    ) -> Tuple[np.ndarray, float]:
        """``(x, y)`` of one observation, checked against the seeded model."""
        if self._prior is None:
            raise RuntimeError("the model must be seeded with fit() before update()")
        x = np.asarray(features, dtype=float).ravel()
        if self._n and self._X is not None:
            expected_dim = self._X.shape[1]
            if x.shape[0] != expected_dim:
                raise ValueError(
                    f"feature dimension mismatch: got {x.shape[0]}, expected {expected_dim}"
                )
        return x, float(target)

    def update(self, features: np.ndarray, target: float) -> None:
        """Absorb one observation: reweight, resample, propagate every particle.

        All cross-particle work is batched.  The reweight routes the
        incoming point through every particle's forest row and the
        propagate step runs as a pipeline of array phases (see
        :meth:`_propagate_all`) over all particles at once.

        The update's randomness is drawn first, in one fixed layout that
        does not depend on the data: one ``random()`` for the systematic
        resample (drawn whether or not the effective sample size calls for
        a resample, and on the first update, which has nothing to
        resample), then one ``random((n_particles, 2K + 1))`` block with
        ``K = n_split_candidates`` whose row ``i`` is post-resample particle
        ``i``'s grow candidates and move uniform (column layout in
        :meth:`_candidates`).  Any bit generator works, and the stream
        position after an update depends only on ``(n_particles, K)``.
        """
        x, y = self._observation(features, target)
        rng = self._rng
        resample_uniform = rng.random()
        draws = rng.random((self.n_particles, 2 * self._config.n_split_candidates + 1))
        routing = self._resample(x, y, resample_uniform)
        index = self._append_observation(x, y)
        self._propagate_all(x, y, index, routing, draws)

    # ----------------------------------------------------------- prediction

    def _ensure_forest(self) -> FlatForest:
        """The particle forest's flat view (see :meth:`_forest`)."""
        return self._forest().view()

    def predict(self, features: np.ndarray) -> Prediction:
        if not self._n:
            raise RuntimeError("the model has no training data yet")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        count = float(self.n_particles)
        mean, variance = self._ensure_forest().predict_components(X)
        means = _sum_particles(mean) / count
        second_moments = _sum_particles(variance + mean * mean)
        variances = np.maximum(second_moments / count - means ** 2, 1e-18)
        return Prediction(mean=means, variance=variances)

    def expected_average_variance(
        self, candidates: np.ndarray, reference_rows: np.ndarray
    ) -> np.ndarray:
        """ALC-style score: average reference variance left after observing each candidate.

        For a constant-leaf tree, one extra observation at a candidate only
        sharpens the leaf that contains it.  The posterior predictive
        variance of a leaf with ``n`` observations and prior strength
        ``kappa`` shrinks by roughly a factor ``(n + kappa) / (n + kappa + 1)``
        when one more observation arrives, so the expected reduction at a
        reference point in the same leaf is ``variance / (n + kappa + 1)``.
        Averaging the remaining variance over the reference set and over
        particles gives the quantity Algorithm 1 minimises.

        The reference set is ``candidates[reference_rows]``.  Vectorized:
        the candidate batch is routed to integer leaf ids in one pass over
        all particles, and the references' leaf ids are columns of that
        route (routing is per row, so they equal ``route(C[rows])``
        exactly); the per-leaf reference variance mass is a ``bincount``
        and the candidate reductions are gathers — no Python-level descent
        and no ``id(node)`` dictionaries.
        """
        if not self._n:
            raise RuntimeError("the model has no training data yet")
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        kappa = self._prior.kappa
        forest = self._ensure_forest()
        # (n_particles, n_candidates) global leaf ids; leaf ids never collide
        # across particles, so one bincount aggregates the per-leaf
        # reference-variance mass of the entire forest.
        candidate_leaf_ids = forest.route(C)
        reference_leaf_ids = candidate_leaf_ids[:, reference_rows]
        n_reference = reference_leaf_ids.shape[1]
        reference_variance = forest.leaf_variance[reference_leaf_ids]
        # Sequential accumulation keeps every score bit-identical to the
        # reference loop; bincount also adds weights in input order.
        base_total = np.cumsum(reference_variance, axis=1)[:, -1]
        variance_by_leaf = np.bincount(
            reference_leaf_ids.ravel(),
            weights=reference_variance.ravel(),
            minlength=forest.n_leaves,
        )
        shrink = 1.0 / (forest.leaf_count[candidate_leaf_ids] + kappa + 1.0)
        reduction = variance_by_leaf[candidate_leaf_ids] * shrink
        spread = (base_total[:, None] - reduction) / n_reference
        return _sum_particles(spread) / self.n_particles


    # --------------------------------------------------- reweight + resample

    def _systematic_indices(self, weights: np.ndarray, uniform: float) -> List[int]:
        """Systematic (stratified) resampling indices for normalized weights.

        The ``uniform`` draw places ``n`` equally spaced positions on
        [0, 1); each selects the first particle whose cumulative weight
        reaches it — one ``side="left"`` ``searchsorted``.  The cumulative
        array's final entry is pinned to exactly 1.0 against floating-point
        drift (``cumsum`` of normalized weights lands a few ulps off 1), so
        every position, all strictly below 1.0, belongs to a particle and
        the scan never runs past the last one; the entries before the pin
        stay a true non-decreasing cumsum, so the search agrees with a
        stateful scan on every input (pinned by the adversarial resampler
        tests).
        """
        count = len(weights)
        positions = (uniform + np.arange(count)) / count
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        return np.searchsorted(cumulative, positions, side="left").tolist()

    def _resample(self, x: np.ndarray, y: float, uniform: float) -> _UpdateRouting:
        """Batched reweight-and-resample; returns the update's routing context.

        The reweight is three array passes over the particle forest's flat
        view: one all-particles :meth:`FlatForest.route_update` descent —
        recording each particle's leaf node, parent node and descent depth
        alongside the leaf id, the structural context the propagate phases
        read — one fused gather-and-log-pdf pass over the leaf cache rows
        (:meth:`LeafCacheArrays.predictive_logpdf`), and the offset
        subtraction that localises the global ids.  The ``log1p`` map is
        scalar-rounded (numpy's rounds differently and the resample
        decision is sampled from these weights).  The first update only routes: a model without data has
        no predictive weights.  When the effective sample size calls for a
        resample, the forest gathers its rows into the new particle order
        and the routing arrays are permuted to match (the routing's view
        keeps reading the pre-resample rows).  ``uniform`` places the
        systematic resampler's positions.
        """
        timings = self._phase_timings
        tic = perf_counter()
        particle_forest = self._forest()
        forest = particle_forest.view()
        gids, nodes, parents, depths = forest.route_update(x)
        local_ids = gids - forest.leaf_offsets
        routing = _UpdateRouting(forest, local_ids, gids, nodes, parents, depths)
        if not self._n:
            timings["reweight"] += perf_counter() - tic
            return routing
        config = self._config
        log_weights = forest.caches.predictive_logpdf(gids, y)
        toc = perf_counter()
        timings["reweight"] += toc - tic
        tic = toc
        log_weights -= log_weights.max()
        weights = np.exp(log_weights)
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            timings["resample"] += perf_counter() - tic
            return routing
        weights /= total
        effective = 1.0 / float(np.sum(weights ** 2))
        if effective >= config.resample_threshold * weights.shape[0]:
            timings["resample"] += perf_counter() - tic
            return routing
        chosen = np.asarray(self._systematic_indices(weights, uniform), dtype=np.intp)
        particle_forest.gather(chosen)
        routing = _UpdateRouting(forest, *(column[chosen] for column in routing[1:]))
        timings["resample"] += perf_counter() - tic
        return routing

    # ----------------------------------------------------- batched propagate

    def _leaf_term_tables(self) -> LeafTermTables:
        """The count-indexed NIG term tables for the current prior.

        Rebuilt whenever :meth:`fit` installs a fresh prior (identity
        check), and lazily created on first use and after unpickling
        (checkpoints do not carry them).
        """
        assert self._prior is not None
        tables = self._term_tables
        if tables is None or tables.prior is not self._prior:
            tables = LeafTermTables(self._prior)
            self._term_tables = tables
        return tables

    def _depth_table(self, max_depth: int) -> np.ndarray:
        """Tree-prior terms of the move scores by depth, grown on demand.

        Row ``d`` holds ``log1p(-p)``, the grow head
        ``log(p) + 2*log1p(-p_child)`` and ``log(p)`` for ``p`` the split
        probability at depth ``d``, each a scalar ``math`` evaluation
        grouped as the reference groups it.  The values depend only on the
        frozen config, so the table never goes stale.
        """
        table = self._depth_arrays
        if table is None or table.shape[0] <= max_depth:
            table = np.empty((max(16, 2 * (max_depth + 1)), 3))
            for depth in range(table.shape[0]):
                p_here = self._config.split_probability(depth)
                p_child = self._config.split_probability(depth + 1)
                log_p = math.log(p_here)
                grow_head = log_p + 2.0 * math.log1p(-p_child)
                table[depth] = (math.log1p(-p_here), grow_head, log_p)
            self._depth_arrays = table
        return table

    def _propagate_all(
        self, x: np.ndarray, y: float, index: int, routing: _UpdateRouting, draws: np.ndarray
    ) -> None:
        """Propagate every particle through one stay/grow/prune move.

        Array phases over all particles, together bit-identical to the
        per-particle reference (one move per particle in turn).  Timed as
        ``propagate-score``: :meth:`_leaf_context` gathers each particle's
        leaf state and groups the particles by their leaf's training rows,
        :meth:`_grow_tables` pads each group's rows into a grow-proposal
        table, and :meth:`_draw_moves` scores stay, every distinct
        candidate grow (:meth:`_candidates`, :meth:`_grow_splits`) and
        prune and draws the move, reading only pre-update state.  Timed
        as ``propagate-apply``: :meth:`_apply_moves` lands the moves.
        """
        assert self._prior is not None and self._X is not None and self._y is not None
        timings = self._phase_timings
        tic = perf_counter()
        context = self._leaf_context(routing, index)
        tables = self._grow_tables(context, x, y)
        moves = self._draw_moves(context, tables, routing.depths, y, draws)
        toc = perf_counter()
        timings["propagate-score"] += toc - tic
        self._apply_moves(context, moves, routing, x, y, index)
        timings["propagate-apply"] += perf_counter() - toc

    def _leaf_context(self, routing: _UpdateRouting, n: int) -> _LeafContext:
        """Phase 1a: every particle's leaf state, from the reweight routing.

        Leaf and prune-sibling cache rows are fused gathers over the
        routing view's pre-update rows.  The prune sibling is the parent's
        *other* child; a particle is prunable when it has a parent and
        that sibling is a leaf.  Root-leaves carry parent ``-1``: the
        in-bounds negative index reads garbage that the ``parents >= 0``
        guard masks.  The groups come from the ``(particles, n)``
        membership mask over the first ``n`` columns of the
        (post-resample) ``leaf_of`` (see :func:`_equal_rows`), and the
        representatives' training rows are one ``nonzero`` of its rows.
        """
        forest = routing.forest
        data = forest.caches.data
        parents = routing.parents
        left_of_parent = forest.left[parents]
        is_left = left_of_parent == routing.nodes
        sib_nodes = np.where(is_left, forest.right[parents], left_of_parent)
        prunable = (parents >= 0) & (forest.split_dim[sib_nodes] == -1)
        pr = np.flatnonzero(prunable)
        in_leaf = self._particle_forest.leaf_of[:, :n] == routing.local_ids[:, None]
        group_of, groups = _equal_rows(in_leaf)
        members = np.nonzero(in_leaf[groups])[1]
        sibling = data[forest.leaf_slot[sib_nodes[pr]]]
        return _LeafContext(
            data[routing.gids], sibling, prunable, pr, is_left, group_of, groups, members
        )

    def _grow_tables(self, context: _LeafContext, x: np.ndarray, y: float) -> _GrowTables:
        """Phase 1b: every group's observations as padded grow-proposal tables.

        One ``(bucket, n_max_b, dims)`` block per leaf-size bucket holds
        each group's leaf rows plus the incoming point in the last real
        row.  Sorting the groups by leaf size and padding each bucket only
        to its own widest leaf keeps the padded work proportional to the
        mean leaf size.  Padding features are +inf, so no threshold
        selects them, and padding targets 0.0, an exact no-op for the sums.
        """
        sizes = context.leaf[context.groups, _COUNT].astype(np.intp)
        count = sizes.shape[0]
        dims = x.shape[0]
        starts = np.cumsum(sizes) - sizes
        rows_arr = context.members
        order = np.argsort(sizes, kind="stable")
        table_of_group = np.empty(count, dtype=np.intp)
        table_of_group[order] = np.arange(count, dtype=np.intp)
        n_unique_arr = np.empty((count, dims), dtype=np.int32)
        buckets = []
        n_buckets = 4 if count >= 256 else 1
        bounds = [count * b // n_buckets for b in range(n_buckets + 1)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            bidx = order[start:stop]
            nb = stop - start
            sizes_b = sizes[bidx]
            n_max_b = int(sizes_b[-1]) + 1
            padded_features = np.full((nb, n_max_b, dims), np.inf)
            padded_targets = np.zeros((nb, n_max_b))
            row_owner = np.repeat(np.arange(nb, dtype=np.intp), sizes_b)
            col_pos = (
                np.arange(row_owner.shape[0], dtype=np.intp)
                - np.repeat(np.cumsum(sizes_b) - sizes_b, sizes_b)
            )
            src = rows_arr[np.repeat(starts[bidx], sizes_b) + col_pos]
            padded_features[row_owner, col_pos] = self._X[src]
            padded_targets[row_owner, col_pos] = self._y[src]
            local = np.arange(nb, dtype=np.intp)
            padded_features[local, sizes_b] = x
            padded_targets[local, sizes_b] = y
            # Batched unique scan (sort + first-of-run flags, the lean
            # equivalent of per-candidate np.unique): ``n_unique[t, d]``
            # bounds the cut draw, and ``unique_values[t, j, d]`` is the
            # j-th distinct value, compacted to the front so thresholds
            # are one gather.
            sorted_columns = np.sort(padded_features, axis=1)
            keep = np.empty(sorted_columns.shape, dtype=bool)
            keep[:, 0, :] = True
            np.not_equal(
                sorted_columns[:, 1:, :], sorted_columns[:, :-1, :], out=keep[:, 1:, :]
            )
            keep &= np.arange(n_max_b)[None, :, None] < (sizes_b + 1)[:, None, None]
            rank = keep.cumsum(axis=1, dtype=np.int32)
            n_uni_b = rank[:, -1, :]
            n_unique_arr[start : start + nb] = n_uni_b
            # ``n_unique <= size + 1`` columnwise, so sum equality means
            # every column is already duplicate-free — then the sorted
            # block *is* the compacted table (real rows sort ahead of the
            # +inf padding), the common case for continuous features.
            if int(n_uni_b.sum()) == int((sizes_b + 1).sum()) * dims:
                compacted = sorted_columns
            else:
                # Compact first-of-run values to the front of each column
                # with flat indexing: a kept element at flat position
                # ``q`` (row ``j`` of its column) moves to row
                # ``rank - 1``, i.e. flat position
                # ``q + dims * (rank - 1 - j)`` — one flatnonzero and two
                # flat gathers instead of three-array ``np.nonzero``
                # coordinate math.
                flat_keep = np.flatnonzero(keep.reshape(-1))
                rows_of = (flat_keep // dims) % n_max_b
                dest = flat_keep + dims * (rank.reshape(-1)[flat_keep] - 1 - rows_of)
                compacted = np.empty_like(sorted_columns)
                compacted.reshape(-1)[dest] = sorted_columns.reshape(-1)[flat_keep]
            buckets.append((start, padded_features, padded_targets, compacted))
            del sorted_columns, keep, rank
        return _GrowTables(
            buckets, table_of_group[context.group_of], n_unique_arr, sizes[order] + 1
        )

    def _candidates(
        self, draws: np.ndarray, tables: _GrowTables, n_points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Phase 1c: every particle's K grow candidates from its draw row.

        Row ``i`` of the draw block belongs to particle ``i``: columns
        ``[0, K)`` pick the dimension as ``min(floor(u * d), d - 1)``,
        columns ``[K, 2K)`` the cut as ``min(floor(u * (n_unique - 1)),
        n_unique - 2)``, with ``n_unique`` read from the particle's table,
        and column ``2K`` is the move uniform.  Slot ``k`` keeps its
        column; a slot whose dimension has fewer than two distinct values,
        or whose particle has too few points to grow, is left empty.
        Returns ``(particle, slot, dim, cut)`` of the filled slots.
        """
        n_candidates = self._config.n_split_candidates
        dims = tables.n_unique.shape[1]
        dim_draws = np.minimum((draws[:, :n_candidates] * dims).astype(np.intp), dims - 1)
        unique_drawn = tables.n_unique[tables.table_of[:, None], dim_draws]
        growers = n_points >= 2 * self._config.min_leaf
        cand_particle, cand_slot = np.nonzero((unique_drawn >= 2) & growers[:, None])
        cut_span = unique_drawn[cand_particle, cand_slot] - 1
        cand_cut = np.minimum(
            (draws[cand_particle, n_candidates + cand_slot] * cut_span).astype(np.intp),
            cut_span - 1,
        )
        return cand_particle, cand_slot, dim_draws[cand_particle, cand_slot], cand_cut

    def _grow_splits(
        self,
        tables: _GrowTables,
        candidates: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> _Splits:
        """Phase 2a: every distinct candidate split's threshold and partition sums.

        A split is a ``(table, dim, cut)`` key; sorting the keys orders
        the distinct splits by table, and so by bucket.  The ``j``-th
        split of a table goes to slot ``j % K`` of the table's ``j // K``-th
        packed row, so there are at most as many rows as particles, and
        one masked ``einsum`` pass per side and moment sums a bucket's
        rows against their tables' targets.  Rows are at least two slots
        wide: over a one-wide slot axis ``einsum`` does not add in row
        order.
        """
        n_candidates = self._config.n_split_candidates
        n_slots = max(n_candidates, 2)
        cand_particle, _, cand_dim, cand_cut = candidates
        if not cand_particle.size:
            none = np.empty(0, dtype=np.intp)
            return _Splits(none, none, np.empty(0), none, none, np.empty((0, 2, 2)))
        n_unique = tables.n_unique
        dims = n_unique.shape[1]
        width = int(tables.n_points[-1])
        keys = (tables.table_of[cand_particle] * dims + cand_dim) * width + cand_cut
        order = keys.argsort()
        keys = keys[order]
        distinct = np.empty(keys.shape[0], dtype=bool)
        distinct[0] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        of_candidate = np.empty(keys.shape[0], dtype=np.intp)
        of_candidate[order] = distinct.cumsum() - 1
        split_table, split_cut = np.divmod(keys[distinct], width)
        split_table, split_dim = np.divmod(split_table, dims)
        slot = (
            np.arange(split_table.shape[0]) - np.searchsorted(split_table, split_table)
        ) % n_candidates
        opens = slot == 0
        row = opens.cumsum() - 1
        row_table = split_table[opens]
        n_rows = row_table.shape[0]
        thresholds = np.empty(split_table.shape[0])
        row_thresholds = np.full((n_rows, n_slots), -math.inf)
        row_dims = np.zeros((n_rows, n_slots), dtype=np.intp)
        row_dims[row, slot] = split_dim
        sums = np.empty((n_rows, 2, 2 * n_slots))
        n_left = np.empty((n_rows, n_slots), dtype=np.intp)
        bucket_starts = [bucket[0] for bucket in tables.buckets] + [n_unique.shape[0]]
        split_bounds = np.searchsorted(split_table, bucket_starts)
        row_bounds = np.searchsorted(row_table, bucket_starts)
        for b, (start, padded_features, padded_targets, compacted) in enumerate(tables.buckets):
            s0, s1 = split_bounds[b], split_bounds[b + 1]
            if s0 == s1:
                continue
            # The drawn cut values live in the bucket's compacted unique
            # tables; one gather per side reads the entries the splits need.
            pos = split_table[s0:s1] - start
            dim_s = split_dim[s0:s1]
            cut_s = split_cut[s0:s1]
            thresholds[s0:s1] = 0.5 * (
                compacted[pos, cut_s, dim_s] + compacted[pos, cut_s + 1, dim_s]
            )
            row_thresholds[row[s0:s1], slot[s0:s1]] = thresholds[s0:s1]
            n_max_b = padded_targets.shape[1]
            # The masked sums contract the (chunk, n_max_b, K) side masks
            # against the target rows in one einsum pass per side/moment;
            # chunking bounds the boolean scratch.
            chunk = max(1, 4_000_000 // (n_max_b * 2 * n_slots))
            flat_features = padded_features.reshape(-1)
            row_offsets = (np.arange(n_max_b, dtype=np.intp) * dims)[None, :, None]
            for c0 in range(row_bounds[b], row_bounds[b + 1], chunk):
                window = slice(c0, min(c0 + chunk, row_bounds[b + 1]))
                pos_w = row_table[window] - start
                # One flat gather for the candidate columns (notably faster
                # than take_along_axis's generic inner loop at this shape).
                columns = flat_features[
                    (pos_w * (n_max_b * dims))[:, None, None]
                    + row_offsets
                    + row_dims[window][:, None, :]
                ]
                left = columns <= row_thresholds[window][:, None, :]
                targets_w = padded_targets[pos_w]
                targets_sq_w = targets_w * targets_w
                # np.einsum's unoptimized path accumulates the contracted
                # axis strictly in index order (no pairwise or SIMD
                # partial sums) over a slot axis at least two wide, so
                # each fused mask-product-and-sum below is bit-identical
                # to ``cumsum`` over the compressed side (padding rows
                # contribute exact ``0.0`` no-ops) — pinned by the
                # equivalence suite.
                sums_w = sums[window]
                for side, mask in ((slice(None, n_slots), left),
                                   (slice(n_slots, None), ~left)):
                    np.einsum("pnk,pn->pk", mask, targets_w, out=sums_w[:, 0, side])
                    np.einsum("pnk,pn->pk", mask, targets_sq_w, out=sums_w[:, 1, side])
                n_left[window] = left.sum(axis=1)
        # (split, moment, side) -> (split, side, moment)
        split_sums = sums.reshape(n_rows, 2, 2, n_slots)[row, :, :, slot]
        return _Splits(
            of_candidate, split_dim, thresholds, n_left[row, slot],
            tables.n_points[split_table], split_sums.swapaxes(1, 2),
        )

    def _draw_moves(
        self,
        context: _LeafContext,
        grow_tables: _GrowTables,
        depths_arr: np.ndarray,
        y: float,
        draws: np.ndarray,
    ) -> _Moves:
        """Phase 2: score stay, grow and prune, and draw every particle's move."""
        config = self._config
        count = depths_arr.shape[0]
        n_candidates = config.n_split_candidates
        neg_inf = -math.inf
        leaf, sibling, prunable, pr = context.leaf, context.sibling, context.prunable, context.pr
        n_points_arr = leaf[:, _COUNT].astype(np.intp) + 1
        candidates = self._candidates(draws, grow_tables, n_points_arr)
        splits = self._grow_splits(grow_tables, candidates)

        # ------------- phase 2b: stay, prune and split leaf LMLs together
        # The hypothetical leaves (stay absorbs the new point, prune also
        # merges the sibling, a split's two sides) are scored by one pass
        # that gathers the count-dependent LML terms from the term tables
        # and evaluates the beta_n arithmetic elementwise — the expression
        # grouping and the scalar-rounded log map keep every score
        # bit-identical to the scalar evaluation the reference performs.
        # Each valid distinct split is scored once, whichever particles
        # drew it; a split that leaves fewer than ``min_leaf`` points on a
        # side is invalid.  The same pass also evaluates every prunable
        # particle's merged leaf in the operand order of its cache row
        # (merge, then absorb ``y``), which is not the order the prune
        # score sums in, so :meth:`_apply_moves` computes no LML itself.
        totals_stay = leaf[:, _SUM] + y
        sqs_stay = leaf[:, _SUM_SQ] + y * y
        n_right = splits.n_points - splits.n_left
        valid = np.flatnonzero((splits.n_left >= config.min_leaf) & (n_right >= config.min_leaf))
        side_sums = splits.sums[valid]
        pruned = leaf[pr]
        merged_counts = n_points_arr[pr] + sibling[:, _COUNT].astype(np.intp)
        counts = np.concatenate([
            n_points_arr, merged_counts, splits.n_left[valid], n_right[valid], merged_counts,
        ])
        totals = np.concatenate([
            totals_stay, totals_stay[pr] + sibling[:, _SUM], side_sums[:, 0, 0], side_sums[:, 1, 0],
            (pruned[:, _SUM] + sibling[:, _SUM]) + y,
        ])
        sqs = np.concatenate([
            sqs_stay, sqs_stay[pr] + sibling[:, _SUM_SQ], side_sums[:, 0, 1], side_sums[:, 1, 1],
            (pruned[:, _SUM_SQ] + sibling[:, _SUM_SQ]) + y * y,
        ])
        tables = self._leaf_term_tables()
        tables.ensure(int(counts.max()))
        lml, beta_n = tables.lml(counts, totals, sqs)
        depth_table = self._depth_table(int(depths_arr.max()))
        log1m_here = depth_table[depths_arr, 0]
        stay_scores = log1m_here + lml[:count]
        commons = np.zeros(count)
        prune_scores = np.full(count, neg_inf)
        if pr.size:
            parent_rows = depth_table[depths_arr[pr] - 1]
            # The sibling sits at the leaf's own depth (they share a parent).
            common_vals = (parent_rows[:, 2] + log1m_here[pr]) + sibling[:, _LML]
            commons[pr] = common_vals
            prune_scores[pr] = parent_rows[:, 0] + lml[count : count + pr.size]
            stay_scores[pr] += common_vals

        # ----------------- phase 2c: every particle's best grow proposal
        # A split's score lands in every slot that drew it (empty slots
        # point at the ``-inf`` sentinel past the last split), and each
        # particle keeps its first maximum, like the scalar
        # ``score > best`` scan.
        n_splits = splits.dims.shape[0]
        first_left = count + pr.size
        first_right = first_left + valid.size
        lml_left = np.empty(n_splits)
        lml_right = np.empty(n_splits)
        lml_left[valid] = lml[first_left:first_right]
        lml_right[valid] = lml[first_right : first_right + valid.size]
        split_scores = np.full(n_splits + 1, neg_inf)
        split_scores[valid] = lml_left[valid] + lml_right[valid]
        slot_split = np.full((count, n_candidates), n_splits, dtype=np.intp)
        slot_split[candidates[0], candidates[1]] = splits.of_candidate
        best = slot_split[np.arange(count), split_scores[slot_split].argmax(axis=1)]
        has_best = np.flatnonzero(split_scores[best] > neg_inf)
        won = best[has_best]
        g = (depth_table[depths_arr[has_best], 1] + lml_left[won]) + lml_right[won]
        grow_scores = np.full(count, neg_inf)
        grow_scores[has_best] = np.where(prunable[has_best], g + commons[has_best], g)

        # ------------------------------ phase 2d: batched move ceremony
        # ``exp(-inf - max) == 0.0`` exactly, so exponentiating the full
        # score rows reproduces the reference's zero-filled probabilities
        # without an isfinite mask (the stay score is always finite, so
        # every row max is finite and no NaN can appear).  The rowwise
        # max/exp/sum/cumsum sequence and the ``(cdf <= u).sum`` inversion
        # of ``Generator.choice`` are elementwise identical to the
        # per-particle reference ops — pinned by the equivalence suite.
        score_matrix = np.empty((count, 3))
        score_matrix[:, 0] = stay_scores
        score_matrix[:, 1] = grow_scores
        score_matrix[:, 2] = prune_scores
        np.subtract(score_matrix, score_matrix.max(axis=1)[:, None], out=score_matrix)
        np.exp(score_matrix, out=score_matrix)
        score_matrix /= score_matrix.sum(axis=1)[:, None]
        cdf = np.cumsum(score_matrix, axis=1)
        cdf /= cdf[:, -1:]
        uniforms = draws[:, 2 * n_candidates]
        moves = (cdf <= uniforms[:, None]).sum(axis=1)
        prune_mask = (moves == 2) & prunable
        # Only a particle with a winning split has a finite grow score.
        grow_mask = (moves == 1) & (grow_scores > neg_inf)
        grows = np.flatnonzero(grow_mask)
        won = best[grows]
        n_left_grow = splits.n_left[won]
        stays = np.flatnonzero(~(prune_mask | grow_mask))
        prunes = np.flatnonzero(prune_mask)
        # The new leaves' rows of the scored block, in the order
        # _apply_moves lays out its cache rows.  A winning split is valid.
        left_rows = first_left + np.searchsorted(valid, won)
        scored = np.concatenate([
            stays, left_rows, left_rows + valid.size,
            first_right + valid.size + np.searchsorted(pr, prunes),
        ])
        return _Moves(
            stays=stays,
            grows=grows,
            prunes=prunes,
            dims=splits.dims[won],
            thresholds=splits.thresholds[won],
            n_left=n_left_grow,
            n_right=n_points_arr[grows] - n_left_grow,
            sums=splits.sums[won],
            lml=lml[scored],
            beta_n=beta_n[scored],
        )

    def _apply_moves(
        self,
        context: _LeafContext,
        moves: _Moves,
        routing: _UpdateRouting,
        x: np.ndarray,
        y: float,
        index: int,
    ) -> None:
        """Phase 3: land every move on the forest in a few array operations.

        Every new leaf-cache row comes from one pass of term-table
        arithmetic (:meth:`_cache_rows`): stays absorb ``y``, grows get
        both children from the proposal's partition statistics, prunes
        merge leaf and sibling and then absorb ``y`` — in the operand order
        of the reference's ``merge(...).add(y)``, which is not the order
        the prune score sums in.  Every row's ``(lml, beta_n)`` comes from
        the scoring pass, which evaluated the same statistics in the same
        operand order (:meth:`_draw_moves`).  Then one row write lands
        every stay, one splice every grow and one every prune (see
        :class:`~repro.models.flat_tree.ParticleForest`, which also
        renumbers ``leaf_of``), and one column write records the new
        point's final leaf.
        """
        stays, grows, prunes = moves.stays, moves.grows, moves.prunes
        stay = context.leaf[stays]
        pruned = context.leaf[prunes]
        sibling = context.sibling[np.searchsorted(context.pr, prunes)]
        merged_ns = pruned[:, _COUNT].astype(np.intp) + sibling[:, _COUNT].astype(np.intp)
        rows = self._cache_rows(
            np.concatenate([stay[:, _COUNT].astype(np.intp) + 1, moves.n_left,
                            moves.n_right, merged_ns + 1]),
            np.concatenate([stay[:, _SUM] + y, moves.sums[:, 0, 0], moves.sums[:, 1, 0],
                            (pruned[:, _SUM] + sibling[:, _SUM]) + y]),
            np.concatenate([stay[:, _SUM_SQ] + y * y, moves.sums[:, 0, 1], moves.sums[:, 1, 1],
                            (pruned[:, _SUM_SQ] + sibling[:, _SUM_SQ]) + y * y]),
            (moves.lml, moves.beta_n),
        )
        forest = self._particle_forest
        local_ids = routing.local_ids
        capacity = forest.capacity
        n_stay = stays.size
        n_grow = grows.size
        forest.data[stays, local_ids[stays]] = rows[:n_stay]
        new_leaf = local_ids.astype(np.int32)
        if n_grow:
            forest.grow(
                grows,
                routing.nodes[grows] % capacity,
                local_ids[grows],
                moves.dims,
                moves.thresholds,
                rows[n_stay : n_stay + 2 * n_grow].reshape(2, n_grow, -1).swapaxes(0, 1),
                self._X[:index],
            )
            new_leaf[grows] += ~(x[moves.dims] <= moves.thresholds)
        if prunes.size:
            left_ids = np.where(context.is_left[prunes], 0, -1) + local_ids[prunes]
            forest.prune(
                prunes,
                routing.parents[prunes] % capacity,
                left_ids,
                rows[n_stay + 2 * n_grow :],
                index,
            )
            new_leaf[prunes] = left_ids
        forest.assign(index, new_leaf)

    def _cache_rows(
        self,
        counts: np.ndarray,
        totals: np.ndarray,
        total_sqs: np.ndarray,
        scored: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Leaf-cache rows of leaves holding ``(count, sum, sum_sq)`` statistics.

        Count-table gathers and elementwise arithmetic grouped as the
        oracle's per-leaf scalar evaluation groups it, with the scalar
        ``log`` map, so every row is bit-identical to the oracle's.  Every
        count must be at least 1 and already covered by the term tables.
        ``scored`` passes the leaves' ``(lml, beta_n)`` when the term
        tables' :meth:`~repro.models.leaf.LeafTermTables.lml` has already
        computed them from these same statistics.
        """
        tables = self._leaf_term_tables()
        prior = self._prior
        lml, beta_n = tables.lml(counts, totals, total_sqs) if scored is None else scored
        kappa_n = tables.kappa_n[counts]
        alpha_n = tables.alpha_n[counts]
        scale = (beta_n * (kappa_n + 1.0)) / (alpha_n * kappa_n)
        dof = tables.dof[counts]
        rows = np.empty((counts.shape[0], LeafCacheArrays.N_COLUMNS))
        rows[:, LeafCacheArrays.MEAN] = (prior.kappa * prior.mean + totals) / kappa_n
        rows[:, LeafCacheArrays.VARIANCE] = (scale * dof) / (dof - 2.0)
        rows[:, LeafCacheArrays.COUNT] = counts
        rows[:, LeafCacheArrays.LOGPDF_SCALE] = dof * scale
        rows[:, LeafCacheArrays.LOGPDF_COEF] = tables.coef[counts]
        rows[:, LeafCacheArrays.LOGPDF_CONST] = tables.lgamma_part[
            counts
        ] - 0.5 * log_map_exact(tables.dof_pi[counts] * scale)
        rows[:, LeafCacheArrays.SUM] = totals
        rows[:, LeafCacheArrays.SUM_SQ] = total_sqs
        rows[:, LeafCacheArrays.LML] = lml
        return rows
