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

Prediction, the ALC score and the update path all read one
:class:`~repro.models.flat_tree.ParticleForest`: every particle's tree
compiled into a row of padded NumPy arrays, descended level-by-level for
a whole batch of rows and particles at once rather than by per-row Python
``descend()`` loops.

The sequential **update** path (Algorithm 1's per-observation model update)
is batched across particles as well, which is what makes paper-scale
particle counts (5 000) tractable:

* **reweight** — one ``route_update`` descent routes the incoming ``x``
  through every particle's forest row together, and the predictive
  log-pdfs come from the cached per-leaf log-pdf terms of the leaves it
  lands on (one fused gather plus the float mode's ``log1p`` map) instead of
  ``n_particles`` per-node Python descents;
* **resample** — the systematic resampler duplicates particles
  *copy-on-write*: duplicates share the original tree, and nodes are
  cloned lazily, path-by-path, the first time a subsequent move actually
  mutates them (``_Node.shared`` marks possibly-shared nodes; cloning a
  node flags its children), so a resample costs O(1) tree work per
  duplicate plus one row gather of the forest;
* **propagate** — the stay/grow/prune scores are computed from sufficient
  statistics through a per-prior :class:`~repro.models.leaf.LMLCache`
  (count-dependent ``lgamma``/``log`` terms memoized), the grow proposal
  scores all candidate splits with one batched masked-cumsum scan, and
  the moves land on the forest as three batched array operations: one
  row write for every stay, one splice for every grow and one for every
  prune.  Only the ``_Node`` mutation itself stays per particle.

Each update draws its randomness up front in one fixed, data-independent
layout (see :meth:`DynamicTreeRegressor.update`), so stream consumption
depends only on the particle and candidate counts.  Every floating-point
operation in the batched path replays a per-particle reference
implementation exactly (sequential ``cumsum`` sums, scalar ``math``
transcendentals), and the reference decodes the same draw block row by
row, so seeded learning curves are bit-identical between the two.  That
reference (``ReferenceDynamicTree`` in ``tests/oracles/dynamic_tree.py``,
one Python descent per particle and row) is the oracle of the equivalence
tests.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .base import Prediction, SurrogateModel
from . import compiled_kernels as kernels
from .compiled_kernels import nig_beta_n
from .flat_tree import FlatForest, ParticleForest
from .leaf import (
    GaussianLeafModel,
    LeafCacheArrays,
    LeafTermTables,
    LMLCache,
    NIGPrior,
)

__all__ = ["DynamicTreeConfig", "DynamicTreeRegressor"]


@dataclass(frozen=True)
class DynamicTreeConfig:
    """Hyper-parameters of the dynamic tree model.

    The paper uses the ``dynaTree`` defaults with 5 000 particles; the
    decision spaces are low-dimensional and the acquisition only needs
    well-ranked variances, so a few dozen particles behave almost
    identically (this is exercised by an ablation benchmark), but with the
    batched update kernel the paper's particle count is affordable too.

    ``float_mode`` selects between the bit-exact float contract
    (``"exact"``, the default: sequential-cumsum reductions and scalar
    ``math`` transcendental maps, bit-identical to the per-particle
    reference) and ``"fast"`` (``np.sum``/matmul reductions and numpy SIMD
    transcendentals where bit-identity is what blocks fusion).  Fast-mode
    scores can differ from the reference in the last ulp, which may fork
    sampled trajectories at knife-edge draws; the tolerance suite pins
    the agreement (see ``docs/architecture.md``).

    ``backend`` has one accepted value, ``"numpy"``; it is kept only so
    callers that still pass it keep working.
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
        if self.float_mode not in ("exact", "fast"):
            raise ValueError('float_mode must be "exact" or "fast"')

    def split_probability(self, depth: int) -> float:
        """CGM tree prior: probability that a node at ``depth`` is split."""
        return self.split_alpha * (1.0 + depth) ** (-self.split_beta)


class _Node:
    """One node of a particle's tree.

    A node is either internal (``split_dim``/``split_value`` set, ``left``
    and ``right`` children) or a leaf (``leaf`` model plus the indices of the
    observations it contains).

    ``shared`` marks a node that *may* be referenced by more than one
    particle (set when a resample duplicates a tree, and propagated to the
    children of any node cloned off a shared path).  Shared nodes are never
    mutated in place: the update path clones them copy-on-write the first
    time a move needs to touch them.  The flag is conservative — a node can
    stay flagged after its other referents have cloned their own paths —
    which costs at most one redundant clone, never a correctness bug.
    """

    __slots__ = (
        "depth",
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf",
        "indices",
        "shared",
    )

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.split_dim: Optional[int] = None
        self.split_value: float = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.leaf: Optional[GaussianLeafModel] = None
        self.indices: List[int] = []
        self.shared = False

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def clone_shallow(self) -> "_Node":
        """A private one-node clone for copy-on-write path copying.

        The clone owns its leaf state (model and index list) but keeps
        references to the original children, which become ``shared``: both
        the clone and the original node now point at them, so whichever
        particle descends into them next must clone again.
        """
        clone = _Node(self.depth)
        clone.split_dim = self.split_dim
        clone.split_value = self.split_value
        clone.left = self.left
        clone.right = self.right
        if self.leaf is not None:
            clone.leaf = self.leaf.copy()
            clone.indices = list(self.indices)
        if clone.left is not None:
            clone.left.shared = True
        if clone.right is not None:
            clone.right.shared = True
        return clone

    def leaves(self) -> List["_Node"]:
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()


def _snapshot_particles(forest: ParticleForest) -> dict:
    """The particles' posterior as a ragged pre-order array snapshot.

    Read straight from the forest: ``n_nodes`` per particle, ``split_dim``
    of every live node (``-1`` marks a leaf, so the pre-order sequence
    alone fixes the tree shape), ``split_value`` of the internal nodes,
    ``(count, sum, sum_sq)`` of the leaves in leaf-id order, and each
    leaf's observation indices (per-leaf counts plus one flat array).
    Index lists keep their order: the grow partition sums accumulate in
    it, so a reordered list would change the sums' rounding.
    """
    n_nodes = forest.n_nodes
    live = np.arange(forest.capacity) < n_nodes[:, None]
    split_dim = forest.split_dim[live]
    n_leaves = (n_nodes + 1) // 2
    leaf_live = np.arange(forest.leaf_capacity) < n_leaves[:, None]
    stats = forest.data[leaf_live][
        :, [LeafCacheArrays.COUNT, LeafCacheArrays.SUM, LeafCacheArrays.SUM_SQ]
    ]
    lists = [node.indices for nodes in forest.leaf_nodes for node in nodes]
    index_counts = np.fromiter(map(len, lists), dtype=np.int32, count=len(lists))
    indices = np.fromiter(
        chain.from_iterable(lists), dtype=np.int32, count=int(index_counts.sum())
    )
    return {
        "n_nodes": n_nodes.astype(np.int32),
        "split_dim": split_dim.astype(np.int32),
        "split_value": forest.split_value[live][split_dim >= 0],
        "leaf_stats": stats,
        "index_counts": index_counts,
        "indices": indices,
    }


def _rebuild_particles(snapshot: dict, prior: NIGPrior) -> List[_Node]:
    """Private ``_Node`` trees from :func:`_snapshot_particles`' arrays.

    Nodes are rebuilt in pre-order, each node's depth given by its
    position; no node is shared between particles.
    """
    dims = iter(snapshot["split_dim"].tolist())
    values = iter(snapshot["split_value"].tolist())
    stats = iter(snapshot["leaf_stats"].tolist())
    flat = snapshot["indices"].tolist()
    ends = np.cumsum(snapshot["index_counts"]).tolist()
    bounds = iter(zip([0] + ends, ends))

    def build(depth: int) -> _Node:
        node = _Node(depth)
        dim = next(dims)
        if dim < 0:
            count, total, total_sq = next(stats)
            node.leaf = GaussianLeafModel.from_sufficient_stats(
                prior, int(count), total, total_sq
            )
            begin, end = next(bounds)
            node.indices = flat[begin:end]
        else:
            node.split_dim = dim
            node.split_value = next(values)
            node.left = build(depth + 1)
            node.right = build(depth + 1)
        return node

    return [build(0) for _ in range(len(snapshot["n_nodes"]))]


class _GrowProposal(NamedTuple):
    """The winning candidate split of a batched grow-proposal scan.

    Carries everything :meth:`DynamicTreeRegressor._apply_grow_batched`
    needs to build the two children without re-scanning: the split itself,
    both sides' sufficient statistics, and the boolean membership mask over
    the leaf's observations with the incoming point in the last position.
    """

    dim: int
    threshold: float
    n_left: int
    sum_left: float
    sum_sq_left: float
    n_right: int
    sum_right: float
    sum_sq_right: float
    mask: np.ndarray


class _UpdateRouting(NamedTuple):
    """Per-particle routing context of one update's reweight descent.

    Produced by the ``route_update`` kernel over the (pre-update) forest
    and threaded from :meth:`DynamicTreeRegressor._resample` into
    :meth:`DynamicTreeRegressor._propagate_all`, whose gather phase reads
    each particle's leaf and prune-sibling statistics straight from the
    forest's packed cache columns instead of re-walking ``_Node``
    objects.  After a resample the per-particle arrays are permuted to
    the post-resample particle order while ``forest`` keeps viewing the
    *pre-resample* rows, so the global ids still index into it; local
    node and leaf ids (``global % capacity``) hold in either layout.
    """

    forest: FlatForest
    local_ids: np.ndarray
    gids: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    depths: np.ndarray


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
        self._lml: Optional[LMLCache] = None
        self._particles: List[_Node] = []
        # Every particle compiled into one padded array set, built on the
        # first predict/ALC/update after ``fit`` or a load and then kept in
        # step by each update.
        self._particle_forest: Optional[ParticleForest] = None
        # Per-depth tree-prior log terms (split probabilities only depend on
        # the frozen config, and every particle's scores reuse them).
        self._depth_cache: Dict[int, Tuple[float, float, float]] = {}
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
        particles travel as an array snapshot of the particle forest (see
        :func:`_snapshot_particles`), one pickle of a few arrays instead
        of one object per node and leaf.  A model without a forest
        compiles one for the snapshot.  The forest itself and the count and
        depth term tables are dropped: after load the next predict, ALC
        score or update recompiles them, with bit-identical values.
        """
        state = self.__dict__.copy()
        for derived in ("_particles", "_particle_forest", "_term_tables", "_depth_arrays"):
            del state[derived]
        snapshot = None
        if self._particles:
            forest = self._particle_forest
            if forest is None:
                forest = ParticleForest.compile(self._particles)
            snapshot = _snapshot_particles(forest)
        state["_snapshot"] = snapshot
        return state

    def __setstate__(self, state: dict) -> None:
        snapshot = state.pop("_snapshot")
        self.__dict__.update(state)
        self._particles = (
            [] if snapshot is None else _rebuild_particles(snapshot, self._prior)
        )
        self._particle_forest = None
        self._term_tables = None
        self._depth_arrays = None

    def __deepcopy__(self, memo: dict) -> "DynamicTreeRegressor":
        # An in-memory copy keeps the compiled state: rebuilding it would
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
        update after ``fit`` or a load also compiles the particle forest
        here), ``"resample"`` (ESS decision + systematic permutation +
        forest row gather), ``"propagate-score"`` (stat gathers,
        grow-candidate tables, move scoring and the draw inversion) and
        ``"propagate-apply"`` (tree mutation + the forest's stay write and
        grow/prune splices).
        Only the batched update path records; :meth:`reset_phase_timings`
        zeroes the counters.
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
        return len(self._particles)

    def leaf_counts(self) -> List[int]:
        """Number of leaves in each particle (useful for diagnostics/tests)."""
        return [len(root.leaves()) for root in self._particles]

    def fantasy_copy(self) -> "DynamicTreeRegressor":
        """A cheap copy-on-write copy safe to ``update`` with fantasies.

        Batch acquisition (kriging believer) needs a throwaway model to
        absorb believed observations.  A deep copy clones every particle
        tree — almost all of which the few fantasy updates never touch.
        Instead the copy *shares* the particle trees copy-on-write: every
        node is flagged ``shared`` (the same authoritative invariant a
        resample establishes), so whichever model mutates a path first
        clones just that path.  The particle forest's arrays are copied
        (one memcpy each; the leaf-node lists are never mutated in place,
        so both forests share them), as are the training buffers (updates
        append to them in place).  The RNG is deep-copied so fantasy draws
        do not consume the real model's stream, and the memoized pure
        caches (LML, count-term tables, depth terms) stay shared — both
        sides only ever add deterministically recomputable entries.
        """
        clone = type(self).__new__(type(self))
        clone._config = self._config
        clone._rng = copy.deepcopy(self._rng)
        clone._X = None if self._X is None else self._X.copy()
        clone._y = None if self._y is None else self._y.copy()
        clone._n = self._n
        clone._prior = self._prior
        clone._lml = self._lml
        for root in self._particles:
            stack = [root]
            while stack:
                node = stack.pop()
                node.shared = True
                if node.left is not None:
                    stack.append(node.left)
                    stack.append(node.right)
        clone._particles = list(self._particles)
        forest = self._particle_forest
        clone._particle_forest = None if forest is None else forest.copy()
        clone._depth_cache = self._depth_cache
        clone._term_tables = self._term_tables
        clone._depth_arrays = self._depth_arrays
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

    # ------------------------------------------------------------- training

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
        self._lml = LMLCache(self._prior)
        self._depth_cache = {}
        self._particles = []
        self._particle_forest = None
        for _ in range(self._config.n_particles):
            root = _Node(depth=0)
            root.leaf = GaussianLeafModel(self._prior)
            self._particles.append(root)
        order = self._rng.permutation(X.shape[0])
        for index in order:
            self.update(X[index], float(y[index]))

    def _observation(
        self, features: np.ndarray, target: float
    ) -> Tuple[np.ndarray, float]:
        """``(x, y)`` of one observation, checked against the seeded model."""
        if self._prior is None or not self._particles:
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
        propagate step runs as a three-phase pipeline
        (see :meth:`_propagate_all`) whose cross-particle work — candidate
        partition sums, split thresholds, move probabilities, the move draw
        inversion and the stay-move leaf patch — runs as a handful of array
        operations over all particles instead of per-particle numpy calls.

        The update's randomness is drawn first, in one fixed layout that
        does not depend on the data: one ``random()`` for the systematic
        resample (drawn whether or not the effective sample size calls for
        a resample, and on the first update, which has nothing to
        resample), then one ``random((n_particles, 2K + 1))`` block with
        ``K = n_split_candidates`` whose row ``i`` is post-resample particle
        ``i``'s grow candidates and move uniform (column layout in
        :meth:`_propagate_all`).  Any bit generator works, and the stream
        position after an update depends only on ``(n_particles, K)``.
        """
        x, y = self._observation(features, target)
        rng = self._rng
        resample_uniform = rng.random()
        draws = rng.random(
            (len(self._particles), 2 * self._config.n_split_candidates + 1)
        )
        routing: Optional[_UpdateRouting] = None
        if self._n >= 1:
            routing = self._resample(x, y, resample_uniform)
        index = self._append_observation(x, y)
        self._propagate_all(x, y, index, routing, draws)

    # ----------------------------------------------------------- prediction

    def _ensure_forest(self) -> FlatForest:
        """The particle forest's flat view, compiling the forest if needed.

        The forest is compiled from the particles on the first call after
        ``fit`` or a load; every batched update keeps it in step after that.
        """
        forest = self._particle_forest
        if forest is None:
            forest = ParticleForest.compile(self._particles)
            self._particle_forest = forest
        return forest.view()

    def predict(self, features: np.ndarray) -> Prediction:
        if not self._particles or not self._n:
            raise RuntimeError("the model has no training data yet")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        count = float(len(self._particles))
        mean, variance = self._ensure_forest().predict_components(X)
        if self._config.float_mode == "fast":
            # Pairwise reductions: tolerance-tested against the sequential
            # accumulation, not bit-identical to it.
            means = np.add.reduce(mean, axis=0) / count
            second_moments = np.add.reduce(variance + mean * mean, axis=0)
        else:
            # cumsum(axis=0)[-1] accumulates over particles in the same
            # sequential order as the reference loop, keeping the result
            # bit-identical.
            means = np.cumsum(mean, axis=0)[-1] / count
            second_moments = np.cumsum(variance + mean * mean, axis=0)[-1]
        variances = np.maximum(second_moments / count - means ** 2, 1e-18)
        return Prediction(mean=means, variance=variances)

    def expected_average_variance(
        self, candidates: np.ndarray, reference: np.ndarray
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

        Vectorized: per particle, the reference and candidate batches are
        routed to integer leaf ids in one pass each; the per-leaf reference
        variance mass is a ``bincount`` and the candidate reductions are
        gathers — no Python-level descent and no ``id(node)`` dictionaries.
        """
        if not self._particles or not self._n:
            raise RuntimeError("the model has no training data yet")
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        R = np.atleast_2d(np.asarray(reference, dtype=float))
        n_reference = R.shape[0]
        kappa = self._prior.kappa
        forest = self._ensure_forest()
        # (n_particles, n_reference) global leaf ids; leaf ids never collide
        # across particles, so one bincount aggregates the per-leaf
        # reference-variance mass of the entire forest.
        reference_leaf_ids = forest.route(R)
        reference_variance = forest.leaf_variance[reference_leaf_ids]
        fast = self._config.float_mode == "fast"
        # Sequential (cumsum) accumulation keeps every score bit-identical to
        # the reference loop; bincount also adds weights in input order.  In
        # fast mode the pairwise np.add.reduce stands in (tolerance-tested).
        if fast:
            base_total = np.add.reduce(reference_variance, axis=1)
        else:
            base_total = np.cumsum(reference_variance, axis=1)[:, -1]
        variance_by_leaf = np.bincount(
            reference_leaf_ids.ravel(),
            weights=reference_variance.ravel(),
            minlength=forest.n_leaves,
        )
        candidate_leaf_ids = forest.route(C)
        shrink = 1.0 / (forest.leaf_count[candidate_leaf_ids] + kappa + 1.0)
        reduction = variance_by_leaf[candidate_leaf_ids] * shrink
        spread = (base_total[:, None] - reduction) / n_reference
        if fast:
            scores = np.add.reduce(spread, axis=0)
        else:
            scores = np.cumsum(spread, axis=0)[-1]
        return scores / len(self._particles)

    # --------------------------------------------------- reweight + resample

    def _systematic_indices(self, weights: np.ndarray, uniform: float) -> List[int]:
        """Systematic (stratified) resampling indices for normalized weights.

        The ``uniform`` draw places ``n`` equally spaced positions on [0, 1);
        each position selects the first particle whose cumulative weight
        reaches it.  Two hardening measures guard the scan against
        floating-point drift (``cumsum`` of normalized weights lands a few
        ulps off 1): the bound check runs *before* the cumulative
        comparison, so once the scan reaches the last particle it stops
        there — a position beyond the drifted total belongs to the final
        stratum and can neither read past the array nor keep advancing —
        and the cumulative array's final entry is pinned to exactly 1.0, so
        the array itself states the correct invariant (total mass 1, every
        position < 1 owned) for anything that inspects it.

        The scan itself is one ``searchsorted``: with the final entry
        pinned, "first index whose cumulative weight reaches the position"
        is exactly the ``side="left"`` insertion point, and every position
        is strictly below 1.0, so the result can never exceed the last
        index.  The entries before the pin are a true non-decreasing
        cumsum, so the predicate ``cumulative[j] >= position`` is monotone
        in ``j`` even when drift pushed the penultimate entry above 1.0 —
        the stateful reference scan and the binary search agree on every
        input (pinned by the adversarial resampler tests).
        """
        count = len(weights)
        positions = (uniform + np.arange(count)) / count
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        return np.searchsorted(cumulative, positions, side="left").tolist()

    def _resample(self, x: np.ndarray, y: float, uniform: float) -> _UpdateRouting:
        """Batched reweight-and-resample; returns the update's routing context.

        The reweight is three kernel calls over the particle forest's flat
        view: one all-particles ``route_update`` descent — recording each
        particle's leaf node, parent node and descent depth alongside the
        leaf id, the structural context the propagate gather phase reads
        instead of re-walking ``_Node`` objects — one fused
        gather-and-log-pdf pass over the leaf cache rows, and the offset
        subtraction that localises the global ids.  The arithmetic is the
        cached-log-pdf-terms evaluation with the float mode's ``log1p``
        map (scalar-rounded in exact mode — numpy's rounds differently
        and the resample decision is sampled from these weights).  When
        the effective sample size calls for a resample, duplicated
        particles *share* the original tree copy-on-write instead of
        deep-copying it, the forest gathers its rows into the new particle
        order, and the routing arrays are permuted to match (the routing's
        view keeps reading the pre-resample rows).  ``uniform`` places the
        systematic resampler's positions.
        """
        timings = self._phase_timings
        tic = perf_counter()
        particles = self._particles
        count = len(particles)
        config = self._config
        _, log1p_array = kernels.log_maps(config.float_mode == "fast")
        forest = self._ensure_forest()
        gids, nodes, parents, depths = kernels.route_update_numpy(
            forest.split_dim,
            forest.split_value,
            forest.left,
            forest.right,
            forest.leaf_slot,
            forest.roots,
            x,
        )
        log_weights = kernels.reweight_log_weights(
            forest.caches.data, gids, y, log1p_array
        )
        local_ids = gids - forest.leaf_offsets
        routing = _UpdateRouting(forest, local_ids, gids, nodes, parents, depths)
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
        if effective >= config.resample_threshold * count:
            timings["resample"] += perf_counter() - tic
            return routing
        chosen_indices = self._systematic_indices(weights, uniform)
        chosen = np.asarray(chosen_indices, dtype=np.intp)
        occurrences = np.bincount(chosen, minlength=count)
        duplicated = occurrences > 1
        for j in np.flatnonzero(duplicated).tolist():
            # Copy-on-write: every occurrence shares the tree; the first
            # move that mutates it clones just the path it touches.  The
            # *whole* tree is flagged, not just the root, so ``shared``
            # stays authoritative — a False flag guarantees single
            # ownership, which is what lets the apply phase mutate leaves
            # straight out of the forest's leaf-node map without
            # re-walking the tree (``clone_shallow`` upholds the invariant
            # when it hands its children a second owner).
            stack = [particles[j]]
            while stack:
                node = stack.pop()
                node.shared = True
                if node.left is not None:
                    stack.append(node.left)
                    stack.append(node.right)
        self._particles = [particles[j] for j in chosen_indices]
        self._particle_forest.gather(chosen)
        routing = _UpdateRouting(
            forest,
            local_ids[chosen],
            gids[chosen],
            nodes[chosen],
            parents[chosen],
            depths[chosen],
        )
        timings["resample"] += perf_counter() - tic
        return routing

    # ----------------------------------------------------- batched propagate

    def _leaf_term_tables(self) -> LeafTermTables:
        """The count-indexed NIG term tables for the current prior.

        Rebuilt whenever :meth:`fit` installs a fresh :class:`LMLCache`
        (identity check), and lazily created on first use and after
        unpickling (checkpoints do not carry them).
        """
        assert self._lml is not None
        tables = self._term_tables
        if tables is None or tables.lml is not self._lml:
            tables = LeafTermTables(self._lml)
            self._term_tables = tables
        return tables

    def _depth_table(self, max_depth: int) -> np.ndarray:
        """``(depth, 3)`` array of :meth:`_depth_terms`, grown on demand.

        Column layout matches the scalar tuple: ``log1p(-p)``, the grow
        head ``log(p) + 2*log1p(-p_child)``, and ``log(p)``.  The values
        depend only on the frozen config, so the table never goes stale.
        """
        table = self._depth_arrays
        if table is None or table.shape[0] <= max_depth:
            size = max(16, 2 * (max_depth + 1))
            table = np.empty((size, 3))
            for depth in range(size):
                table[depth] = self._depth_terms(depth)
            self._depth_arrays = table
        return table

    def _depth_terms(self, depth: int) -> Tuple[float, float, float]:
        """``(log1p(-p), log(p) + 2*log1p(-p_child), log(p))`` at ``depth``.

        These are the tree-prior factors of the stay/grow/prune scores; they
        depend only on the depth and the frozen config, so every particle's
        score computation shares one memoized scalar evaluation (grouped
        exactly as the reference expressions group them).
        """
        terms = self._depth_cache.get(depth)
        if terms is None:
            config = self._config
            p_here = config.split_probability(depth)
            p_child = config.split_probability(depth + 1)
            log1m = math.log1p(-p_here)
            log_p = math.log(p_here)
            grow_head = log_p + 2.0 * math.log1p(-p_child)
            terms = (log1m, grow_head, log_p)
            self._depth_cache[depth] = terms
        return terms

    def _descend_cow(
        self, root: _Node, x: np.ndarray
    ) -> Tuple[_Node, Optional[_Node], _Node]:
        """Descend to the leaf containing ``x``, cloning shared path nodes.

        Returns ``(leaf, parent, root)`` — ``root`` is a new object when the
        old one was shared.  After this walk the whole root-to-leaf path is
        privately owned, so the caller may mutate the leaf (stay/grow) or
        the parent (prune) without leaking state into particles that share
        off-path subtrees.
        """
        if root.shared:
            root = root.clone_shallow()
        parent: Optional[_Node] = None
        node = root
        while not node.is_leaf:
            parent = node
            assert node.left is not None and node.right is not None
            go_left = x[node.split_dim] <= node.split_value
            child = node.left if go_left else node.right
            if child.shared:
                child = child.clone_shallow()
                if go_left:
                    node.left = child
                else:
                    node.right = child
            node = child
        return node, parent, root

    def _propagate_all(
        self,
        x: np.ndarray,
        y: float,
        index: int,
        routing: Optional[_UpdateRouting],
        draws: np.ndarray,
    ) -> None:
        """Propagate every particle through one stay/grow/prune move.

        Three phases, all bit-identical to the per-particle reference
        propagate (one stay/grow/prune move per particle in turn):

        1. **score** — the leaf, sibling and depth context comes from the
           reweight's ``route_update`` descent (see :class:`_UpdateRouting`):
           leaf and prune-sibling sufficient statistics are fused array
           gathers over the forest's packed cache columns, the prune
           siblings and tree-prior depth terms follow from the recorded
           parent nodes, and the only remaining per-particle loop collects
           each leaf's training-row indices through the forest's
           ``leaf_nodes`` maps.  The grow candidates are decoded from the
           update's ``draws`` block in one array pass (row ``i`` belongs
           to particle ``i``; columns ``[0, K)`` pick the dimension as
           ``min(floor(u * d), d - 1)``, columns ``[K, 2K)`` the cut as
           ``min(floor(u * (n_unique - 1)), n_unique - 2)`` and column
           ``2K`` is the move uniform; entries of non-growers and of
           dimensions with fewer than two distinct values are ignored);
           the stay/prune scores are then one vectorized pass over
           :class:`~repro.models.leaf.LeafTermTables` gathers with the
           float mode's ``log`` map.  Scoring reads only pre-update state,
           so particles sharing copy-on-write subtrees see identical values to the
           reference's private copies.
        2. **batch** — every particle's candidate splits are scored
           together: padded ``(n_particles, max_leaf_size, …)`` arrays
           carry one fused masked sequential-cumsum for all partition sums,
           the split thresholds come from one gather over a batched
           unique-value table, and the move probabilities and
           ``Generator.choice`` cdf inversions for all particles run as a
           handful of rowwise array ops.  Padding rows hold ``+inf``
           features (never selected by a mask) and ``0.0`` targets (exact
           no-ops in the sequential sums), so the batch reproduces each
           particle's reference arithmetic bit-for-bit.
        3. **apply** — moves mutate the trees through one copy-on-write
           descent per particle (a pure pointer walk on private paths, or
           no walk at all for a private leaf), then land on the particle
           forest as three batched operations: one row write of every
           stay's leaf, one splice of every grow and one of every prune
           (see :class:`~repro.models.flat_tree.ParticleForest`).  All new
           cache rows come from one pass of term-table arithmetic
           (:meth:`_cache_rows`).
        """
        assert self._prior is not None and self._lml is not None
        assert self._X is not None and self._y is not None
        timings = self._phase_timings
        tic = perf_counter()
        particles = self._particles
        count = len(particles)
        config = self._config
        min_leaf = config.min_leaf
        n_candidates = config.n_split_candidates
        fast = config.float_mode == "fast"
        dims = x.shape[0]
        neg_inf = -math.inf
        particle_forest = self._particle_forest

        # --------------------- phase 1a: routed state gathers
        # Leaf sufficient statistics, descent depths, prune siblings and
        # the memoized sibling marginal likelihoods all come from the
        # reweight routing as fused gathers over the forest's packed
        # cache columns (the forest was synced at the top of the update,
        # so every row is pre-update truth).  The per-particle loop that
        # remains only collects each leaf's training-row index list.
        all_rows: List[int] = []
        extend_rows = all_rows.extend
        if routing is None:
            # First update (``fit`` reset the model): every particle is a
            # single-leaf root holding no observations, so the structural
            # context is trivial and there are no indices to gather.
            leaf_ns = np.zeros(count, dtype=np.intp)
            leaf_totals = np.zeros(count)
            leaf_sqs = np.zeros(count)
            depths_arr = np.zeros(count, dtype=np.intp)
            prunable = np.zeros(count, dtype=bool)
            pr = np.flatnonzero(prunable)
            sib_ns_pr = np.empty(0, dtype=np.intp)
            sib_totals_pr = np.empty(0)
            sib_sqs_pr = np.empty(0)
            sib_lmls_pr = np.empty(0)
            is_left = np.zeros(count, dtype=bool)
            ids_list: Optional[List[int]] = None
        else:
            forest = routing.forest
            data = forest.caches.data
            leaf_rows = data[routing.gids]
            leaf_ns = leaf_rows[:, LeafCacheArrays.COUNT].astype(np.intp)
            leaf_totals = leaf_rows[:, LeafCacheArrays.SUM]
            leaf_sqs = leaf_rows[:, LeafCacheArrays.SUM_SQ]
            depths_arr = routing.depths
            parents_arr = routing.parents
            # The prune sibling is the parent's *other* child; a particle
            # is prunable when it has a parent and that sibling is a leaf.
            # Root-leaves carry parent ``-1`` — the in-bounds negative
            # index reads garbage that the ``parents >= 0`` guard masks.
            left_of_parent = forest.left[parents_arr]
            is_left = left_of_parent == routing.nodes
            sib_nodes = np.where(is_left, forest.right[parents_arr], left_of_parent)
            prunable = (parents_arr >= 0) & (forest.split_dim[sib_nodes] == -1)
            pr = np.flatnonzero(prunable)
            sib_rows = data[forest.leaf_slot[sib_nodes[pr]]]
            sib_ns_pr = sib_rows[:, LeafCacheArrays.COUNT].astype(np.intp)
            sib_totals_pr = sib_rows[:, LeafCacheArrays.SUM]
            sib_sqs_pr = sib_rows[:, LeafCacheArrays.SUM_SQ]
            sib_lmls_pr = sib_rows[:, LeafCacheArrays.LML]
            ids_list = routing.local_ids.tolist()
            leaf_nodes = particle_forest.leaf_nodes
            for i in range(count):
                extend_rows(leaf_nodes[i][ids_list[i]].indices)

        # ------------------------- phase 1b: batched grow-proposal tables
        # Pad every leaf's observations (plus the incoming point in the
        # last real row) into one (bucket, n_max_b, dims) block per leaf-
        # size bucket.  Sorting the particles by leaf size and padding
        # each bucket only to its own widest leaf keeps the padded work
        # proportional to the mean leaf size rather than the max; every
        # per-particle row is computed exactly as in the single-block
        # layout, so bit-identity is untouched (padding features are +inf
        # so no threshold ever selects them; padding targets are 0.0, an
        # exact no-op for the sequential sums).
        sizes = leaf_ns
        n_points_arr = sizes + 1
        n_max = int(sizes.max()) + 1
        starts = np.cumsum(sizes) - sizes
        rows_arr = np.asarray(all_rows, dtype=np.intp)
        order = np.argsort(sizes, kind="stable")
        n_buckets = 4 if count >= 256 else 1
        n_unique_arr = np.empty((count, dims), dtype=np.int32)
        bucket_of = np.empty(count, dtype=np.intp)
        bucket_pos = np.empty(count, dtype=np.intp)
        buckets = []
        for bidx in np.array_split(order, n_buckets):
            nb = bidx.shape[0]
            if nb == 0:
                continue
            bucket_of[bidx] = len(buckets)
            bucket_pos[bidx] = np.arange(nb, dtype=np.intp)
            sizes_b = sizes[bidx]
            n_max_b = int(sizes_b.max()) + 1
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
            # equivalent of per-candidate np.unique): ``n_unique[p, d]``
            # bounds the cut draw, and ``unique_values[p, j, d]`` is the
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
            n_unique_arr[bidx] = n_uni_b
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
            buckets.append((bidx, padded_features, padded_targets, n_max_b, compacted))
            del sorted_columns, keep, rank

        # ------------------------- phase 1c: candidate decode
        # Every particle's K candidates at once from its row of the draw
        # block; slot ``k`` keeps its column, and a slot whose dimension
        # has fewer than two distinct values (or whose particle has too few
        # points to grow) is left empty.
        dim_draws = np.minimum((draws[:, :n_candidates] * dims).astype(np.intp), dims - 1)
        unique_drawn = np.take_along_axis(n_unique_arr, dim_draws, axis=1)
        growers = n_points_arr >= 2 * min_leaf
        cand_particle, cand_slot = np.nonzero((unique_drawn >= 2) & growers[:, None])
        cand_dim = dim_draws[cand_particle, cand_slot]
        cut_span = unique_drawn[cand_particle, cand_slot] - 1
        cand_cut = np.minimum(
            (draws[cand_particle, n_candidates + cand_slot] * cut_span).astype(np.intp),
            cut_span - 1,
        )
        uniforms = draws[:, 2 * n_candidates]

        # ------------------- phase 1d: vectorized stay/prune scoring
        # The hypothetical leaves (stay absorbs the new point, prune also
        # merges the sibling) are scored by gathering the count-dependent
        # LML terms from the term tables and evaluating the beta_n
        # arithmetic elementwise — the expression grouping and the scalar-
        # rounded log map keep every score bit-identical to the LMLCache
        # evaluation the reference path performs.
        log_array, _ = kernels.log_maps(fast)
        tables = self._leaf_term_tables()
        prior = self._prior
        prior_beta = prior.beta
        prior_kappa = prior.kappa
        prior_mean = prior.mean
        counts_stay = leaf_ns + 1
        totals_stay = leaf_totals + y
        sqs_stay = leaf_sqs + y * y
        counts_prune = counts_stay[pr] + sib_ns_pr
        max_count = int(counts_stay.max())
        if pr.size:
            max_count = max(max_count, int(counts_prune.max()))
        if cand_particle.size:
            max_count = max(max_count, n_max)
        tables.ensure(max_count)
        depth_table = self._depth_table(int(depths_arr.max()))
        log1m_here = depth_table[depths_arr, 0]
        grow_heads = depth_table[depths_arr, 1]
        kappa_stay = tables.kappa_n[counts_stay]
        alpha_stay = tables.alpha_n[counts_stay]
        beta_stay = nig_beta_n(
            counts_stay, totals_stay, sqs_stay, kappa_stay,
            prior_beta, prior_kappa, prior_mean,
        )
        stay_lml = (
            (tables.head[counts_stay] - alpha_stay * log_array(beta_stay))
            + tables.mid[counts_stay]
        ) - tables.tail[counts_stay]
        stay_scores = log1m_here + stay_lml
        commons = np.zeros(count)
        prune_scores = np.full(count, neg_inf)
        if pr.size:
            parent_rows = depth_table[depths_arr[pr] - 1]
            log1m_parent = parent_rows[:, 0]
            log_p_parent = parent_rows[:, 2]
            # The sibling sits at the leaf's own depth (they share a parent).
            log1m_sibling = log1m_here[pr]
            common_vals = (log_p_parent + log1m_sibling) + sib_lmls_pr
            commons[pr] = common_vals
            kappa_prune = tables.kappa_n[counts_prune]
            alpha_prune = tables.alpha_n[counts_prune]
            beta_prune = nig_beta_n(
                counts_prune,
                totals_stay[pr] + sib_totals_pr,
                sqs_stay[pr] + sib_sqs_pr,
                kappa_prune,
                prior_beta,
                prior_kappa,
                prior_mean,
            )
            prune_lml = (
                (tables.head[counts_prune] - alpha_prune * log_array(beta_prune))
                + tables.mid[counts_prune]
            ) - tables.tail[counts_prune]
            prune_scores[pr] = log1m_parent + prune_lml
            stay_scores[pr] += common_vals

        # ------------------------ phase 2a: batched candidate partitions
        thresholds = np.full((count, n_candidates), neg_inf)
        dim_matrix = np.zeros((count, n_candidates), dtype=np.intp)
        if cand_particle.size:
            # The drawn cut values live in the per-bucket compacted unique
            # tables; one masked gather per bucket reads the ~K entries
            # each particle needs without materialising (and scattering
            # into) a global ``(count, n_max, dims)`` table.
            low = np.empty(cand_particle.shape[0])
            high = np.empty(cand_particle.shape[0])
            cand_bucket = bucket_of[cand_particle]
            cand_pos = bucket_pos[cand_particle]
            for b, (_, _, _, _, compacted) in enumerate(buckets):
                sel = np.flatnonzero(cand_bucket == b)
                if sel.size:
                    pos_s = cand_pos[sel]
                    cd_s = cand_dim[sel]
                    cc_s = cand_cut[sel]
                    low[sel] = compacted[pos_s, cc_s, cd_s]
                    high[sel] = compacted[pos_s, cc_s + 1, cd_s]
            thresholds[cand_particle, cand_slot] = 0.5 * (low + high)
            dim_matrix[cand_particle, cand_slot] = cand_dim
        two_k = 2 * n_candidates
        masks = np.empty((count, n_max, n_candidates), dtype=bool)
        sums = np.empty((count, 2, two_k))
        n_left_matrix = np.empty((count, n_candidates), dtype=np.intp)
        for bidx, padded_features, padded_targets, n_max_b, _ in buckets:
            nb = bidx.shape[0]
            thresholds_b = thresholds[bidx]
            dims_b = dim_matrix[bidx]
            masks_b = np.empty((nb, n_max_b, n_candidates), dtype=bool)
            sums_b = np.empty((nb, 2, two_k))
            # The masked sums contract the (chunk, n_max_b, k) side masks
            # against the target rows in one einsum pass per side/moment;
            # chunking bounds the boolean right-side scratch.
            chunk = max(1, 4_000_000 // (n_max_b * two_k))
            flat_features = padded_features.reshape(-1)
            row_offsets = (np.arange(n_max_b, dtype=np.intp) * dims)[None, :, None]
            targets_sq = padded_targets * padded_targets
            width = min(chunk, nb)
            inv = np.empty((width, n_max_b, n_candidates), dtype=bool)
            for start in range(0, nb, chunk):
                stop = min(start + chunk, nb)
                window = slice(start, stop)
                w = stop - start
                # One flat gather for the candidate columns (notably faster
                # than take_along_axis's generic inner loop at this shape).
                flat_idx = (
                    np.arange(start, stop, dtype=np.intp)[:, None, None]
                    * (n_max_b * dims)
                    + row_offsets
                    + dims_b[window][:, None, :]
                )
                columns = flat_features[flat_idx]
                left_block = masks_b[window]
                np.less_equal(
                    columns, thresholds_b[window][:, None, :], out=left_block
                )
                inv_w = inv[:w]
                np.logical_not(left_block, out=inv_w)
                targets_w = padded_targets[window]
                targets_sq_w = targets_sq[window]
                # np.einsum's unoptimized path accumulates the contracted
                # axis strictly in index order (no pairwise or SIMD
                # partial sums), so each fused mask-product-and-sum below
                # is bit-identical to ``cumsum`` over the compressed side
                # (padding rows contribute exact ``0.0`` no-ops) — pinned
                # by the equivalence suite.
                sums_row = sums_b[window]
                np.einsum(
                    "pnk,pn->pk", left_block, targets_w,
                    out=sums_row[:, 0, :n_candidates],
                )
                np.einsum(
                    "pnk,pn->pk", inv_w, targets_w,
                    out=sums_row[:, 0, n_candidates:],
                )
                np.einsum(
                    "pnk,pn->pk", left_block, targets_sq_w,
                    out=sums_row[:, 1, :n_candidates],
                )
                np.einsum(
                    "pnk,pn->pk", inv_w, targets_sq_w,
                    out=sums_row[:, 1, n_candidates:],
                )
            masks[bidx, :n_max_b, :] = masks_b
            sums[bidx] = sums_b
            n_left_matrix[bidx] = masks_b.sum(axis=1)
        del buckets

        # -------------------------------- phase 2b: grow scores (kernel)
        # One fused pass over the padded candidate grid: the kernel
        # evaluates the left/right marginal likelihoods from the same
        # count-term tables (one log pass over the concatenated beta_n
        # values) and returns each particle's argmax candidate.  Padded
        # slots carry ``-inf`` thresholds, so their left counts are 0 and
        # min_leaf filtering rejects them exactly like the reference's
        # per-candidate guard.
        best_slot, best_left, best_right = kernels.grow_scores(
            n_left_matrix,
            n_points_arr,
            sums,
            min_leaf,
            n_candidates,
            tables.kappa_n,
            tables.alpha_n,
            tables.head,
            tables.mid,
            tables.tail,
            prior_beta,
            prior_kappa,
            prior_mean,
            log_array,
        )
        grow_scores = np.full(count, neg_inf)
        has_best = best_slot >= 0
        if has_best.any():
            g = (grow_heads[has_best] + best_left[has_best]) + best_right[has_best]
            grow_scores[has_best] = np.where(
                prunable[has_best], g + commons[has_best], g
            )

        # ------------------------------ phase 2c: batched move ceremony
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
        moves = (cdf <= uniforms[:, None]).sum(axis=1)

        toc = perf_counter()
        timings["propagate-score"] += toc - tic
        tic = toc

        # ---------------------------------------------- phase 3: apply
        # The moves mutate the ``_Node`` trees one particle at a time,
        # grouped by kind (each touches only its own particle's private
        # path, so the order across particles does not matter).  Stay and
        # grow moves mutate the leaf named by the forest's leaf-node map
        # directly whenever its ``shared`` flag is clear (the flag is
        # authoritative: resample flags whole duplicated trees), so in the
        # common steady state no tree is walked at all.  Shared leaves and
        # every prune go through ``_descend_cow`` — a pure pointer walk on
        # privately owned paths, shared-node cloning otherwise.  The
        # leaf-node lists are replaced, never mutated, so lists shared by
        # resample duplicates stay valid for both.  The forest itself is
        # then updated in three batched operations.
        prune_mask = (moves == 2) & prunable
        grow_mask = (moves == 1) & (best_slot >= 0)
        prunes = np.flatnonzero(prune_mask)
        grows = np.flatnonzero(grow_mask)
        stays = np.flatnonzero(~(prune_mask | grow_mask))
        descend_cow = self._descend_cow
        leaf_nodes = None if routing is None else particle_forest.leaf_nodes

        def owned_leaf(i: int) -> _Node:
            if leaf_nodes is not None:
                leaf = leaf_nodes[i][ids_list[i]]
                if not leaf.shared:
                    return leaf
            leaf, _, root = descend_cow(particles[i], x)
            particles[i] = root
            return leaf

        # Prunes only exist once the model has data (``routing`` is set).
        prune_left_ids = np.where(is_left[prunes], 0, -1) + (
            0 if routing is None else routing.local_ids[prunes]
        )
        for i, left_id in zip(prunes.tolist(), prune_left_ids.tolist()):
            # Prune needs the parent (and must own the path to it), so it
            # always takes the full copy-on-write walk.
            leaf, parent, root = descend_cow(particles[i], x)
            particles[i] = root
            sibling = parent.right if parent.left is leaf else parent.left
            assert sibling is not None
            self._apply_prune(root, parent, leaf, sibling, x, y, index)
            nodes = leaf_nodes[i]
            leaf_nodes[i] = nodes[:left_id] + [parent] + nodes[left_id + 2 :]

        best_grow = best_slot[grows]
        n_left_grow = n_left_matrix[grows, best_grow]
        n_right_grow = n_points_arr[grows] - n_left_grow
        grow_sums = sums[grows[:, None], :, np.stack([best_grow, n_candidates + best_grow], axis=1)]
        proposals = zip(
            grows.tolist(),
            best_grow.tolist(),
            dim_matrix[grows, best_grow].tolist(),
            thresholds[grows, best_grow].tolist(),
            n_left_grow.tolist(),
            n_right_grow.tolist(),
            grow_sums.tolist(),
        )
        for i, c, dim, threshold, n_left, n_right, ((sum_l, sq_l), (sum_r, sq_r)) in proposals:
            leaf = owned_leaf(i)
            self._apply_grow_batched(
                leaf,
                _GrowProposal(
                    dim=dim,
                    threshold=threshold,
                    n_left=n_left,
                    sum_left=sum_l,
                    sum_sq_left=sq_l,
                    n_right=n_right,
                    sum_right=sum_r,
                    sum_sq_right=sq_r,
                    mask=masks[i, : n_left + n_right, c],
                ),
                index,
            )
            if leaf_nodes is not None:
                nodes = leaf_nodes[i]
                leaf_id = ids_list[i]
                leaf_nodes[i] = nodes[:leaf_id] + [leaf.left, leaf.right] + nodes[leaf_id + 1 :]

        for i in stays.tolist():
            leaf = owned_leaf(i)
            assert leaf.leaf is not None
            leaf.leaf.add(y)
            leaf.indices.append(index)
            if leaf_nodes is not None:
                nodes = leaf_nodes[i]
                leaf_id = ids_list[i]
                if nodes[leaf_id] is not leaf:
                    # The copy-on-write walk replaced the leaf object.
                    nodes = list(nodes)
                    nodes[leaf_id] = leaf
                    leaf_nodes[i] = nodes

        if routing is not None:
            # Every new leaf-cache row in one pass: stays absorb ``y``,
            # grows get both children from the proposal's partition
            # statistics, prunes merge leaf and sibling and then absorb
            # ``y`` — in the operand order of ``merge(...).add(y)``, which
            # is not the order the prune score sums in.
            sib = np.searchsorted(pr, prunes)  # positions in the prunable arrays
            rows = self._cache_rows(
                np.concatenate([
                    counts_stay[stays],
                    n_left_grow,
                    n_right_grow,
                    (leaf_ns[prunes] + sib_ns_pr[sib]) + 1,
                ]),
                np.concatenate([
                    totals_stay[stays],
                    grow_sums[:, 0, 0],
                    grow_sums[:, 1, 0],
                    (leaf_totals[prunes] + sib_totals_pr[sib]) + y,
                ]),
                np.concatenate([
                    sqs_stay[stays],
                    grow_sums[:, 0, 1],
                    grow_sums[:, 1, 1],
                    (leaf_sqs[prunes] + sib_sqs_pr[sib]) + y * y,
                ]),
                log_array,
            )
            n_stay = stays.size
            n_grow = grows.size
            local_ids = routing.local_ids
            capacity = particle_forest.capacity
            particle_forest.data[stays, local_ids[stays]] = rows[:n_stay]
            if n_grow:
                particle_forest.grow(
                    grows,
                    routing.nodes[grows] % capacity,
                    local_ids[grows],
                    dim_matrix[grows, best_grow],
                    thresholds[grows, best_grow],
                    rows[n_stay : n_stay + 2 * n_grow].reshape(2, n_grow, -1).swapaxes(0, 1),
                )
            if prunes.size:
                particle_forest.prune(
                    prunes,
                    routing.parents[prunes] % capacity,
                    prune_left_ids,
                    rows[n_stay + 2 * n_grow :],
                )
        timings["propagate-apply"] += perf_counter() - tic

    def _cache_rows(
        self,
        counts: np.ndarray,
        totals: np.ndarray,
        total_sqs: np.ndarray,
        log_array: kernels.ArrayMap,
    ) -> np.ndarray:
        """Leaf-cache rows of leaves holding ``(count, sum, sum_sq)`` statistics.

        The same count-table gathers and elementwise arithmetic (same
        grouping, the float mode's ``log`` map) as
        :meth:`~repro.models.leaf.LeafCacheArrays.patch` evaluates per leaf
        through :class:`~repro.models.leaf.GaussianLeafModel`, so in exact
        mode every row is bit-identical to compiling the leaf.  Every count
        must be at least 1 and already covered by the term tables.
        """
        tables = self._leaf_term_tables()
        prior = self._prior
        kappa_n = tables.kappa_n[counts]
        alpha_n = tables.alpha_n[counts]
        beta_n = nig_beta_n(
            counts, totals, total_sqs, kappa_n, prior.beta, prior.kappa, prior.mean
        )
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
        ] - 0.5 * log_array(tables.dof_pi[counts] * scale)
        rows[:, LeafCacheArrays.SUM] = totals
        rows[:, LeafCacheArrays.SUM_SQ] = total_sqs
        rows[:, LeafCacheArrays.LML] = (
            (tables.head[counts] - alpha_n * log_array(beta_n))
            + tables.mid[counts]
        ) - tables.tail[counts]
        return rows

    def _apply_grow_batched(
        self, leaf: _Node, proposal: _GrowProposal, index: int
    ) -> None:
        """Split ``leaf`` according to a batched grow proposal.

        The children's models are rebuilt from the proposal's partition
        statistics (bit-identical to re-summing the partition, which is how
        the reference path builds them) and the index lists from its mask —
        no re-scan of the training buffers.
        """
        assert self._prior is not None
        mask = proposal.mask
        old_mask = mask[:-1]
        indices = np.asarray(leaf.indices, dtype=np.intp)
        left_indices = indices[old_mask].tolist()
        right_indices = indices[~old_mask].tolist()
        if bool(mask[-1]):
            left_indices.append(index)
        else:
            right_indices.append(index)
        left_model = GaussianLeafModel.from_sufficient_stats(
            self._prior, proposal.n_left, proposal.sum_left, proposal.sum_sq_left
        )
        right_model = GaussianLeafModel.from_sufficient_stats(
            self._prior, proposal.n_right, proposal.sum_right, proposal.sum_sq_right
        )
        left_child = _Node(leaf.depth + 1)
        left_child.leaf = left_model
        left_child.indices = left_indices
        right_child = _Node(leaf.depth + 1)
        right_child.leaf = right_model
        right_child.indices = right_indices
        leaf.leaf = None
        leaf.indices = []
        leaf.split_dim = proposal.dim
        leaf.split_value = proposal.threshold
        leaf.left = left_child
        leaf.right = right_child

    def _apply_prune(
        self,
        root: _Node,
        parent: _Node,
        leaf: _Node,
        sibling: _Node,
        x: np.ndarray,
        y: float,
        index: int,
    ) -> _Node:
        assert leaf.leaf is not None and sibling.leaf is not None
        merged_model = leaf.leaf.merge(sibling.leaf)
        merged_model.add(y)
        merged_indices = leaf.indices + sibling.indices + [index]
        parent.split_dim = None
        parent.split_value = 0.0
        parent.left = None
        parent.right = None
        parent.leaf = merged_model
        parent.indices = merged_indices
        return root
