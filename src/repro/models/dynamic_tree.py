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

Prediction and the ALC score are served from per-particle
:class:`~repro.models.flat_tree.FlatTree` compilations — flat NumPy arrays
descended level-by-level for a whole batch of rows at once — rather than
per-row Python ``descend()`` loops.

The sequential **update** path (Algorithm 1's per-observation model update)
is batched across particles as well, which is what makes paper-scale
particle counts (5 000) tractable:

* **reweight** — the incoming ``x`` is routed through every particle's
  flat compilation (a scalar descent over plain-list navigation mirrors —
  cheaper than assembling the concatenated forest, which the update path
  never needs), and the predictive log-pdfs come from cached per-leaf
  log-pdf terms (one row read plus one scalar ``math.log1p`` per particle)
  instead of ``n_particles`` per-node Python descents;
* **resample** — the systematic resampler duplicates particles
  *copy-on-write*: duplicates share the original tree and its flat
  compilation, and nodes are cloned lazily, path-by-path, the first time a
  subsequent move actually mutates them (``_Node.shared`` marks
  possibly-shared nodes; cloning a node flags its children), so a resample
  costs O(1) per duplicate instead of a deep tree copy;
* **propagate** — the stay/grow/prune scores are computed from sufficient
  statistics through a per-prior :class:`~repro.models.leaf.LMLCache`
  (count-dependent ``lgamma``/``log`` terms memoized), the grow proposal
  scores all candidate splits with one batched masked-cumsum scan, and the
  stay moves — the overwhelming majority — are applied as a single batched
  leaf-statistics patch over the affected flat arrays; only grow/prune
  particles fall back to per-node Python mutation and recompilation.

Every floating-point operation and every RNG draw in the batched path
replays the per-particle reference implementation exactly (sequential
``cumsum`` sums, scalar ``math`` transcendentals, identical draw order), so
seeded learning curves are bit-identical between the two.  The reference
implementations are kept (``predict_reference``,
``expected_average_variance_reference`` and the per-particle update path,
all selected by ``DynamicTreeConfig(vectorized=False)``) both as executable
documentation and as the oracle for the equivalence tests.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .base import Prediction, SurrogateModel
from .compiled_kernels import BACKENDS, get_kernels, nig_beta_n
from .flat_tree import FlatForest, FlatTree, IncrementalForest
from .leaf import (
    GaussianLeafModel,
    LeafCacheArrays,
    LeafTermTables,
    LMLCache,
    NIGPrior,
    log_marginal_likelihood_from_stats,
)
from .rng_replay import GeneratorDraws, ReplayDraws

__all__ = ["DynamicTreeConfig", "DynamicTreeRegressor"]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a Python accumulation loop.

    ``np.sum`` uses pairwise summation, which rounds differently from the
    sequential ``+=`` loops this module's scalar reference paths (and the
    original implementation) use.  ``np.cumsum`` *is* sequential, so its last
    element reproduces the scalar accumulation exactly — keeping vectorized
    and reference trajectories bitwise identical, which matters because the
    particle moves are sampled from scores built on these sums.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


@dataclass(frozen=True)
class DynamicTreeConfig:
    """Hyper-parameters of the dynamic tree model.

    The paper uses the ``dynaTree`` defaults with 5 000 particles; the
    decision spaces are low-dimensional and the acquisition only needs
    well-ranked variances, so a few dozen particles behave almost
    identically (this is exercised by an ablation benchmark), but with the
    batched update kernel the paper's particle count is affordable too.

    ``vectorized`` selects the flat-array kernels for ``predict``,
    ``expected_average_variance`` *and* the sequential ``update`` path;
    disabling it falls back to the per-node, per-particle reference
    implementations (slow — only useful for equivalence testing).  The two
    modes produce bit-identical seeded trajectories.

    ``incremental_forest`` keeps the concatenated
    :class:`~repro.models.flat_tree.FlatForest` alive across updates and
    repairs only the particles that changed (see
    :class:`~repro.models.flat_tree.IncrementalForest`) instead of
    rebuilding it from every tree on the first predict/ALC batch after an
    update.  Both settings produce bit-identical predictions and ALC
    scores; disabling it restores the always-rebuild path (the oracle the
    incremental maintenance is equivalence-tested against).

    ``backend`` selects the kernel set the batched update dispatches to
    (see :mod:`repro.models.compiled_kernels`): ``"numpy"`` (the default,
    bit-exact), ``"numba"`` (jitted when numba is installed, silently
    falling back to the exact NumPy kernels otherwise) or ``"numba-fast"``
    (tolerance-tested: may differ from the reference in the last ulp of
    the transcendentals, which can fork sampled trajectories).

    ``float_mode`` selects between the bit-exact float contract
    (``"exact"``, the default: sequential-cumsum reductions and scalar
    ``math`` transcendental maps, bit-identical to the reference path)
    and ``"fast"`` (``np.sum``/matmul reductions and numpy SIMD
    transcendentals where bit-identity is what blocks fusion).  Fast-mode
    scores can differ from the reference in the last ulp, which may fork
    sampled trajectories at knife-edge draws; the tolerance suite pins
    the agreement (see ``docs/architecture.md``).
    """

    n_particles: int = 40
    split_alpha: float = 0.95
    split_beta: float = 2.0
    min_leaf: int = 2
    n_split_candidates: int = 12
    resample_threshold: float = 0.5
    prior_kappa: float = 0.1
    prior_alpha: float = 3.0
    vectorized: bool = True
    incremental_forest: bool = True
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
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
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

    def copy(self) -> "_Node":
        clone = _Node(self.depth)
        clone.split_dim = self.split_dim
        clone.split_value = self.split_value
        if self.leaf is not None:
            clone.leaf = self.leaf.copy()
            clone.indices = list(self.indices)
        if self.left is not None:
            clone.left = self.left.copy()
        if self.right is not None:
            clone.right = self.right.copy()
        return clone

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

    def descend(self, x: np.ndarray) -> "_Node":
        """The leaf whose region contains ``x``."""
        node = self
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            if x[node.split_dim] <= node.split_value:
                node = node.left
            else:
                node = node.right
        return node

    def descend_with_parent(
        self, x: np.ndarray
    ) -> Tuple["_Node", Optional["_Node"]]:
        """The leaf containing ``x`` together with its parent (``None`` at the root)."""
        parent: Optional[_Node] = None
        node = self
        while not node.is_leaf:
            parent = node
            assert node.left is not None and node.right is not None
            if x[node.split_dim] <= node.split_value:
                node = node.left
            else:
                node = node.right
        return node, parent

    def leaves(self) -> List["_Node"]:
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def __reduce__(self):
        # Positional state, no per-node slot names.  Pickle memoizes the
        # rebuilt node, so a subtree several particles share copy-on-write
        # is written once and stays one object after load.
        return (
            _restore_node,
            (
                self.depth,
                self.split_dim,
                self.split_value,
                self.left,
                self.right,
                self.leaf,
                self.indices,
                self.shared,
            ),
        )


def _restore_node(
    depth: int,
    split_dim: Optional[int],
    split_value: float,
    left: Optional[_Node],
    right: Optional[_Node],
    leaf: Optional[GaussianLeafModel],
    indices: List[int],
    shared: bool,
) -> _Node:
    """Unpickle a :class:`_Node` from its :meth:`_Node.__reduce__` state."""
    node = _Node(depth)
    node.split_dim = split_dim
    node.split_value = split_value
    node.left = left
    node.right = right
    node.leaf = leaf
    node.indices = indices
    node.shared = shared
    return node


class _GrowProposal(NamedTuple):
    """The winning candidate split of a batched grow-proposal scan.

    Carries everything :meth:`DynamicTreeRegressor._apply_grow_batched`
    needs to build the two children without re-scanning: the split itself,
    both sides' sufficient statistics and marginal likelihoods (already
    consumed by the grow score), and the boolean membership mask over the
    leaf's observations with the incoming point in the last position.
    """

    dim: int
    threshold: float
    n_left: int
    sum_left: float
    sum_sq_left: float
    left_lml: float
    n_right: int
    sum_right: float
    sum_sq_right: float
    right_lml: float
    mask: np.ndarray


class _UpdateRouting(NamedTuple):
    """Per-particle routing context of one update's reweight descent.

    Produced by the ``route_update`` kernel over the (pre-update) forest
    and threaded from :meth:`DynamicTreeRegressor._resample` into
    :meth:`DynamicTreeRegressor._propagate_all`, whose gather phase reads
    each particle's leaf and prune-sibling statistics straight from the
    forest's packed cache columns instead of re-walking ``_Node``
    objects.  After a resample the per-particle arrays are permuted to
    the post-resample particle order; ``forest`` keeps the *pre-resample*
    segment layout (the global ids index into it correctly either way).
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
        # Lazily compiled FlatTree per particle; ``None`` marks "needs
        # recompilation" (fresh particle, or structure changed by grow/prune).
        # ``_flat_shared[i]`` marks a compilation shared copy-on-write with
        # another particle after a resample: it must be copied before the
        # next leaf patch lands on it.
        self._flat: List[Optional[FlatTree]] = []
        self._flat_shared: List[bool] = []
        # Concatenation of every particle's FlatTree.  With
        # ``incremental_forest`` the padded arrays persist across updates
        # and ``_ensure_forest`` repairs only the changed particles
        # (``_forest_stale`` records the in-place leaf patches it must
        # mirror); otherwise the concatenation is rebuilt lazily after any
        # update (the concatenated arrays snapshot the per-tree arrays, so
        # in-place leaf patches do not carry over).
        self._forest: Optional[FlatForest] = None
        self._forest_cache: Optional[IncrementalForest] = None
        # ``(slot, local leaf id) -> cache row values`` patched since the
        # last sync (latest patch wins), plus a dirty bit so predict/ALC
        # calls between updates skip the per-particle sync scan entirely.
        self._forest_stale: Dict[Tuple[int, int], Tuple[float, ...]] = {}
        self._forest_dirty = False
        # Per-depth tree-prior log terms (split probabilities only depend on
        # the frozen config, and every particle's scores reuse them).
        self._depth_cache: Dict[int, Tuple[float, float, float]] = {}
        # Count-indexed NIG term tables (see LeafTermTables) and the
        # depth-indexed tree-prior table the vectorized scoring gathers
        # from; built on first use (and again after unpickling).
        self._term_tables: Optional[LeafTermTables] = None
        self._depth_arrays: Optional[np.ndarray] = None
        # Scalar-draw frontend for the batched update: a bulk RNG replay
        # when the bit generator supports it, plain Generator calls
        # otherwise.  Either way the stream is bit-identical to the
        # reference path's per-call draws.
        self._replay = ReplayDraws(self._rng)
        self._generator_draws = GeneratorDraws(self._rng)
        self._draws = self._generator_draws
        # Wall-clock accumulated per batched-update phase (see
        # ``phase_timings``); plain floats, negligible next to the work
        # they measure.
        self._phase_timings = dict.fromkeys(self._PHASES, 0.0)

    def __getstate__(self) -> dict:
        """Pickle the posterior's source of truth, not what derives from it.

        The particles, training buffers, RNG, prior and config are kept.
        The per-particle compilations, the concatenated forest and the
        count/depth term tables are dropped: after load the next
        predict, ALC score or update recompiles them lazily through the
        same paths a fresh particle takes, with bit-identical values.
        Dropping them is most of a checkpoint's size and pickle time.
        """
        state = self.__dict__.copy()
        count = len(self._particles)
        state["_flat"] = [None] * count
        state["_flat_shared"] = [False] * count
        state["_forest"] = None
        state["_forest_cache"] = None
        state["_forest_stale"] = {}
        state["_forest_dirty"] = True
        state["_term_tables"] = None
        state["_depth_arrays"] = None
        return state

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

        Keys: ``"reweight"`` (forest sync + routing + predictive
        log-weights), ``"resample"`` (ESS decision + systematic
        permutation), ``"propagate-score"`` (stat gathers, grow-candidate
        tables, move scoring and the draw inversion) and
        ``"propagate-apply"`` (tree mutation + flat/forest patches).
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
        tree, compilation and forest — almost all of which the few fantasy
        updates never touch.  Instead the copy *shares* the particle trees
        and flat compilations copy-on-write: every node is flagged
        ``shared`` (the same authoritative invariant a resample
        establishes) and every compilation marked shared, so whichever
        model mutates a path or patches a leaf row first clones just that
        piece.  The training buffers are copied (updates append to them
        in place), the RNG is deep-copied so fantasy draws do not consume
        the real model's stream, and the memoized pure caches (LML,
        count-term tables, depth terms) stay shared — both sides only
        ever add deterministically recomputable entries.  The copy builds
        its own incremental forest lazily on first use.
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
        clone._flat = list(self._flat)
        count = len(self._flat)
        self._flat_shared = [True] * count
        clone._flat_shared = [True] * count
        clone._forest = None
        clone._forest_cache = None
        clone._forest_stale = {}
        clone._forest_dirty = True
        clone._depth_cache = self._depth_cache
        clone._term_tables = self._term_tables
        clone._depth_arrays = self._depth_arrays
        clone._replay = ReplayDraws(clone._rng)
        clone._generator_draws = GeneratorDraws(clone._rng)
        clone._draws = clone._generator_draws
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
        self._flat = []
        self._flat_shared = []
        self._forest = None
        self._forest_cache = None
        self._forest_stale.clear()
        self._forest_dirty = True
        for _ in range(self._config.n_particles):
            root = _Node(depth=0)
            root.leaf = GaussianLeafModel(self._prior)
            self._particles.append(root)
            self._flat.append(None)
            self._flat_shared.append(False)
        order = self._rng.permutation(X.shape[0])
        for index in order:
            self.update(X[index], float(y[index]))

    def update(self, features: np.ndarray, target: float) -> None:
        """Absorb one observation: reweight, resample, propagate every particle."""
        if self._prior is None or not self._particles:
            raise RuntimeError("the model must be seeded with fit() before update()")
        x = np.asarray(features, dtype=float).ravel()
        y = float(target)
        if self._n and self._X is not None:
            expected_dim = self._X.shape[1]
            if x.shape[0] != expected_dim:
                raise ValueError(
                    f"feature dimension mismatch: got {x.shape[0]}, expected {expected_dim}"
                )
        if self._config.vectorized:
            self._update_batched(x, y)
        else:
            self._update_reference(x, y)

    # ------------------------------------------------- batched update kernel

    def _update_batched(self, x: np.ndarray, y: float) -> None:
        """One SMC update with all cross-particle work batched.

        The reweight routes the incoming point through every particle's flat
        compilation and the propagate step runs as a three-phase pipeline
        (see :meth:`_propagate_all`) whose cross-particle work — candidate
        partition sums, split thresholds, move probabilities, the move draw
        inversion and the stay-move leaf patch — runs as a handful of array
        operations over all particles instead of per-particle numpy calls.
        The RNG replay (see :mod:`repro.models.rng_replay`) is what makes
        the phase split possible: draw *values* are determined by stream
        position alone, so the sequential draw loop can run before the
        batched scoring that interprets them, while consuming the stream in
        exactly the reference order.
        """
        expected_raws = (
            len(self._particles) * (2 * self._config.n_split_candidates + 1) + 8
        )
        replaying = self._replay.begin(expected_raws)
        self._draws = self._replay if replaying else self._generator_draws
        try:
            routing: Optional[_UpdateRouting] = None
            if self._n >= 1:
                routing = self._resample(x, y)
            index = self._append_observation(x, y)
            self._forest = None
            self._forest_dirty = True
            self._propagate_all(x, y, index, routing)
        finally:
            if replaying:
                self._replay.end()
            self._draws = self._generator_draws

    def _patch_stays(
        self,
        slots: np.ndarray,
        leaf_ids: np.ndarray,
        rows: np.ndarray,
        forest: FlatForest,
    ) -> None:
        """Apply every stay move's leaf-statistics patch in one pass.

        ``rows`` holds the already-computed cache rows, one per slot in
        ``slots`` — produced by the batched term-table arithmetic, bit-
        identical to what :meth:`~repro.models.leaf.LeafCacheArrays.patch`
        would recompute from each leaf's memoized scalar posterior.  The
        per-particle compilations are already privately owned (the apply
        loop copies any still-shared one before recording its stay), so
        each patch is a single row assignment.  The same rows are then
        scattered straight into the live incremental forest's segments:
        a row whose particle was permuted by the resample (or whose
        compilation object changed) lands in a segment the next sync
        rewrites wholesale anyway, and rows in identity-kept segments
        make them current — so no per-row stale bookkeeping is needed
        (the ``_forest_stale`` dict remains only for the reference path).
        """
        flats = self._flat
        lids = leaf_ids.tolist()
        for j, slot in enumerate(slots.tolist()):
            flats[slot].caches.data[lids[j]] = rows[j]
        cache = self._forest_cache
        if cache is not None and forest is cache.forest:
            forest.caches.data[forest.leaf_offsets[slots] + leaf_ids] = rows

    def _update_reference(self, x: np.ndarray, y: float) -> None:
        """Per-particle reference implementation of one SMC update.

        Python descents and eager tree copies throughout; kept as the
        oracle the batched kernel's trajectories are tested against.
        """
        if self._n >= 1:
            self._resample_reference(x, y)
        index = self._append_observation(x, y)
        self._forest = None
        self._forest_dirty = True
        for particle_index, root in enumerate(self._particles):
            new_root, structural, leaf = self._propagate(root, x, y, index)
            self._particles[particle_index] = new_root
            flat = self._flat[particle_index]
            if structural:
                self._flat[particle_index] = None
            elif flat is not None:
                # Stay move: the structure is intact, only the statistics of
                # the leaf containing ``x`` changed — patch them in place.
                assert leaf.leaf is not None
                leaf_id = flat.route_one(x)
                row = flat.patch_leaf(leaf_id, leaf.leaf)
                if self._forest_cache is not None:
                    self._forest_stale[(particle_index, leaf_id)] = row

    # ----------------------------------------------------------- prediction

    def _flat_tree(self, particle_index: int) -> FlatTree:
        """The (lazily compiled) flat representation of one particle."""
        flat = self._flat[particle_index]
        if flat is None:
            flat = FlatTree.compile(self._particles[particle_index])
            self._flat[particle_index] = flat
        return flat

    def _ensure_forest(self) -> FlatForest:
        """The concatenated forest, repaired or rebuilt as needed.

        With ``incremental_forest`` the padded forest persists across
        updates: particles whose :class:`FlatTree` object is unchanged keep
        their segments (stay-move leaf patches are mirrored row-by-row from
        ``_forest_stale``), recompiled/resampled particles get their
        segments rewritten in place, and only a capacity overflow or a
        particle-count change triggers a full rebuild.  Without the flag
        every call after an update rebuilds via ``FlatForest.from_trees``
        — the equivalence oracle for the incremental path.
        """
        if self._config.incremental_forest:
            cache = self._forest_cache
            if cache is not None and not self._forest_dirty:
                return cache.forest
            flats = [self._flat_tree(i) for i in range(len(self._particles))]
            if cache is None or not cache.sync(flats, self._forest_stale):
                cache = IncrementalForest(flats)
                self._forest_cache = cache
            self._forest_stale.clear()
            self._forest_dirty = False
            return cache.forest
        self._forest_stale.clear()
        if self._forest is None:
            self._forest = FlatForest.from_trees(
                [self._flat_tree(i) for i in range(len(self._particles))]
            )
        return self._forest

    def predict(self, features: np.ndarray) -> Prediction:
        if not self._particles or not self._n:
            raise RuntimeError("the model has no training data yet")
        if not self._config.vectorized:
            return self.predict_reference(features)
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

    def predict_reference(self, features: np.ndarray) -> Prediction:
        """Per-node reference implementation of :meth:`predict`.

        Descends every row through every particle with Python loops; kept as
        the oracle the vectorized kernel is tested against.
        """
        if not self._particles or not self._n:
            raise RuntimeError("the model has no training data yet")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        n = X.shape[0]
        means = np.zeros(n)
        second_moments = np.zeros(n)
        count = float(len(self._particles))
        for root in self._particles:
            for i in range(n):
                leaf = root.descend(X[i])
                assert leaf.leaf is not None
                mean = leaf.leaf.predictive_mean()
                var = leaf.leaf.predictive_variance()
                means[i] += mean
                second_moments[i] += var + mean * mean
        means /= count
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
        if not self._config.vectorized:
            return self.expected_average_variance_reference(candidates, reference)
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        R = np.atleast_2d(np.asarray(reference, dtype=float))
        n_reference = R.shape[0]
        kappa = self._prior.kappa if self._prior is not None else 0.1
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

    def expected_average_variance_reference(
        self, candidates: np.ndarray, reference: np.ndarray
    ) -> np.ndarray:
        """Per-node reference implementation of :meth:`expected_average_variance`."""
        if not self._particles or not self._n:
            raise RuntimeError("the model has no training data yet")
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        R = np.atleast_2d(np.asarray(reference, dtype=float))
        n_candidates = C.shape[0]
        n_reference = R.shape[0]
        scores = np.zeros(n_candidates)
        kappa = self._prior.kappa if self._prior is not None else 0.1
        for root in self._particles:
            # Group the reference points by the leaf that contains them so
            # the per-candidate reduction is an array lookup rather than a
            # scan over the whole reference set.  Leaves are identified by
            # their position in the particle's leaf list.
            leaves = root.leaves()
            variance_by_leaf = np.zeros(len(leaves))
            base_total = 0.0
            for j in range(n_reference):
                leaf = root.descend(R[j])
                assert leaf.leaf is not None
                variance = leaf.leaf.predictive_variance()
                base_total += variance
                variance_by_leaf[leaves.index(leaf)] += variance
            for i in range(n_candidates):
                candidate_leaf = root.descend(C[i])
                assert candidate_leaf.leaf is not None
                n_leaf = candidate_leaf.leaf.count
                shrink = 1.0 / (n_leaf + kappa + 1.0)
                reduction = variance_by_leaf[leaves.index(candidate_leaf)] * shrink
                scores[i] += (base_total - reduction) / n_reference
        return scores / len(self._particles)

    # --------------------------------------------------- reweight + resample

    def _predictive_logpdf(self, root: _Node, x: np.ndarray, y: float) -> float:
        leaf = root.descend(x)
        assert leaf.leaf is not None
        return leaf.leaf.predictive_logpdf(y)

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

    def _resample(self, x: np.ndarray, y: float) -> _UpdateRouting:
        """Batched reweight-and-resample; returns the update's routing context.

        The reweight is three kernel calls over the concatenated segment
        arrays: one all-particles ``route_update`` descent — recording
        each particle's leaf node, parent node and descent depth alongside
        the leaf id, the structural context the propagate gather phase
        reads instead of re-walking ``_Node`` objects — one fused
        gather-and-log-pdf pass over the leaf cache rows, and the offset
        subtraction that localises the global ids.  With the incremental
        forest (the default) the forest is synced here, at the *top* of
        the update, which also keeps it incrementally repaired across
        back-to-back updates instead of being recompiled per predict;
        without it the same calls run over a fresh ``from_trees``
        snapshot.  Either way the arithmetic is the cached-log-pdf-terms
        evaluation with the backend's ``log1p`` flavour (scalar-rounded
        in exact mode — numpy's rounds differently and the resample
        decision is sampled from these weights).  When the effective
        sample size calls for a resample, duplicated particles *share*
        the original tree and flat compilation copy-on-write instead of
        deep-copying them, and the routing arrays are permuted to the
        post-resample particle order.
        """
        timings = self._phase_timings
        tic = perf_counter()
        particles = self._particles
        count = len(particles)
        config = self._config
        kernels = get_kernels(config.backend, config.float_mode == "fast")
        forest = self._ensure_forest()
        gids, nodes, parents, depths = kernels.route_update(
            forest.split_dim,
            forest.split_value,
            forest.left,
            forest.right,
            forest.leaf_slot,
            forest.roots,
            x,
        )
        log_weights = kernels.reweight_log_weights(forest.caches.data, gids, y)
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
        chosen_indices = self._systematic_indices(weights, self._draws.random())
        chosen = np.asarray(chosen_indices, dtype=np.intp)
        occurrences = np.bincount(chosen, minlength=count)
        duplicated = occurrences > 1
        for j in np.flatnonzero(duplicated).tolist():
            # Copy-on-write: every occurrence shares the tree and its
            # compilation; the first move that mutates either clones just
            # what it touches.  The *whole* tree is flagged, not just the
            # root, so ``shared`` stays authoritative — a False flag
            # guarantees single ownership, which is what lets the apply
            # phase mutate leaves straight out of the compilation's leaf
            # map without re-walking the tree (``clone_shallow`` upholds
            # the invariant when it hands its children a second owner).
            stack = [particles[j]]
            while stack:
                node = stack.pop()
                node.shared = True
                if node.left is not None:
                    stack.append(node.left)
                    stack.append(node.right)
        flats = self._flat
        shared = np.fromiter(self._flat_shared, dtype=bool, count=count)
        self._particles = [particles[j] for j in chosen_indices]
        self._flat = [flats[j] for j in chosen_indices]
        self._flat_shared = (shared[chosen] | duplicated[chosen]).tolist()
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

    def _resample_reference(self, x: np.ndarray, y: float) -> None:
        """Per-particle reference reweight/resample (eager tree copies)."""
        log_weights = np.array(
            [self._predictive_logpdf(root, x, y) for root in self._particles]
        )
        log_weights -= log_weights.max()
        weights = np.exp(log_weights)
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            return
        weights /= total
        effective = 1.0 / float(np.sum(weights ** 2))
        if effective >= self._config.resample_threshold * len(self._particles):
            return
        chosen_indices = self._systematic_indices(weights, self._rng.random())
        # Deduplicate by particle *index*: the first occurrence keeps the
        # original tree (and its flat compilation), later occurrences get
        # independent copies.
        new_particles: List[_Node] = []
        new_flat: List[Optional[FlatTree]] = []
        used_original: set[int] = set()
        for j in chosen_indices:
            flat = self._flat[j]
            if j not in used_original:
                new_particles.append(self._particles[j])
                new_flat.append(flat)
                used_original.add(j)
            else:
                new_particles.append(self._particles[j].copy())
                copied = flat.copy() if flat is not None else None
                if copied is not None:
                    # The eager tree copy made fresh ``_Node`` objects the
                    # compilation's leaf map knows nothing about.
                    copied.leaf_nodes = None
                new_flat.append(copied)
        self._particles = new_particles
        self._flat = new_flat
        self._flat_shared = [False] * len(new_particles)

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
    ) -> None:
        """Propagate every particle through one stay/grow/prune move.

        Three phases, all bit-identical to running :meth:`_propagate` per
        particle:

        1. **score** — the leaf, sibling and depth context comes from the
           reweight's ``route_update`` descent (see :class:`_UpdateRouting`):
           leaf and prune-sibling sufficient statistics are fused array
           gathers over the forest's packed cache columns, the prune
           siblings and tree-prior depth terms follow from the recorded
           parent nodes, and the only remaining per-particle loop collects
           each leaf's training-row indices through the compilations'
           ``leaf_nodes`` maps.  The grow proposals' RNG draws run in
           exactly the reference order (the replayed stream makes the draw
           *values* independent of when they are interpreted); the
           stay/prune scores are then one vectorized pass over
           :class:`~repro.models.leaf.LeafTermTables` gathers, dispatched
           through the configured :mod:`~repro.models.compiled_kernels`
           backend.  Scoring reads only pre-update state, so particles
           sharing copy-on-write subtrees see identical values to the
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
           descent per particle (a pure pointer walk on private paths);
           grow/prune moves splice the particle's flat compilation in
           place (:meth:`FlatTree.grow_at` / :meth:`FlatTree.prune_at`)
           instead of invalidating it, and the stay moves land on the flat
           compilations as one batched leaf-statistics patch.
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
        flats = self._flat

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
            sib_nodes = np.where(
                left_of_parent == routing.nodes,
                forest.right[parents_arr],
                left_of_parent,
            )
            prunable = (parents_arr >= 0) & (forest.split_dim[sib_nodes] == -1)
            pr = np.flatnonzero(prunable)
            sib_rows = data[forest.leaf_slot[sib_nodes[pr]]]
            sib_ns_pr = sib_rows[:, LeafCacheArrays.COUNT].astype(np.intp)
            sib_totals_pr = sib_rows[:, LeafCacheArrays.SUM]
            sib_sqs_pr = sib_rows[:, LeafCacheArrays.SUM_SQ]
            sib_lmls_pr = sib_rows[:, LeafCacheArrays.LML]
            ids_list = routing.local_ids.tolist()
            for i in range(count):
                nodes_map = flats[i].leaf_nodes
                extend_rows(nodes_map[ids_list[i]].indices)
        sizes_list = leaf_ns.tolist()

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

        # ---------------------- phase 1c: sequential candidate draws
        # The RNG stream must be consumed in exactly the reference
        # per-particle order (candidate draws, then the move uniform).
        # The draw *values* depend only on stream position, so this can
        # run before the batched scoring that interprets them.  The
        # replay layer's batched decoder handles the common fixed-layout
        # case in one vectorized pass (falling back to the scalar loop
        # from the first particle whose draws violate its layout
        # assumptions); the loop below covers plain-``Generator`` draw
        # sources and degenerate shapes.
        grow_floor = 2 * min_leaf
        batch_draws = getattr(self._draws, "draw_candidates_batch", None)
        if batch_draws is not None and dims >= 2:
            grow_flags = n_points_arr >= grow_floor
            cand_particle, cand_slot, cand_dim, cand_cut, uniforms = batch_draws(
                dims, n_unique_arr, grow_flags, n_candidates
            )
        else:
            n_unique_list = n_unique_arr.tolist()
            draw_candidates = self._draws.draw_candidates
            draw_uniform = self._draws.random
            uniforms = np.empty(count)
            cand_particle: List[int] = []
            cand_slot: List[int] = []
            cand_dim: List[int] = []
            cand_cut: List[int] = []
            for i in range(count):
                if sizes_list[i] + 1 >= grow_floor:
                    drawn_dims, drawn_cuts = draw_candidates(
                        dims, n_unique_list[i], n_candidates
                    )
                    slot = len(drawn_dims)
                    cand_particle.extend([i] * slot)
                    cand_slot.extend(range(slot))
                    cand_dim.extend(drawn_dims)
                    cand_cut.extend(drawn_cuts)
                uniforms[i] = draw_uniform()

        # ------------------- phase 1d: vectorized stay/prune scoring
        # The hypothetical leaves (stay absorbs the new point, prune also
        # merges the sibling) are scored by gathering the count-dependent
        # LML terms from the term tables and evaluating the beta_n
        # arithmetic elementwise — the expression grouping and the scalar-
        # rounded log map keep every score bit-identical to the LMLCache
        # evaluation the reference path performs.
        kernels = get_kernels(config.backend, fast)
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
        if len(cand_particle):
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
            (tables.head[counts_stay] - alpha_stay * kernels.log_array(beta_stay))
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
                (tables.head[counts_prune] - alpha_prune * kernels.log_array(beta_prune))
                + tables.mid[counts_prune]
            ) - tables.tail[counts_prune]
            prune_scores[pr] = log1m_parent + prune_lml
            stay_scores[pr] += common_vals

        # ------------------------ phase 2a: batched candidate partitions
        thresholds = np.full((count, n_candidates), neg_inf)
        dim_matrix = np.zeros((count, n_candidates), dtype=np.intp)
        if len(cand_particle):
            cp = np.asarray(cand_particle, dtype=np.intp)
            cs = np.asarray(cand_slot, dtype=np.intp)
            cd = np.asarray(cand_dim, dtype=np.intp)
            cc = np.asarray(cand_cut, dtype=np.intp)
            # The drawn cut values live in the per-bucket compacted unique
            # tables; one masked gather per bucket reads the ~K entries
            # each particle needs without materialising (and scattering
            # into) a global ``(count, n_max, dims)`` table.
            low = np.empty(cp.shape[0])
            high = np.empty(cp.shape[0])
            cand_bucket = bucket_of[cp]
            cand_pos = bucket_pos[cp]
            for b, (_, _, _, _, compacted) in enumerate(buckets):
                sel = np.flatnonzero(cand_bucket == b)
                if sel.size:
                    pos_s = cand_pos[sel]
                    cd_s = cd[sel]
                    cc_s = cc[sel]
                    low[sel] = compacted[pos_s, cc_s, cd_s]
                    high[sel] = compacted[pos_s, cc_s + 1, cd_s]
            thresholds[cp, cs] = 0.5 * (low + high)
            dim_matrix[cp, cs] = cd
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
        # values on the NumPy backend) and returns each particle's argmax
        # candidate.  Padded slots carry ``-inf`` thresholds, so their
        # left counts are 0 and min_leaf filtering rejects them exactly
        # like the reference's per-candidate guard.
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
        moves = (cdf <= uniforms[:, None]).sum(axis=1).tolist()

        toc = perf_counter()
        timings["propagate-score"] += toc - tic
        tic = toc

        # ---------------------------------------------- phase 3: apply
        # Stay and grow moves mutate the leaf named by the compilation's
        # leaf map directly whenever its ``shared`` flag is clear (the
        # flag is authoritative: resample flags whole duplicated trees),
        # so in the common steady state no tree is walked at all.  Shared
        # leaves and every prune go through ``_descend_cow`` — a pure
        # pointer walk on privately owned paths, shared-node cloning
        # otherwise.  Grow/prune moves additionally *derive* the
        # particle's updated flat compilation from the old one (one
        # splice per structural move) instead of invalidating it, so
        # steady-state updates never re-enter FlatTree.compile.
        stay_slots: List[int] = []
        flat_shared = self._flat_shared
        best_slot_list = best_slot.tolist()
        best_left_list = best_left.tolist()
        best_right_list = best_right.tolist()
        prunable_list = prunable.tolist()
        has_ids = ids_list is not None
        descend_cow = self._descend_cow
        for i in range(count):
            move = moves[i]
            if move == 2 and prunable_list[i]:
                # Prune needs the parent (and must own the path to it),
                # so it always takes the full copy-on-write walk.
                leaf, parent, root = descend_cow(particles[i], x)
                particles[i] = root
                is_left = parent.left is leaf
                sibling = parent.right if is_left else parent.left
                assert sibling is not None
                old_flat = flats[i]
                self._apply_prune(root, parent, leaf, sibling, x, y, index)
                if old_flat is not None and has_ids:
                    lid = ids_list[i]
                    flats[i] = old_flat.prune_at(lid if is_left else lid - 1, parent)
                else:
                    flats[i] = None
                flat_shared[i] = False
                continue
            # Stay and grow only mutate the leaf itself.  The compilation's
            # leaf map already names it, and an unshared flag is
            # authoritative (resample flags whole duplicated trees), so a
            # private leaf can be mutated in place with no tree walk at
            # all; a shared flag falls back to the path-cloning descent.
            flat = flats[i] if has_ids else None
            if flat is not None:
                leaf = flat.leaf_nodes[ids_list[i]]
                if leaf.shared:
                    leaf, _, root = descend_cow(particles[i], x)
                    particles[i] = root
            else:
                leaf, _, root = descend_cow(particles[i], x)
                particles[i] = root
            c = best_slot_list[i]
            if move == 1 and c >= 0:
                n_points = sizes_list[i] + 1
                count_left = int(n_left_matrix[i, c])
                right_slot = n_candidates + c
                old_flat = flats[i]
                self._apply_grow_batched(
                    leaf,
                    _GrowProposal(
                        dim=int(dim_matrix[i, c]),
                        threshold=float(thresholds[i, c]),
                        n_left=count_left,
                        sum_left=float(sums[i, 0, c]),
                        sum_sq_left=float(sums[i, 1, c]),
                        left_lml=best_left_list[i],
                        n_right=n_points - count_left,
                        sum_right=float(sums[i, 0, right_slot]),
                        sum_sq_right=float(sums[i, 1, right_slot]),
                        right_lml=best_right_list[i],
                        mask=masks[i, :n_points, c],
                    ),
                    index,
                )
                if old_flat is not None and has_ids:
                    flats[i] = old_flat.grow_at(ids_list[i], leaf)
                else:
                    flats[i] = None
                flat_shared[i] = False
            else:
                assert leaf.leaf is not None
                leaf.leaf.add(y)
                leaf.indices.append(index)
                flat = flats[i]
                if flat is not None:
                    if flat_shared[i]:
                        # Copy-on-write: the compilation is still shared
                        # with a resample sibling; copy it before the
                        # batched patch lands.
                        flat = flat.copy()
                        flats[i] = flat
                        flat_shared[i] = False
                    # The COW walk may have replaced the leaf object; keep
                    # the compilation's leaf map pointing at the live node.
                    flat.leaf_nodes[ids_list[i]] = leaf
                    stay_slots.append(i)
        if stay_slots:
            # Batched leaf-cache rows for every stay move: the posterior
            # row entries are the same table gathers + elementwise
            # arithmetic (same grouping, scalar-rounded logs) as
            # GaussianLeafModel.predictive_logpdf_terms — including the
            # sufficient-statistics and marginal-likelihood columns the
            # next update's gather phase reads back.
            assert routing is not None
            stays = np.asarray(stay_slots, dtype=np.intp)
            counts_s = counts_stay[stays]
            kappa_s = kappa_stay[stays]
            alpha_s = alpha_stay[stays]
            beta_s = beta_stay[stays]
            pk_pm = prior_kappa * prior_mean
            mean_s = (pk_pm + totals_stay[stays]) / kappa_s
            scale_s = (beta_s * (kappa_s + 1.0)) / (alpha_s * kappa_s)
            dof_s = tables.dof[counts_s]
            rows = np.empty((stays.size, LeafCacheArrays.N_COLUMNS))
            rows[:, LeafCacheArrays.MEAN] = mean_s
            rows[:, LeafCacheArrays.VARIANCE] = (scale_s * dof_s) / (dof_s - 2.0)
            rows[:, LeafCacheArrays.COUNT] = counts_s
            rows[:, LeafCacheArrays.LOGPDF_SCALE] = dof_s * scale_s
            rows[:, LeafCacheArrays.LOGPDF_COEF] = tables.coef[counts_s]
            rows[:, LeafCacheArrays.LOGPDF_CONST] = tables.lgamma_part[
                counts_s
            ] - 0.5 * kernels.log_array(tables.dof_pi[counts_s] * scale_s)
            rows[:, LeafCacheArrays.SUM] = totals_stay[stays]
            rows[:, LeafCacheArrays.SUM_SQ] = sqs_stay[stays]
            rows[:, LeafCacheArrays.LML] = stay_lml[stays]
            self._patch_stays(
                stays, routing.local_ids[stays], rows, routing.forest
            )
        timings["propagate-apply"] += perf_counter() - tic

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
        left_indices = [int(i) for i in indices[old_mask]]
        right_indices = [int(i) for i in indices[~old_mask]]
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

    # --------------------------------------------------- reference propagate

    def _propagate(
        self, root: _Node, x: np.ndarray, y: float, index: int
    ) -> Tuple[_Node, bool, _Node]:
        """Apply one stochastic stay/grow/prune move at the leaf containing ``x``.

        Returns ``(new_root, structural_change, touched_leaf)``;
        ``structural_change`` is true for grow/prune moves (the particle's
        flat compilation must be rebuilt) and false for stay moves (only
        ``touched_leaf``'s statistics changed).
        """
        leaf, parent = root.descend_with_parent(x)
        assert leaf.leaf is not None and self._prior is not None
        config = self._config

        # All scores are computed over the subtree rooted at the leaf's
        # parent (or at the leaf itself when it is the root), so the three
        # alternatives are directly comparable posteriors of that subtree.
        sibling: Optional[_Node] = None
        if parent is not None:
            sibling = parent.right if parent.left is leaf else parent.left

        leaf_with_new = leaf.leaf.copy()
        leaf_with_new.add(y)
        p_split_here = config.split_probability(leaf.depth)
        stay_score = math.log1p(-p_split_here) + leaf_with_new.log_marginal_likelihood()

        grow_proposal = self._propose_grow(leaf, x, y)
        grow_score = -math.inf
        if grow_proposal is not None:
            _, _, left_model, right_model, _, _ = grow_proposal
            p_split_child = config.split_probability(leaf.depth + 1)
            grow_score = (
                math.log(p_split_here)
                + 2.0 * math.log1p(-p_split_child)
                + left_model.log_marginal_likelihood()
                + right_model.log_marginal_likelihood()
            )

        prune_score = -math.inf
        prune_possible = (
            parent is not None and sibling is not None and sibling.is_leaf
        )
        common = 0.0
        if prune_possible:
            assert parent is not None and sibling is not None and sibling.leaf is not None
            p_split_parent = config.split_probability(parent.depth)
            p_split_sibling = config.split_probability(sibling.depth)
            # Common factor shared by the stay and grow alternatives when the
            # comparison is lifted to the parent subtree.
            common = (
                math.log(p_split_parent)
                + math.log1p(-p_split_sibling)
                + sibling.leaf.log_marginal_likelihood()
            )
            merged = leaf_with_new.merge(sibling.leaf)
            prune_score = math.log1p(-p_split_parent) + merged.log_marginal_likelihood()
            stay_score += common
            grow_score = grow_score + common if math.isfinite(grow_score) else grow_score

        scores = np.array([stay_score, grow_score, prune_score])
        finite = np.isfinite(scores)
        probabilities = np.zeros(3)
        shifted = scores[finite] - scores[finite].max()
        probabilities[finite] = np.exp(shifted)
        probabilities /= probabilities.sum()
        move = int(self._rng.choice(3, p=probabilities))

        if move == 1 and grow_proposal is not None:
            self._apply_grow(leaf, grow_proposal, index)
            return root, True, leaf
        if move == 2 and prune_possible:
            assert parent is not None and sibling is not None
            new_root = self._apply_prune(root, parent, leaf, sibling, x, y, index)
            return new_root, True, parent
        leaf.leaf.add(y)
        leaf.indices.append(index)
        return root, False, leaf

    def _propose_grow(
        self, leaf: _Node, x: np.ndarray, y: float
    ) -> Optional[Tuple[int, float, GaussianLeafModel, GaussianLeafModel, List[int], List[int]]]:
        """Propose the best of a few random splits of ``leaf`` (plus the new point).

        Returns ``(dim, threshold, left_model, right_model, left_indices,
        right_indices)`` where the new point is *not* included in the index
        lists (it is added by :meth:`_apply_grow`), or ``None`` when no valid
        split exists (too few points, or no variation in any dimension).

        The partition scans are vectorized: the leaf's observations are
        sliced out of the training buffers once, and each candidate split is
        scored from mask reductions over that slice instead of per-point
        Python loops.
        """
        assert self._prior is not None and self._X is not None and self._y is not None
        config = self._config
        n_points = len(leaf.indices) + 1
        if n_points < 2 * config.min_leaf:
            return None
        indices = np.asarray(leaf.indices, dtype=np.intp)
        features = np.concatenate([self._X[indices], x[None, :]], axis=0)
        targets = np.concatenate([self._y[indices], [y]])
        targets_sq = targets * targets
        dims = x.shape[0]
        min_leaf = config.min_leaf
        prior = self._prior
        best: Optional[Tuple[float, int, float]] = None
        for _ in range(config.n_split_candidates):
            dim = int(self._rng.integers(dims))
            column = features[:, dim]
            values = np.unique(column)
            if values.size < 2:
                continue
            cut_index = int(self._rng.integers(values.size - 1))
            threshold = 0.5 * (float(values[cut_index]) + float(values[cut_index + 1]))
            left_mask = column <= threshold
            n_left = int(left_mask.sum())
            n_right = n_points - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            right_mask = ~left_mask
            score = log_marginal_likelihood_from_stats(
                prior,
                n_left,
                _sequential_sum(targets[left_mask]),
                _sequential_sum(targets_sq[left_mask]),
            ) + log_marginal_likelihood_from_stats(
                prior,
                n_right,
                _sequential_sum(targets[right_mask]),
                _sequential_sum(targets_sq[right_mask]),
            )
            if best is None or score > best[0]:
                best = (score, dim, threshold)
        if best is None:
            return None
        _, dim, threshold = best
        old_left_mask = self._X[indices, dim] <= threshold
        left_indices = [int(i) for i in indices[old_left_mask]]
        right_indices = [int(i) for i in indices[~old_left_mask]]
        left_targets = self._y[indices[old_left_mask]]
        right_targets = self._y[indices[~old_left_mask]]
        if x[dim] <= threshold:
            left_targets = np.append(left_targets, y)
        else:
            right_targets = np.append(right_targets, y)
        left_model = GaussianLeafModel.from_sufficient_stats(
            self._prior,
            left_targets.size,
            _sequential_sum(left_targets),
            _sequential_sum(left_targets * left_targets),
        )
        right_model = GaussianLeafModel.from_sufficient_stats(
            self._prior,
            right_targets.size,
            _sequential_sum(right_targets),
            _sequential_sum(right_targets * right_targets),
        )
        return dim, threshold, left_model, right_model, left_indices, right_indices

    def _apply_grow(
        self,
        leaf: _Node,
        proposal: Tuple[int, float, GaussianLeafModel, GaussianLeafModel, List[int], List[int]],
        index: int,
    ) -> None:
        dim, threshold, left_model, right_model, left_indices, right_indices = proposal
        assert self._X is not None
        x = self._X[index]
        if x[dim] <= threshold:
            left_indices = left_indices + [index]
        else:
            right_indices = right_indices + [index]
        left_child = _Node(leaf.depth + 1)
        left_child.leaf = left_model
        left_child.indices = left_indices
        right_child = _Node(leaf.depth + 1)
        right_child.leaf = right_model
        right_child.indices = right_indices
        leaf.leaf = None
        leaf.indices = []
        leaf.split_dim = dim
        leaf.split_value = threshold
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
