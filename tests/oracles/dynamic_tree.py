"""Per-particle reference implementation of the dynamic tree.

:class:`ReferenceDynamicTree` runs the SMC update, prediction and the ALC
score of :class:`~repro.models.dynamic_tree.DynamicTreeRegressor` one
particle at a time on node trees (:class:`_Node`, one
:class:`~tests.oracles.leaf.GaussianLeafModel` and one training-row index
list per leaf): Python descents, eager tree copies on resample and
per-candidate ``np.unique`` partition scans.  Each update draws the same
two arrays as the production path — one ``random()`` for the resample,
then one ``random((n_particles, 2K + 1))`` block — and particle ``i``
decodes its own row of the block with scalar Python arithmetic (never the
production decode), so the oracle stays independent while the batched
path replays it bit for bit: same float arithmetic, same draws.  The
equivalence tests drive both with one seed and compare every prediction,
and :class:`FlatTree` compiles one node tree the way the production forest
lays out a row, so a forest row can be compared with its oracle twin.

:meth:`ReferenceDynamicTree.from_model` rebuilds a fitted production
model's particles as node trees (from its checkpoint snapshot and
``leaf_of``), so :func:`predict_reference` and
:func:`expected_average_variance_reference` also score any fitted model
through the per-node loops.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import Prediction
from repro.models.dynamic_tree import DynamicTreeRegressor
from tests.oracles.leaf import (
    GaussianLeafModel,
    cache_arrays,
    log_marginal_likelihood_from_stats,
)

__all__ = [
    "FlatTree",
    "ReferenceDynamicTree",
    "copy_tree",
    "descend",
    "expected_average_variance_reference",
    "predict_reference",
]

_Proposal = Tuple[int, float, GaussianLeafModel, GaussianLeafModel, List[int], List[int]]


class _Node:
    """One node of a particle's tree.

    A node is either internal (``split_dim``/``split_value`` set, ``left``
    and ``right`` children) or a leaf (``leaf`` model plus the indices of
    the observations it contains, in ascending training order).
    """

    __slots__ = ("depth", "split_dim", "split_value", "left", "right", "leaf", "indices")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.split_dim: Optional[int] = None
        self.split_value: float = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.leaf: Optional[GaussianLeafModel] = None
        self.indices: List[int] = []

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def leaves(self) -> List["_Node"]:
        if self.is_leaf:
            return [self]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()


class FlatTree:
    """One node tree compiled to flat pre-order arrays, like a forest row.

    Per node ``split_dim`` (``-1`` for leaves), ``split_value``,
    ``left``/``right`` child indices (``-1`` for leaves) and ``leaf_slot``
    (the pre-order leaf id, ``-1`` for internal nodes); per leaf id one
    row of ``caches`` filled from the leaf model's scalar methods.
    """

    __slots__ = ("split_dim", "split_value", "left", "right", "leaf_slot", "caches",
                 "n_nodes", "n_leaves")

    @property
    def leaf_mean(self) -> np.ndarray:
        return self.caches.mean

    @property
    def leaf_count(self) -> np.ndarray:
        return self.caches.count

    @classmethod
    def compile(cls, root: _Node) -> "FlatTree":
        """Lower a node tree into flat arrays (pre-order numbering)."""
        split_dim: List[int] = []
        split_value: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_slot: List[int] = []
        leaves: List[GaussianLeafModel] = []

        def visit(node: _Node) -> int:
            index = len(split_dim)
            left.append(-1)
            right.append(-1)
            if node.leaf is not None:
                split_dim.append(-1)
                split_value.append(0.0)
                leaf_slot.append(len(leaves))
                leaves.append(node.leaf)
            else:
                split_dim.append(int(node.split_dim))
                split_value.append(float(node.split_value))
                leaf_slot.append(-1)
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        visit(root)
        flat = cls()
        flat.split_dim = np.asarray(split_dim, dtype=np.intp)
        flat.split_value = np.asarray(split_value, dtype=float)
        flat.left = np.asarray(left, dtype=np.intp)
        flat.right = np.asarray(right, dtype=np.intp)
        flat.leaf_slot = np.asarray(leaf_slot, dtype=np.intp)
        flat.caches = cache_arrays(leaves)
        flat.n_nodes = len(split_dim)
        flat.n_leaves = len(leaves)
        return flat

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf ids of every row of ``X``, descending level by level."""
        X = np.atleast_2d(X)
        nodes = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.split_dim[nodes] >= 0)
        while active.size:
            current = nodes[active]
            go_left = X[active, self.split_dim[current]] <= self.split_value[current]
            nodes[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.split_dim[nodes[active]] >= 0]
        return self.leaf_slot[nodes]


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a Python accumulation loop.

    ``np.sum`` uses pairwise summation, which rounds differently; the
    last element of ``np.cumsum`` reproduces the scalar accumulation.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def copy_tree(node: _Node) -> _Node:
    """A private deep copy of the subtree rooted at ``node``."""
    clone = _Node(node.depth)
    clone.split_dim = node.split_dim
    clone.split_value = node.split_value
    if node.leaf is not None:
        clone.leaf = node.leaf.copy()
        clone.indices = list(node.indices)
    if node.left is not None:
        clone.left = copy_tree(node.left)
    if node.right is not None:
        clone.right = copy_tree(node.right)
    return clone


def descend_with_parent(root: _Node, x: np.ndarray) -> Tuple[_Node, Optional[_Node]]:
    """The leaf containing ``x`` together with its parent (``None`` at the root)."""
    parent: Optional[_Node] = None
    node = root
    while not node.is_leaf:
        parent = node
        assert node.left is not None and node.right is not None
        if x[node.split_dim] <= node.split_value:
            node = node.left
        else:
            node = node.right
    return node, parent


def descend(root: _Node, x: np.ndarray) -> _Node:
    """The leaf whose region contains ``x``."""
    return descend_with_parent(root, x)[0]


def _particles_of(model: DynamicTreeRegressor) -> List[_Node]:
    """``model``'s particles as node trees (rebuilt unless it is an oracle)."""
    if isinstance(model, ReferenceDynamicTree):
        return model._particles
    return ReferenceDynamicTree.from_model(model)._particles


def predict_reference(model: DynamicTreeRegressor, features: np.ndarray) -> Prediction:
    """Per-node reference implementation of ``predict``."""
    if not model._n:
        raise RuntimeError("the model has no training data yet")
    particles = _particles_of(model)
    X = np.atleast_2d(np.asarray(features, dtype=float))
    n = X.shape[0]
    means = np.zeros(n)
    second_moments = np.zeros(n)
    count = float(len(particles))
    for root in particles:
        for i in range(n):
            leaf = descend(root, X[i])
            assert leaf.leaf is not None
            mean = leaf.leaf.predictive_mean()
            var = leaf.leaf.predictive_variance()
            means[i] += mean
            second_moments[i] += var + mean * mean
    means /= count
    variances = np.maximum(second_moments / count - means ** 2, 1e-18)
    return Prediction(mean=means, variance=variances)


def expected_average_variance_reference(
    model: DynamicTreeRegressor, candidates: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Per-node reference implementation of ``expected_average_variance``."""
    if not model._n:
        raise RuntimeError("the model has no training data yet")
    particles = _particles_of(model)
    C = np.atleast_2d(np.asarray(candidates, dtype=float))
    R = np.atleast_2d(np.asarray(reference, dtype=float))
    n_candidates = C.shape[0]
    n_reference = R.shape[0]
    scores = np.zeros(n_candidates)
    kappa = model._prior.kappa
    for root in particles:
        # Group the reference points by the leaf that contains them so
        # the per-candidate reduction is an array lookup rather than a
        # scan over the whole reference set.  Leaves are identified by
        # their position in the particle's leaf list.
        leaves = root.leaves()
        variance_by_leaf = np.zeros(len(leaves))
        base_total = 0.0
        for j in range(n_reference):
            leaf = descend(root, R[j])
            assert leaf.leaf is not None
            variance = leaf.leaf.predictive_variance()
            base_total += variance
            variance_by_leaf[leaves.index(leaf)] += variance
        for i in range(n_candidates):
            candidate_leaf = descend(root, C[i])
            assert candidate_leaf.leaf is not None
            n_leaf = candidate_leaf.leaf.count
            shrink = 1.0 / (n_leaf + kappa + 1.0)
            reduction = variance_by_leaf[leaves.index(candidate_leaf)] * shrink
            scores[i] += (base_total - reduction) / n_reference
    return scores / len(particles)


class ReferenceDynamicTree(DynamicTreeRegressor):
    """The dynamic tree with every update and query run per particle."""

    def __init__(self, config=None, rng=None) -> None:
        super().__init__(config, rng)
        self._particles: List[_Node] = []

    @classmethod
    def from_model(cls, model: DynamicTreeRegressor) -> "ReferenceDynamicTree":
        """A twin of a fitted model: same data, prior, RNG state and particles.

        The particles are rebuilt as private node trees from the model's
        checkpoint snapshot — nodes in pre-order, each node's depth given
        by its position — and each leaf's index list is read from the
        forest's ``leaf_of`` (ascending training order).
        """
        twin = cls(model.config, rng=copy.deepcopy(model._rng))
        twin._X = None if model._X is None else model._X.copy()
        twin._y = None if model._y is None else model._y.copy()
        twin._n = model._n
        twin._prior = model._prior
        if model._prior is None:
            return twin
        forest = model._forest()
        snapshot = forest.preorder()
        dims = iter(snapshot["split_dim"].tolist())
        values = iter(snapshot["split_value"].tolist())
        stats = iter(snapshot["leaf_stats"].tolist())

        def build(depth: int, members) -> _Node:
            node = _Node(depth)
            dim = next(dims)
            if dim < 0:
                count, total, total_sq = next(stats)
                node.leaf = GaussianLeafModel.from_sufficient_stats(
                    model._prior, int(count), total, total_sq
                )
                node.indices = next(members).tolist()
            else:
                node.split_dim = dim
                node.split_value = next(values)
                node.left = build(depth + 1, members)
                node.right = build(depth + 1, members)
            return node

        for p, n_nodes in enumerate(snapshot["n_nodes"].tolist()):
            row = forest.leaf_of[p, : model._n]
            order = np.argsort(row, kind="stable")
            ends = np.cumsum(np.bincount(row, minlength=(n_nodes + 1) // 2))
            twin._particles.append(build(0, iter(np.split(order, ends[:-1]))))
        return twin

    @property
    def n_particles(self) -> int:
        return len(self._particles)

    def leaf_counts(self) -> List[int]:
        return [len(root.leaves()) for root in self._particles]

    def _seed_posterior(self) -> None:
        self._particles = []
        for _ in range(self._config.n_particles):
            root = _Node(depth=0)
            root.leaf = GaussianLeafModel(self._prior)
            self._particles.append(root)

    def update(self, features: np.ndarray, target: float) -> None:
        x, y = self._observation(features, target)
        uniform = self._rng.random()
        draws = self._rng.random(
            (len(self._particles), 2 * self._config.n_split_candidates + 1)
        )
        if self._n >= 1:
            self._resample_reference(x, y, uniform)
        index = self._append_observation(x, y)
        for particle_index, root in enumerate(self._particles):
            self._particles[particle_index] = self._propagate(
                root, x, y, index, draws[particle_index].tolist()
            )

    def predict(self, features: np.ndarray) -> Prediction:
        return predict_reference(self, features)

    def expected_average_variance(
        self, candidates: np.ndarray, reference: np.ndarray
    ) -> np.ndarray:
        return expected_average_variance_reference(self, candidates, reference)

    # --------------------------------------------------- reweight + resample

    def _resample_reference(self, x: np.ndarray, y: float, uniform: float) -> None:
        """Reweight by predictive log-pdf, resample with eager tree copies."""
        log_weights = np.array(
            [descend(root, x).leaf.predictive_logpdf(y) for root in self._particles]
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
        chosen_indices = self._systematic_indices(weights, uniform)
        # Deduplicate by particle *index*: the first occurrence keeps the
        # original tree, later occurrences get independent copies.
        new_particles: List[_Node] = []
        used_original: set[int] = set()
        for j in chosen_indices:
            if j not in used_original:
                new_particles.append(self._particles[j])
                used_original.add(j)
            else:
                new_particles.append(copy_tree(self._particles[j]))
        self._particles = new_particles

    # ------------------------------------------------------------- propagate

    def _propagate(
        self, root: _Node, x: np.ndarray, y: float, index: int, row: List[float]
    ) -> _Node:
        """Apply one stochastic stay/grow/prune move at the leaf containing ``x``.

        ``row`` is this particle's row of the update's draw block: ``K``
        dimension uniforms, ``K`` cut uniforms and the move uniform.
        Returns the particle's (possibly new) root.
        """
        leaf, parent = descend_with_parent(root, x)
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

        grow_proposal = self._propose_grow(leaf, x, y, row)
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
        # ``Generator.choice``'s inversion: the number of cdf entries at or
        # below the move uniform.
        cdf = np.cumsum(probabilities)
        cdf /= cdf[-1]
        u = row[-1]
        move = sum(c <= u for c in cdf.tolist())

        if move == 1 and grow_proposal is not None:
            self._apply_grow(leaf, grow_proposal, index)
            return root
        if move == 2 and prune_possible:
            assert parent is not None and sibling is not None
            self._apply_prune(parent, leaf, sibling, y, index)
            return root
        leaf.leaf.add(y)
        leaf.indices.append(index)
        return root

    def _propose_grow(
        self, leaf: _Node, x: np.ndarray, y: float, row: List[float]
    ) -> Optional[_Proposal]:
        """Propose the best of a few random splits of ``leaf`` (plus the new point).

        Candidate ``k`` takes its dimension from ``row[k]`` and its cut
        from ``row[K + k]``; a dimension without two distinct values skips
        the candidate, leaving its cut uniform unread.

        Returns ``(dim, threshold, left_model, right_model, left_indices,
        right_indices)`` where the new point is *not* included in the index
        lists (it is added by :meth:`_apply_grow`), or ``None`` when no valid
        split exists (too few points, or no variation in any dimension).
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
        n_candidates = config.n_split_candidates
        best: Optional[Tuple[float, int, float]] = None
        for k in range(n_candidates):
            dim = min(int(row[k] * dims), dims - 1)
            column = features[:, dim]
            values = np.unique(column)
            if values.size < 2:
                continue
            cut_index = min(
                int(row[n_candidates + k] * (values.size - 1)), values.size - 2
            )
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

    def _apply_grow(self, leaf: _Node, proposal: _Proposal, index: int) -> None:
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
        self, parent: _Node, leaf: _Node, sibling: _Node, y: float, index: int
    ) -> None:
        """Collapse ``parent`` into one leaf holding both children and ``y``.

        The merged index list is in ascending training order, like every
        list a stay or grow produces.
        """
        assert leaf.leaf is not None and sibling.leaf is not None
        merged_model = leaf.leaf.merge(sibling.leaf)
        merged_model.add(y)
        parent.split_dim = None
        parent.split_value = 0.0
        parent.left = None
        parent.right = None
        parent.leaf = merged_model
        parent.indices = sorted(leaf.indices + sibling.indices) + [index]
