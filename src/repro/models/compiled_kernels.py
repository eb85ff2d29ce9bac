"""NumPy kernels for the batched SMC update.

The batched update of :class:`~repro.models.dynamic_tree.DynamicTreeRegressor`
funnels its per-particle inner loops through three kernels:

* :func:`route_update_numpy` — route one feature vector through every
  particle at once over the flat arrays of a
  :class:`~repro.models.flat_tree.FlatForest`, recording each particle's
  leaf node, parent and depth (the reweight front-end);
* :func:`reweight_log_weights` — the fused gather + Student-t log-pdf
  accumulation over :class:`~repro.models.leaf.LeafCacheArrays` rows;
* :func:`grow_scores` — the fused candidate scan: given the padded
  partition sums and per-count NIG term tables, score every candidate
  split of every particle and pick each particle's best.

The reweight and grow-score kernels take their ``log1p``/``log`` array
map as an argument, and :func:`log_maps` picks the maps from
``DynamicTreeConfig(float_mode=...)``:

``"exact"``
    Scalar ``math.log`` / ``math.log1p`` maps over the array,
    bit-identical to the per-particle reference path.  IEEE basic
    operations (add, subtract, multiply, divide) are correctly rounded,
    so vectorizing them is exact; only the transcendentals differ between
    ``np`` and ``math`` (SIMD implementations round ~1e-4 of inputs
    differently), hence the scalar maps.
``"fast"``
    ``np.log`` / ``np.log1p``.  Scores may differ from the reference in
    the last ulp, which can fork sampled trajectories — callers opting in
    accept statistical rather than bitwise equivalence (see
    ``docs/architecture.md``).
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "grow_scores",
    "log1p_map_exact",
    "log_map_exact",
    "log_maps",
    "nig_beta_n",
    "reweight_log_weights",
    "route_update_numpy",
]

ArrayMap = Callable[[np.ndarray], np.ndarray]


# ------------------------------------------------------------- log maps


def log_map_exact(values: np.ndarray) -> np.ndarray:
    """``math.log`` over a 1-D array, bit-identical to a scalar loop."""
    return np.fromiter(
        map(math.log, values.tolist()), dtype=float, count=values.shape[0]
    )


def log1p_map_exact(values: np.ndarray) -> np.ndarray:
    """``math.log1p`` over a 1-D array, bit-identical to a scalar loop."""
    return np.fromiter(
        map(math.log1p, values.tolist()), dtype=float, count=values.shape[0]
    )


def log_maps(fast: bool) -> Tuple[ArrayMap, ArrayMap]:
    """The ``(log, log1p)`` array maps of a float mode (``fast`` or exact)."""
    if fast:
        return np.log, np.log1p
    return log_map_exact, log1p_map_exact


# ----------------------------------------------------------------- routing


def route_update_numpy(
    split_dim: np.ndarray,
    split_value: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf_slot: np.ndarray,
    roots: np.ndarray,
    x: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One row routed through every tree of a forest, with its context.

    Level-synchronous descent over the forest's flat arrays: all
    particles still sitting on an internal node are advanced together,
    so the loop count is the deepest particle's depth instead of
    ``n_particles`` Python descents.

    Returns ``(leaf_ids, leaf_nodes, parent_nodes, depths)``: the global
    leaf id and *node* index each particle lands on, the node index of
    that leaf's parent (``-1`` for root-leaves) and the descent depth.
    The propagate phases derive the prune sibling and the tree-prior
    depth terms from these.
    """
    nodes = roots.copy()
    parents = np.full(roots.shape[0], -1, dtype=np.intp)
    depths = np.zeros(roots.shape[0], dtype=np.intp)
    active = np.flatnonzero(split_dim[nodes] >= 0)
    while active.size:
        current = nodes[active]
        dims = split_dim[current]
        go_left = x[dims] <= split_value[current]
        parents[active] = current
        nodes[active] = np.where(go_left, left[current], right[current])
        depths[active] += 1
        still_internal = split_dim[nodes[active]] >= 0
        active = active[still_internal]
    return leaf_slot[nodes], nodes, parents, depths


# ---------------------------------------------------------------- reweight


def reweight_log_weights(
    cache_data: np.ndarray, leaf_ids: np.ndarray, y: float, log1p_array: ArrayMap
) -> np.ndarray:
    """Student-t log-pdf of ``y`` under every particle's located leaf.

    ``cache_data`` rows follow the :class:`~repro.models.leaf.LeafCacheArrays`
    layout; the arithmetic mirrors
    the reference leaf's ``predictive_logpdf`` exactly (basic ops are
    correctly rounded, the ``log1p`` map is the float mode's).
    """
    rows = cache_data[leaf_ids]
    z_sq = (y - rows[:, 0]) ** 2 / rows[:, 3]
    return rows[:, 5] - rows[:, 4] * log1p_array(z_sq)


# --------------------------------------------------------------- NIG terms


def nig_beta_n(
    counts: np.ndarray,
    totals: np.ndarray,
    total_sqs: np.ndarray,
    kappa_n: np.ndarray,
    prior_beta: float,
    prior_kappa: float,
    prior_mean: float,
) -> np.ndarray:
    """Vectorized posterior ``beta_n``, grouped exactly like the scalar path.

    Mirrors the scalar log-marginal-likelihood evaluation::

        mean = total / n
        sum_sq_dev = max(total_sq - n * mean * mean, 0.0)
        beta_n = prior.beta + 0.5 * sum_sq_dev
                 + 0.5 * (prior.kappa * n * (mean - prior.mean) ** 2) / kappa_n

    Only IEEE basic operations appear, so the array evaluation is
    bit-identical to the scalar one for every element (``np.maximum``'s
    signed-zero choice cannot surface: the value is only ever *added*).
    """
    mean = totals / counts
    sum_sq_dev = np.maximum(total_sqs - counts * mean * mean, 0.0)
    return (prior_beta + 0.5 * sum_sq_dev) + (
        0.5 * ((prior_kappa * counts) * ((mean - prior_mean) ** 2))
    ) / kappa_n


# -------------------------------------------------------------- grow scores


def grow_scores(
    n_left: np.ndarray,
    n_points: np.ndarray,
    sums: np.ndarray,
    min_leaf: int,
    n_candidates: int,
    kappa_tab: np.ndarray,
    alpha_tab: np.ndarray,
    head_tab: np.ndarray,
    mid_tab: np.ndarray,
    tail_tab: np.ndarray,
    prior_beta: float,
    prior_kappa: float,
    prior_mean: float,
    log_array: ArrayMap,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best candidate split per particle from padded partition sums.

    ``n_left`` is ``(P, K)`` left-side counts (0 on padding slots, so
    they are invalid whenever ``min_leaf >= 1``), ``n_points`` the
    ``(P,)`` per-particle totals, ``sums`` the ``(P, 2, 2K)`` padded
    sum/sum-of-squares block (left slots ``0..K-1``, right slots
    ``K..2K-1``).  Returns ``(best_slot, left_lml, right_lml)`` with
    ``best_slot[p] == -1`` when particle ``p`` has no valid candidate.
    Ties keep the first maximum, like the scalar ``score > best`` scan.
    """
    count = n_points.shape[0]
    best_slot = np.full(count, -1, dtype=np.intp)
    best_left = np.zeros(count)
    best_right = np.zeros(count)
    n_right = n_points[:, None] - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    pi, ci = np.nonzero(valid)
    if not pi.size:
        return best_slot, best_left, best_right
    counts2 = np.concatenate([n_left[pi, ci], n_right[pi, ci]])
    totals2 = np.concatenate([sums[pi, 0, ci], sums[pi, 0, ci + n_candidates]])
    sqs2 = np.concatenate([sums[pi, 1, ci], sums[pi, 1, ci + n_candidates]])
    kappa2 = kappa_tab[counts2]
    alpha2 = alpha_tab[counts2]
    beta2 = nig_beta_n(
        counts2, totals2, sqs2, kappa2, prior_beta, prior_kappa, prior_mean
    )
    lml2 = ((head_tab[counts2] - alpha2 * log_array(beta2)) + mid_tab[counts2]) - (
        tail_tab[counts2]
    )
    left_lml = lml2[: pi.size]
    right_lml = lml2[pi.size :]
    score_matrix = np.full(n_left.shape, -np.inf)
    score_matrix[pi, ci] = left_lml + right_lml
    left_matrix = np.zeros(n_left.shape)
    right_matrix = np.zeros(n_left.shape)
    left_matrix[pi, ci] = left_lml
    right_matrix[pi, ci] = right_lml
    rows = np.arange(count)
    best_c = np.argmax(score_matrix, axis=1)
    has_best = score_matrix[rows, best_c] > -np.inf
    best_slot[has_best] = best_c[has_best]
    best_left[has_best] = left_matrix[rows, best_c][has_best]
    best_right[has_best] = right_matrix[rows, best_c][has_best]
    return best_slot, best_left, best_right
