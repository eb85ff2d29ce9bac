"""NumPy kernels for the batched SMC update.

The batched update of :class:`~repro.models.dynamic_tree.DynamicTreeRegressor`
funnels its per-particle inner loops through three kernels:

* :func:`route_update_numpy` — route one feature vector through every
  particle at once over the flat arrays of a
  :class:`~repro.models.flat_tree.FlatForest`, recording each particle's
  leaf node, parent and depth (the reweight front-end);
* :func:`reweight_log_weights` — the fused gather + Student-t log-pdf
  accumulation over :class:`~repro.models.leaf.LeafCacheArrays` rows;
* :func:`nig_beta_n` — the posterior ``beta_n`` of leaves given their
  sufficient statistics, the non-tabulated part of every leaf LML.

The reweight kernel and the model's leaf LMLs take their ``log1p``/``log``
array map as an argument, and :func:`log_maps` picks the maps from
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
