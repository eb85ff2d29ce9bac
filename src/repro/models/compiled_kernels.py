"""Backend-dispatched kernels for the batched SMC update.

The batched update path of :class:`~repro.models.dynamic_tree.DynamicTreeRegressor`
funnels its per-particle inner loops through three kernels:

* **route_all** — route one feature vector through every particle at once
  over the flat arrays of a :class:`~repro.models.flat_tree.FlatForest`
  (``route_update``, the reweight front-end, also records each particle's
  leaf node, parent and depth);
* **reweight_log_weights** — the fused gather + Student-t log-pdf
  accumulation over :class:`~repro.models.leaf.LeafCacheArrays` rows;
* **grow_scores** — the fused candidate scan: given the padded
  partition sums and per-count NIG term tables, score every candidate
  split of every particle and pick each particle's best.

Each kernel exists in up to three flavours, selected by
``DynamicTreeConfig(backend=...)`` through :func:`get_kernels`:

``"numpy"``
    Pure NumPy with *scalar* ``math`` transcendentals (a ``math.log`` /
    ``math.log1p`` map over the array): bit-identical to the
    ``vectorized=False`` reference path.  IEEE basic operations (add,
    subtract, multiply, divide) are correctly rounded, so vectorizing
    them is exact; only the transcendentals differ between ``np`` and
    ``math`` (SIMD implementations round ~1e-4 of inputs differently),
    hence the scalar map.
``"numba"``
    ``@njit(cache=True)`` loops using ``math`` transcendentals (libm,
    the same functions CPython's ``math`` module calls) — expected
    bit-identical to ``"numpy"``.  When numba is not installed this
    backend silently falls back to the ``"numpy"`` kernels, so every
    entry point works without the optional dependency.
``"numba-fast"``
    The tolerance-tested mode: with numba present it reuses the jitted
    exact kernels; without numba it substitutes ``np.log``/``np.log1p``
    for the scalar maps.  Scores may differ from the reference in the
    last ulp, which can fork sampled trajectories — callers opting in
    accept statistical rather than bitwise equivalence (see
    ``docs/architecture.md``).

Every helper here is import-safe without numba: the jit decorators are
only applied when the import succeeds, and any failure during kernel
definition degrades to the NumPy implementations.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Tuple

import numpy as np

__all__ = [
    "BACKENDS",
    "NUMBA_AVAILABLE",
    "Kernels",
    "get_kernels",
    "nig_beta_n",
    "route_all_numpy",
    "route_update_numpy",
]

BACKENDS = ("numpy", "numba", "numba-fast")

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    njit = None
    NUMBA_AVAILABLE = False


# --------------------------------------------------------------- exact maps


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


def _log_fast(values: np.ndarray) -> np.ndarray:
    return np.log(values)


def _log1p_fast(values: np.ndarray) -> np.ndarray:
    return np.log1p(values)


# ----------------------------------------------------------------- routing


def route_all_numpy(
    split_dim: np.ndarray,
    split_value: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf_slot: np.ndarray,
    roots: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Global leaf ids of one row routed through every tree of a forest.

    Level-synchronous descent over the forest's flat arrays: all
    particles still sitting on an internal node are advanced together,
    so the loop count is the deepest particle's depth instead of
    ``n_particles`` Python descents.
    """
    nodes = roots.copy()
    active = np.flatnonzero(split_dim[nodes] >= 0)
    while active.size:
        current = nodes[active]
        dims = split_dim[current]
        go_left = x[dims] <= split_value[current]
        nodes[active] = np.where(go_left, left[current], right[current])
        still_internal = split_dim[nodes[active]] >= 0
        active = active[still_internal]
    return leaf_slot[nodes]


def route_update_numpy(
    split_dim: np.ndarray,
    split_value: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    leaf_slot: np.ndarray,
    roots: np.ndarray,
    x: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`route_all_numpy` plus the update path's structural context.

    Returns ``(leaf_ids, leaf_nodes, parent_nodes, depths)``: the global
    leaf id and *node* index each particle lands on, the node index of
    that leaf's parent (``-1`` for root-leaves) and the descent depth.
    The propagate phase derives the prune sibling and the tree-prior
    depth terms from these instead of re-walking ``_Node`` objects.
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


def _make_reweight_numpy(log1p_array: Callable[[np.ndarray], np.ndarray]):
    def reweight_log_weights(
        cache_data: np.ndarray, leaf_ids: np.ndarray, y: float
    ) -> np.ndarray:
        """Student-t log-pdf of ``y`` under every particle's located leaf.

        ``cache_data`` rows follow the :class:`~repro.models.leaf.LeafCacheArrays`
        layout; the arithmetic mirrors
        ``GaussianLeafModel.predictive_logpdf`` exactly (basic ops are
        correctly rounded, the ``log1p`` flavour is the backend's).
        """
        rows = cache_data[leaf_ids]
        z_sq = (y - rows[:, 0]) ** 2 / rows[:, 3]
        return rows[:, 5] - rows[:, 4] * log1p_array(z_sq)

    return reweight_log_weights


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

    Mirrors ``LMLCache.log_marginal_likelihood`` /
    ``GaussianLeafModel.posterior``::

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


def _make_grow_scores_numpy(log_array: Callable[[np.ndarray], np.ndarray]):
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

    return grow_scores


# ------------------------------------------------------------ numba kernels

_NUMBA_KERNELS = None
if NUMBA_AVAILABLE:  # pragma: no cover - requires the optional extra
    try:

        @njit(cache=True)
        def _route_all_nb(split_dim, split_value, left, right, leaf_slot, roots, x):
            count = roots.shape[0]
            out = np.empty(count, dtype=np.intp)
            for p in range(count):
                node = roots[p]
                dim = split_dim[node]
                while dim >= 0:
                    if x[dim] <= split_value[node]:
                        node = left[node]
                    else:
                        node = right[node]
                    dim = split_dim[node]
                out[p] = leaf_slot[node]
            return out

        @njit(cache=True)
        def _route_update_nb(
            split_dim, split_value, left, right, leaf_slot, roots, x
        ):
            count = roots.shape[0]
            gids = np.empty(count, dtype=np.intp)
            nodes = np.empty(count, dtype=np.intp)
            parents = np.empty(count, dtype=np.intp)
            depths = np.empty(count, dtype=np.intp)
            for p in range(count):
                node = roots[p]
                parent = -1
                depth = 0
                dim = split_dim[node]
                while dim >= 0:
                    parent = node
                    if x[dim] <= split_value[node]:
                        node = left[node]
                    else:
                        node = right[node]
                    depth += 1
                    dim = split_dim[node]
                gids[p] = leaf_slot[node]
                nodes[p] = node
                parents[p] = parent
                depths[p] = depth
            return gids, nodes, parents, depths

        @njit(cache=True)
        def _log_map_nb(values):
            out = np.empty(values.shape[0])
            for i in range(values.shape[0]):
                out[i] = math.log(values[i])
            return out

        @njit(cache=True)
        def _log1p_map_nb(values):
            out = np.empty(values.shape[0])
            for i in range(values.shape[0]):
                out[i] = math.log1p(values[i])
            return out

        @njit(cache=True)
        def _reweight_nb(cache_data, leaf_ids, y):
            count = leaf_ids.shape[0]
            out = np.empty(count)
            for i in range(count):
                row = leaf_ids[i]
                z = y - cache_data[row, 0]
                z_sq = z ** 2 / cache_data[row, 3]
                out[i] = cache_data[row, 5] - cache_data[row, 4] * math.log1p(z_sq)
            return out

        @njit(cache=True)
        def _grow_scores_nb(
            n_left,
            n_points,
            sums,
            min_leaf,
            n_candidates,
            kappa_tab,
            alpha_tab,
            head_tab,
            mid_tab,
            tail_tab,
            prior_beta,
            prior_kappa,
            prior_mean,
        ):
            count = n_points.shape[0]
            best_slot = np.full(count, -1, dtype=np.intp)
            best_left = np.zeros(count)
            best_right = np.zeros(count)
            for p in range(count):
                total_points = n_points[p]
                best_score = -np.inf
                found = False
                for c in range(n_left.shape[1]):
                    count_left = n_left[p, c]
                    count_right = total_points - count_left
                    if count_left < min_leaf or count_right < min_leaf:
                        continue
                    kappa_n = kappa_tab[count_left]
                    mean = sums[p, 0, c] / count_left
                    sum_sq_dev = max(
                        sums[p, 1, c] - count_left * mean * mean, 0.0
                    )
                    beta_n = (
                        prior_beta
                        + 0.5 * sum_sq_dev
                        + 0.5
                        * (prior_kappa * count_left * (mean - prior_mean) ** 2)
                        / kappa_n
                    )
                    left_lml = (
                        (head_tab[count_left] - alpha_tab[count_left] * math.log(beta_n))
                        + mid_tab[count_left]
                    ) - tail_tab[count_left]
                    slot = n_candidates + c
                    kappa_n = kappa_tab[count_right]
                    mean = sums[p, 0, slot] / count_right
                    sum_sq_dev = max(
                        sums[p, 1, slot] - count_right * mean * mean, 0.0
                    )
                    beta_n = (
                        prior_beta
                        + 0.5 * sum_sq_dev
                        + 0.5
                        * (prior_kappa * count_right * (mean - prior_mean) ** 2)
                        / kappa_n
                    )
                    right_lml = (
                        (head_tab[count_right] - alpha_tab[count_right] * math.log(beta_n))
                        + mid_tab[count_right]
                    ) - tail_tab[count_right]
                    score = left_lml + right_lml
                    if not found or score > best_score:
                        found = True
                        best_score = score
                        best_slot[p] = c
                        best_left[p] = left_lml
                        best_right[p] = right_lml
            return best_slot, best_left, best_right

        _NUMBA_KERNELS = {
            "route_all": _route_all_nb,
            "route_update": _route_update_nb,
            "log_array": _log_map_nb,
            "log1p_array": _log1p_map_nb,
            "reweight_log_weights": _reweight_nb,
            "grow_scores": _grow_scores_nb,
        }
    except Exception:  # pragma: no cover - defensive: degrade to NumPy
        _NUMBA_KERNELS = None


# ---------------------------------------------------------------- dispatch


class Kernels(NamedTuple):
    """The kernel set one backend resolves to.

    ``jitted`` reports whether numba dispatchers back the kernels;
    ``exact`` whether the transcendentals follow the bit-identity
    contract (only ``numba-fast`` without numba gives it up).
    """

    backend: str
    jitted: bool
    exact: bool
    route_all: Callable[..., np.ndarray]
    route_update: Callable[
        ..., Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ]
    log_array: Callable[[np.ndarray], np.ndarray]
    log1p_array: Callable[[np.ndarray], np.ndarray]
    reweight_log_weights: Callable[..., np.ndarray]
    grow_scores: Callable[..., Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _numpy_kernels(backend: str, exact: bool) -> Kernels:
    log_array = log_map_exact if exact else _log_fast
    log1p_array = log1p_map_exact if exact else _log1p_fast
    return Kernels(
        backend=backend,
        jitted=False,
        exact=exact,
        route_all=route_all_numpy,
        route_update=route_update_numpy,
        log_array=log_array,
        log1p_array=log1p_array,
        reweight_log_weights=_make_reweight_numpy(log1p_array),
        grow_scores=_make_grow_scores_numpy(log_array),
    )


def _numba_kernels(backend: str) -> Kernels:  # pragma: no cover - optional extra
    assert _NUMBA_KERNELS is not None
    return Kernels(
        backend=backend,
        jitted=True,
        exact=True,
        route_all=_NUMBA_KERNELS["route_all"],
        route_update=_NUMBA_KERNELS["route_update"],
        log_array=_NUMBA_KERNELS["log_array"],
        log1p_array=_NUMBA_KERNELS["log1p_array"],
        reweight_log_weights=_NUMBA_KERNELS["reweight_log_weights"],
        grow_scores=_NUMBA_KERNELS["grow_scores"],
    )


_KERNEL_CACHE: dict = {}


def get_kernels(backend: str, fast: bool = False) -> Kernels:
    """Resolve a ``DynamicTreeConfig.backend`` name to its kernel set.

    ``"numba"`` and ``"numba-fast"`` fall back to NumPy implementations
    (exact and fast flavours respectively) when numba is unavailable, so
    the choice is a performance knob, never an import-time requirement.

    ``fast=True`` (``DynamicTreeConfig(float_mode="fast")``) drops the
    bit-identity contract on the non-jitted kernels: the scalar ``math``
    transcendental maps are replaced with ``np.log``/``np.log1p``, which
    round ~1e-4 of inputs differently (tolerance-tested rather than
    bit-exact).  Jitted kernels already use libm at full speed, so
    ``fast`` leaves them unchanged.
    """
    key = (backend, fast)
    kernels = _KERNEL_CACHE.get(key)
    if kernels is not None:
        return kernels
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if _NUMBA_KERNELS is not None and backend != "numpy":  # pragma: no cover
        kernels = _numba_kernels(backend)
    else:
        exact = not fast and backend != "numba-fast"
        kernels = _numpy_kernels(backend, exact=exact)
    _KERNEL_CACHE[key] = kernels
    return kernels
