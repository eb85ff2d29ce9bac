"""Conjugate Gaussian leaves of the dynamic tree, as arrays.

Each leaf of a (dynamic) regression tree summarises the responses that fall
into its region with a Normal-Inverse-Gamma (NIG) posterior over the leaf
mean and variance.  The conjugacy gives three things in closed form, all of
which the dynamic tree needs at every sequential update:

* the **posterior** after absorbing any number of observations (kept as
  O(1) sufficient statistics: count, sum, sum of squares),
* the **marginal likelihood** of the observations in the leaf, which scores
  the stay/grow/prune moves, and
* the **posterior predictive** distribution (a Student-t), whose mean and
  variance are what the model reports and what the ALM/ALC acquisition
  functions consume.

The maths follows Murphy's "Conjugate Bayesian analysis of the Gaussian
distribution" notes and matches what the ``dynaTree`` R package's constant
leaves compute.  The model keeps no per-leaf objects: a leaf is one row of
:class:`LeafCacheArrays`, computed from count-indexed term tables
(:class:`LeafTermTables`, filled by scalar ``math`` evaluations of the
prior).  The per-leaf object form lives with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

__all__ = ["NIGPrior", "LeafCacheArrays", "LeafTermTables", "log1p_map_exact", "log_map_exact"]

_LOG_2PI = math.log(2.0 * math.pi)


def log_map_exact(values: np.ndarray) -> np.ndarray:
    """``math.log`` over a 1-D array, bit-identical to a scalar loop.

    IEEE basic operations (add, subtract, multiply, divide) are correctly
    rounded, so vectorizing them is exact; ``np.log``/``np.log1p`` are not
    (SIMD implementations round ~1e-4 of inputs differently from
    ``math``), and the particle moves are sampled from scores built on
    these values, hence the scalar maps.
    """
    return np.fromiter(
        map(math.log, values.tolist()), dtype=float, count=values.shape[0]
    )


def log1p_map_exact(values: np.ndarray) -> np.ndarray:
    """``math.log1p`` over a 1-D array, bit-identical to a scalar loop."""
    return np.fromiter(
        map(math.log1p, values.tolist()), dtype=float, count=values.shape[0]
    )


@dataclass(frozen=True)
class NIGPrior:
    """Normal-Inverse-Gamma prior hyper-parameters.

    ``mean`` is the prior guess of the leaf mean, ``kappa`` the strength of
    that guess in pseudo-observations, ``alpha``/``beta`` the Inverse-Gamma
    shape/scale of the noise variance.  ``alpha`` must exceed 1 for the
    predictive variance to be finite.
    """

    mean: float = 0.0
    kappa: float = 0.1
    alpha: float = 2.0
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.alpha <= 1.0:
            raise ValueError("alpha must be greater than 1 for finite predictive variance")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    @classmethod
    def from_observations(
        cls, values: Iterable[float], kappa: float = 0.1, alpha: float = 2.0
    ) -> "NIGPrior":
        """A weakly informative prior centred on observed data.

        Used by the dynamic tree when it is first seeded: the prior mean is
        the seed mean and ``beta`` is matched to the seed variance, so the
        model is scale-appropriate for runtimes regardless of whether the
        benchmark runs for milliseconds or minutes.
        """
        data = [float(v) for v in values]
        if not data:
            raise ValueError("cannot build a prior from no observations")
        mean = sum(data) / len(data)
        if len(data) > 1:
            variance = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
        else:
            variance = abs(mean) * 0.1 + 1e-6
        variance = max(variance, 1e-12)
        # E[sigma^2] = beta / (alpha - 1); match it to the observed variance.
        beta = variance * (alpha - 1.0)
        return cls(mean=mean, kappa=kappa, alpha=alpha, beta=beta)


class LeafTermTables:
    """Count-indexed arrays of the NIG terms the vectorized kernels gather.

    Of the terms of a leaf's NIG log marginal likelihood and predictive
    log-pdf, everything except the ``beta_n`` arithmetic depends only on
    the prior and the observation *count* — and the batched stay/prune/grow
    scoring evaluates them thousands of times per update at a handful of
    distinct counts.  Entry ``n`` of each table holds one such term for
    count ``n``, computed with scalar ``math`` calls and grouped as
    contiguous left-associated prefixes of the one-expression scalar
    evaluation, so every array gather ``table[counts]`` is bit-identical to
    the per-leaf path (pinned against the oracle's
    ``log_marginal_likelihood_from_stats``).  This matters because the
    particle moves are *sampled* from these scores.

    ``ensure(max_count)`` grows the tables geometrically; the model calls it
    once per update with the largest count any hypothetical leaf can reach,
    so amortised table maintenance is O(1) per update.
    """

    __slots__ = (
        "prior",
        "size",
        "kappa_n",
        "alpha_n",
        "head",
        "mid",
        "tail",
        "dof",
        "coef",
        "lgamma_part",
        "dof_pi",
    )

    def __init__(self, prior: NIGPrior) -> None:
        self.prior = prior
        self.size = 0
        self.kappa_n = np.empty(0)
        self.alpha_n = np.empty(0)
        self.head = np.empty(0)
        self.mid = np.empty(0)
        self.tail = np.empty(0)
        self.dof = np.empty(0)
        self.coef = np.empty(0)
        self.lgamma_part = np.empty(0)
        self.dof_pi = np.empty(0)

    def ensure(self, max_count: int) -> None:
        """Make every count in ``0..max_count`` gatherable."""
        if max_count < self.size:
            return
        new_size = max(2 * self.size, max_count + 1, 64)
        names = (
            "kappa_n",
            "alpha_n",
            "head",
            "mid",
            "tail",
            "dof",
            "coef",
            "lgamma_part",
            "dof_pi",
        )
        grown = {name: np.empty(new_size) for name in names}
        for name in names:
            grown[name][: self.size] = getattr(self, name)
        prior = self.prior
        for n in range(self.size, new_size):
            kappa_n = prior.kappa + n
            alpha_n = prior.alpha + n / 2.0
            dof = 2.0 * alpha_n
            grown["kappa_n"][n] = kappa_n
            grown["alpha_n"][n] = alpha_n
            grown["head"][n] = (
                math.lgamma(alpha_n)
                - math.lgamma(prior.alpha)
                + prior.alpha * math.log(prior.beta)
            )
            grown["mid"][n] = 0.5 * (math.log(prior.kappa) - math.log(kappa_n))
            grown["tail"][n] = (n / 2.0) * _LOG_2PI
            grown["dof"][n] = dof
            grown["coef"][n] = (dof + 1.0) / 2.0
            grown["lgamma_part"][n] = math.lgamma((dof + 1.0) / 2.0) - math.lgamma(
                dof / 2.0
            )
            grown["dof_pi"][n] = dof * math.pi
        for name in names:
            setattr(self, name, grown[name])
        self.size = new_size

    def lml(
        self, counts: np.ndarray, totals: np.ndarray, total_sqs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(log marginal likelihood, beta_n)`` of leaves with these statistics.

        The count-dependent terms are table gathers and ``beta_n`` is the
        scalar evaluation elementwise, grouped the same way::

            mean = total / n
            sum_sq_dev = max(total_sq - n * mean * mean, 0.0)
            beta_n = prior.beta + 0.5 * sum_sq_dev
                     + 0.5 * (prior.kappa * n * (mean - prior.mean) ** 2) / kappa_n

        Only IEEE basic operations and the scalar-rounded ``log`` map
        appear, so every element is bit-identical to the scalar path
        (``np.maximum``'s signed-zero choice cannot surface: the value is
        only ever *added*).  Every count must be covered by :meth:`ensure`.
        """
        prior = self.prior
        mean = totals / counts
        sum_sq_dev = np.maximum(total_sqs - counts * mean * mean, 0.0)
        beta_n = (prior.beta + 0.5 * sum_sq_dev) + (
            0.5 * ((prior.kappa * counts) * ((mean - prior.mean) ** 2))
        ) / self.kappa_n[counts]
        lml = (
            (self.head[counts] - self.alpha_n[counts] * log_map_exact(beta_n))
            + self.mid[counts]
        ) - self.tail[counts]
        return lml, beta_n


class LeafCacheArrays:
    """Array-backed cached statistics for a *set* of leaves.

    One row per leaf id, packed into a single ``(n_leaves, 9)`` matrix —
    the posterior-predictive mean and variance, the observation count, the
    three value-independent terms of the predictive Student-t log-pdf
    ``const - coef * log1p((v - mean)**2 / scale)``, the raw sufficient
    statistics (sum and sum of squares) and the log marginal likelihood.
    This is the leaf store behind
    :class:`~repro.models.flat_tree.FlatForest`: prediction and the ALC
    score gather ``mean``/``variance`` (column views), the batched reweight
    step reads whole rows, and the batched propagate step gathers the
    sufficient-statistics and LML columns instead of calling per-leaf
    Python methods.  The single backing matrix is deliberate: resample row
    gathers, forest splices and stay-move row writes each touch one array
    instead of nine, which is what keeps those paths off the per-particle
    numpy-dispatch floor at paper-scale particle counts.

    The model computes rows from count tables with the scalar-rounded
    :func:`log_map_exact`, bit-identical to the per-leaf scalar evaluation
    of the test oracle: the particle moves are sampled from scores built
    on these values, so a single mismatched bit would silently fork seeded
    trajectories.
    """

    __slots__ = ("data",)

    #: Column layout of :attr:`data`.
    (
        MEAN,
        VARIANCE,
        COUNT,
        LOGPDF_SCALE,
        LOGPDF_COEF,
        LOGPDF_CONST,
        SUM,
        SUM_SQ,
        LML,
    ) = range(9)

    #: Row width; every cache-matrix allocation sizes against this.
    N_COLUMNS = 9

    def __init__(self, data: np.ndarray) -> None:
        self.data = data

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def mean(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.MEAN]

    @property
    def variance(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.VARIANCE]

    @property
    def count(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.COUNT]

    def predictive_logpdf(self, leaf_ids: np.ndarray, y: float) -> np.ndarray:
        """Student-t log-pdf of ``y`` under each of the leaves ``leaf_ids``.

        The fused gather-and-log-pdf pass of the batched reweight; the
        arithmetic mirrors the oracle leaf's ``predictive_logpdf`` exactly
        (basic operations and the scalar-rounded ``log1p`` map).
        """
        rows = self.data[leaf_ids]
        z_sq = (y - rows[:, self.MEAN]) ** 2 / rows[:, self.LOGPDF_SCALE]
        return rows[:, self.LOGPDF_CONST] - rows[:, self.LOGPDF_COEF] * log1p_map_exact(z_sq)
