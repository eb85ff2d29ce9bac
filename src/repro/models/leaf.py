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
(:class:`LeafTermTables`, filled from the scalar :class:`LMLCache`).  The
per-leaf object form lives with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Tuple

import numpy as np

__all__ = ["NIGPrior", "LeafCacheArrays", "LeafTermTables", "LMLCache"]

_LOG_2PI = math.log(2.0 * math.pi)


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
    #: Memoized count-only pieces of the predictive-log-pdf terms
    #: (``dof``, ``coef``, ``lgamma(coef) - lgamma(dof/2)``) keyed by
    #: observation count — they depend only on ``alpha`` and the count, and
    #: every leaf sharing this prior reuses them.  Excluded from equality
    #: and repr; mutating the dict does not violate the frozen contract.
    _logpdf_count_terms: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.alpha <= 1.0:
            raise ValueError("alpha must be greater than 1 for finite predictive variance")
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def __reduce__(self):
        # The count-term memo is rebuilt on demand; it grows with the
        # training size, so checkpoints leave it out.
        return (NIGPrior, (self.mean, self.kappa, self.alpha, self.beta))

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


def _predictive_count_terms(prior: NIGPrior, count: int) -> Tuple[float, float, float]:
    """``(dof, coef, lgamma(coef) - lgamma(dof / 2))`` of the predictive log-pdf.

    These depend only on the prior's ``alpha`` and the observation count, so
    they are memoized on the prior (see ``NIGPrior._logpdf_count_terms``) and
    shared by the vectorized term tables (:class:`LeafTermTables`).
    ``alpha_n`` is grouped as the scalar posterior groups it, so the cached
    values are bit-identical to the inline computation.
    """
    count_terms = prior._logpdf_count_terms.get(count)
    if count_terms is None:
        alpha_n = prior.alpha if count == 0 else prior.alpha + count / 2.0
        dof = 2.0 * alpha_n
        coef = (dof + 1.0) / 2.0
        count_terms = (
            dof,
            coef,
            math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0),
        )
        prior._logpdf_count_terms[count] = count_terms
    return count_terms


class LMLCache:
    """Memoized log-marginal-likelihood evaluation for one prior.

    Of the terms of a leaf's NIG log marginal likelihood, everything
    except ``alpha_n * log(beta_n)`` depends only on the observation *count*
    — and the dynamic tree evaluates the marginal likelihood thousands of
    times per update (two per candidate split, one per stay score) at a
    handful of distinct counts.  This cache stores the count-only terms
    (including both ``lgamma`` calls, the dominant cost) keyed by count, so
    a cached evaluation reduces to the ``beta_n`` arithmetic plus one
    ``math.log``.

    Bit-compatibility: the cached terms are contiguous left-associated
    prefixes of the original expression, computed with the same scalar
    ``math`` calls, so :meth:`log_marginal_likelihood` returns bit-identical
    values to the one-expression evaluation (pinned against the oracle's
    ``log_marginal_likelihood_from_stats``).  This matters because the
    particle moves are *sampled* from these scores.
    """

    __slots__ = ("prior", "_terms_by_count")

    def __init__(self, prior: NIGPrior) -> None:
        self.prior = prior
        self._terms_by_count: dict = {}

    def __reduce__(self):
        # Like the prior's memo: recomputed on demand, not checkpointed.
        return (LMLCache, (self.prior,))

    def _terms(self, n: int) -> Tuple[float, float, float, float, float]:
        terms = self._terms_by_count.get(n)
        if terms is None:
            prior = self.prior
            kappa_n = prior.kappa + n
            alpha_n = prior.alpha + n / 2.0
            head = (
                math.lgamma(alpha_n)
                - math.lgamma(prior.alpha)
                + prior.alpha * math.log(prior.beta)
            )
            mid = 0.5 * (math.log(prior.kappa) - math.log(kappa_n))
            tail = (n / 2.0) * _LOG_2PI
            terms = (kappa_n, alpha_n, head, mid, tail)
            self._terms_by_count[n] = terms
        return terms

    def log_marginal_likelihood(self, count: int, total: float, total_sq: float) -> float:
        """Log marginal likelihood of a leaf holding ``(count, sum, sum_sq)``."""
        n = int(count)
        if n == 0:
            return 0.0
        prior = self.prior
        kappa_n, alpha_n, head, mid, tail = self._terms(n)
        mean = total / n
        sum_sq_dev = max(total_sq - n * mean * mean, 0.0)
        beta_n = (
            prior.beta
            + 0.5 * sum_sq_dev
            + 0.5 * (prior.kappa * n * (mean - prior.mean) ** 2) / kappa_n
        )
        return ((head - alpha_n * math.log(beta_n)) + mid) - tail


class LeafTermTables:
    """Count-indexed arrays of the NIG terms the vectorized kernels gather.

    The batched stay/prune/grow scoring replaces thousands of scalar
    :class:`LMLCache` / :func:`_predictive_count_terms` lookups per update
    with array gathers ``table[counts]``.  Each table entry ``n`` holds the
    exact values the scalar caches produce for count ``n`` — the entries are
    *filled from* those caches, so every gathered term is bit-identical to
    the per-leaf path by construction.

    ``ensure(max_count)`` grows the tables geometrically; the model calls it
    once per update with the largest count any hypothetical leaf can reach,
    so amortised table maintenance is O(1) per update.
    """

    __slots__ = (
        "lml",
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

    def __init__(self, lml: "LMLCache") -> None:
        self.lml = lml
        self.prior = lml.prior
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
            kappa_n, alpha_n, head, mid, tail = self.lml._terms(n)
            dof, coef, lgamma_part = _predictive_count_terms(prior, n)
            grown["kappa_n"][n] = kappa_n
            grown["alpha_n"][n] = alpha_n
            grown["head"][n] = head
            grown["mid"][n] = mid
            grown["tail"][n] = tail
            grown["dof"][n] = dof
            grown["coef"][n] = coef
            grown["lgamma_part"][n] = lgamma_part
            grown["dof_pi"][n] = dof * math.pi
        for name in names:
            setattr(self, name, grown[name])
        self.size = new_size


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

    The model computes rows from count tables with the float mode's
    ``log`` map; in exact mode that is bit-identical to the per-leaf scalar
    evaluation of the test oracle.  ``np.log``/``np.log1p`` are *not*
    bit-identical to their
    ``math`` counterparts (SIMD implementations round differently on ~1e-4
    of inputs), and the particle moves are sampled from scores built on
    these values, so a single mismatched bit would silently fork seeded
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
