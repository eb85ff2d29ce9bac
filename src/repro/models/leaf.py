"""Conjugate Gaussian leaf model for the dynamic tree.

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
leaves compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "NIGPrior",
    "GaussianLeafModel",
    "LeafCacheArrays",
    "LeafTermTables",
    "LMLCache",
    "log_marginal_likelihood_from_stats",
]

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


class GaussianLeafModel:
    """Sufficient statistics and posterior quantities of one leaf.

    The posterior parameters and the log marginal likelihood are memoized:
    the dynamic tree asks for them many times between updates (every
    prediction, every ALC score, every stay/grow/prune proposal touching the
    leaf), while the sufficient statistics only change on ``add``/``remove``.
    """

    __slots__ = (
        "prior",
        "_count",
        "_sum",
        "_sum_sq",
        "_posterior_cache",
        "_lml_cache",
        "_logpdf_terms_cache",
    )

    def __init__(self, prior: NIGPrior) -> None:
        self.prior = prior
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._posterior_cache: Optional[Tuple[float, float, float, float]] = None
        self._lml_cache: Optional[float] = None
        self._logpdf_terms_cache: Optional[Tuple[float, float, float, float]] = None

    # ------------------------------------------------------------- updates

    def _invalidate(self) -> None:
        self._posterior_cache = None
        self._lml_cache = None
        self._logpdf_terms_cache = None

    def copy(self) -> "GaussianLeafModel":
        clone = GaussianLeafModel(self.prior)
        clone._count = self._count
        clone._sum = self._sum
        clone._sum_sq = self._sum_sq
        clone._posterior_cache = self._posterior_cache
        clone._lml_cache = self._lml_cache
        clone._logpdf_terms_cache = self._logpdf_terms_cache
        return clone

    def __reduce__(self):
        # The memo caches are pure functions of the prior and the
        # statistics, so a checkpoint carries only those and the caches
        # are recomputed (bit-identically) on demand after load.
        return (_restore_leaf, (self.prior, self._count, self._sum, self._sum_sq))

    def add(self, value: float) -> None:
        """Absorb one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        self._sum_sq += value * value
        self._invalidate()

    def remove(self, value: float) -> None:
        """Remove one previously absorbed observation (used by prune proposals)."""
        if self._count <= 0:
            raise ValueError("cannot remove from an empty leaf")
        value = float(value)
        self._count -= 1
        self._sum -= value
        self._sum_sq -= value * value
        self._invalidate()

    def merge(self, other: "GaussianLeafModel") -> "GaussianLeafModel":
        """A new leaf model containing this leaf's and ``other``'s observations."""
        merged = self.copy()
        merged._count += other._count
        merged._sum += other._sum
        merged._sum_sq += other._sum_sq
        merged._invalidate()
        return merged

    @classmethod
    def from_values(cls, prior: NIGPrior, values: Iterable[float]) -> "GaussianLeafModel":
        leaf = cls(prior)
        for value in values:
            leaf.add(value)
        return leaf

    @classmethod
    def from_sufficient_stats(
        cls, prior: NIGPrior, count: int, total: float, total_sq: float
    ) -> "GaussianLeafModel":
        """Build a leaf directly from ``(count, sum, sum of squares)``.

        Used by the vectorized grow-proposal scan, which computes partition
        sufficient statistics with array reductions rather than feeding
        values through :meth:`add` one at a time.
        """
        if count < 0:
            raise ValueError("count cannot be negative")
        leaf = cls(prior)
        leaf._count = int(count)
        leaf._sum = float(total)
        leaf._sum_sq = float(total_sq)
        return leaf

    # ---------------------------------------------------------- posteriors

    @property
    def count(self) -> int:
        return self._count

    @property
    def sample_mean(self) -> float:
        if self._count == 0:
            return self.prior.mean
        return self._sum / self._count

    def sufficient_stats(self) -> Tuple[int, float, float]:
        """``(count, sum, sum of squares)`` — the leaf's full mutable state.

        The batched update path scores hypothetical leaves (stay adds the
        new observation, prune merges the sibling) by arithmetic on these
        statistics instead of mutating throwaway leaf copies.
        """
        return self._count, self._sum, self._sum_sq

    def posterior(self) -> Tuple[float, float, float, float]:
        """Posterior NIG parameters ``(mean, kappa, alpha, beta)`` (memoized)."""
        if self._posterior_cache is not None:
            return self._posterior_cache
        prior = self.prior
        n = self._count
        if n == 0:
            result = (prior.mean, prior.kappa, prior.alpha, prior.beta)
        else:
            mean = self._sum / n
            kappa_n = prior.kappa + n
            mean_n = (prior.kappa * prior.mean + self._sum) / kappa_n
            alpha_n = prior.alpha + n / 2.0
            sum_sq_dev = max(self._sum_sq - n * mean * mean, 0.0)
            beta_n = (
                prior.beta
                + 0.5 * sum_sq_dev
                + 0.5 * (prior.kappa * n * (mean - prior.mean) ** 2) / kappa_n
            )
            result = (mean_n, kappa_n, alpha_n, beta_n)
        self._posterior_cache = result
        return result

    def predictive_mean(self) -> float:
        """Mean of the posterior predictive distribution."""
        mean_n, _, _, _ = self.posterior()
        return mean_n

    def predictive_variance(self) -> float:
        """Variance of the posterior predictive Student-t distribution."""
        _, kappa_n, alpha_n, beta_n = self.posterior()
        scale_sq = beta_n * (kappa_n + 1.0) / (alpha_n * kappa_n)
        dof = 2.0 * alpha_n
        if dof <= 2.0:
            # Infinite-variance regime; report the scale as a conservative proxy.
            return scale_sq * 10.0
        return scale_sq * dof / (dof - 2.0)

    def predictive_logpdf_terms(self) -> Tuple[float, float, float, float]:
        """``(mean, dof * scale_sq, coefficient, constant)`` of the predictive log-pdf.

        The Student-t log density at ``v`` decomposes into a value-independent
        part and a single ``log1p`` term::

            logpdf(v) = const - coef * log1p((v - mean)**2 / dof_scale)

        The four terms only change when the sufficient statistics do, so the
        batched reweight step caches them in flat arrays (one entry per leaf)
        and evaluates the whole particle set with one gather plus a scalar
        ``math.log1p`` per particle.  The grouping of every operation here
        mirrors the original single-expression implementation exactly, so the
        decomposed evaluation is bit-identical to it.
        """
        if self._logpdf_terms_cache is not None:
            return self._logpdf_terms_cache
        mean_n, kappa_n, alpha_n, beta_n = self.posterior()
        dof, coef, lgamma_part = _predictive_count_terms(self.prior, self._count)
        scale_sq = beta_n * (kappa_n + 1.0) / (alpha_n * kappa_n)
        const = lgamma_part - 0.5 * math.log(dof * math.pi * scale_sq)
        result = (mean_n, dof * scale_sq, coef, const)
        self._logpdf_terms_cache = result
        return result

    def predictive_logpdf(self, value: float) -> float:
        """Log density of ``value`` under the posterior predictive Student-t."""
        mean_n, dof_scale, coef, const = self.predictive_logpdf_terms()
        z_sq = (float(value) - mean_n) ** 2 / dof_scale
        return const - coef * math.log1p(z_sq)

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of all observations currently in the leaf.

        This is the quantity the stay/grow/prune scores compare: it rewards
        partitions whose leaves are internally consistent and penalises
        fragmentation through the prior terms.
        """
        if self._lml_cache is not None:
            return self._lml_cache
        n = self._count
        if n == 0:
            result = 0.0
        else:
            prior = self.prior
            _, kappa_n, alpha_n, beta_n = self.posterior()
            result = (
                math.lgamma(alpha_n)
                - math.lgamma(prior.alpha)
                + prior.alpha * math.log(prior.beta)
                - alpha_n * math.log(beta_n)
                + 0.5 * (math.log(prior.kappa) - math.log(kappa_n))
                - (n / 2.0) * _LOG_2PI
            )
        self._lml_cache = result
        return result


def _restore_leaf(
    prior: NIGPrior, count: int, total: float, total_sq: float
) -> GaussianLeafModel:
    """Unpickle a :class:`GaussianLeafModel` from its sufficient statistics."""
    return GaussianLeafModel.from_sufficient_stats(prior, count, total, total_sq)


def _predictive_count_terms(prior: NIGPrior, count: int) -> Tuple[float, float, float]:
    """``(dof, coef, lgamma(coef) - lgamma(dof / 2))`` of the predictive log-pdf.

    These depend only on the prior's ``alpha`` and the observation count, so
    they are memoized on the prior (see ``NIGPrior._logpdf_count_terms``) and
    shared by every leaf and by the vectorized term tables
    (:class:`LeafTermTables`).  ``alpha_n`` is recomputed here exactly as
    :meth:`GaussianLeafModel.posterior` groups it, keeping the cached values
    bit-identical to the inline computation they replaced.
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


def log_marginal_likelihood_from_stats(
    prior: NIGPrior, count: float, total: float, total_sq: float
) -> float:
    """Log marginal likelihood of a leaf summarised by ``(count, sum, sum_sq)``.

    Scalar twin of :meth:`GaussianLeafModel.log_marginal_likelihood` used by
    the vectorized grow-proposal scan: the partition scan reduces each side
    of a candidate split to sufficient statistics with array ops and scores
    it here without materialising leaf objects.
    """
    n = count
    if n == 0:
        return 0.0
    mean = total / n
    kappa_n = prior.kappa + n
    mean_n = (prior.kappa * prior.mean + total) / kappa_n
    alpha_n = prior.alpha + n / 2.0
    sum_sq_dev = max(total_sq - n * mean * mean, 0.0)
    beta_n = (
        prior.beta
        + 0.5 * sum_sq_dev
        + 0.5 * (prior.kappa * n * (mean - prior.mean) ** 2) / kappa_n
    )
    return (
        math.lgamma(alpha_n)
        - math.lgamma(prior.alpha)
        + prior.alpha * math.log(prior.beta)
        - alpha_n * math.log(beta_n)
        + 0.5 * (math.log(prior.kappa) - math.log(kappa_n))
        - (n / 2.0) * _LOG_2PI
    )


class LMLCache:
    """Memoized log-marginal-likelihood evaluation for one prior.

    Of the terms in :func:`log_marginal_likelihood_from_stats`, everything
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
    values to :func:`log_marginal_likelihood_from_stats` (and to
    :meth:`GaussianLeafModel.log_marginal_likelihood` on equal statistics).
    This matters because the particle moves are *sampled* from these scores.
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
        """Bit-identical twin of :func:`log_marginal_likelihood_from_stats`."""
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
    three value-independent terms of the predictive log-pdf (see
    :meth:`GaussianLeafModel.predictive_logpdf_terms`), the raw sufficient
    statistics (sum and sum of squares) and the memoized log marginal
    likelihood.  This is the leaf store behind
    :class:`~repro.models.flat_tree.FlatTree` /
    :class:`~repro.models.flat_tree.FlatForest`: prediction and the ALC
    score gather ``mean``/``variance`` (column views), the batched reweight
    step reads whole rows, and the batched propagate step gathers the
    sufficient-statistics and LML columns instead of calling per-leaf
    Python methods.  The single backing matrix is deliberate: resample row
    gathers, forest splices and stay-move row writes each touch one array
    instead of nine, which is what keeps those paths off the per-particle
    numpy-dispatch floor at paper-scale particle counts.

    :meth:`patch` fills a row from a leaf model's memoized scalar methods
    (``math`` transcendentals, as :meth:`FlatTree.compile` needs); the
    batched update computes its rows with the same grouping from count
    tables and the backend's ``log`` map, which is bit-identical in exact
    mode.  ``np.log``/``np.log1p`` are *not* bit-identical to their
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

    @property
    def logpdf_scale(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.LOGPDF_SCALE]

    @property
    def logpdf_coef(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.LOGPDF_COEF]

    @property
    def logpdf_const(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.LOGPDF_CONST]

    @property
    def leaf_sum(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.SUM]

    @property
    def leaf_sum_sq(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.SUM_SQ]

    @property
    def leaf_lml(self) -> np.ndarray:
        return self.data[:, LeafCacheArrays.LML]

    @classmethod
    def from_leaves(cls, leaves: Sequence[GaussianLeafModel]) -> "LeafCacheArrays":
        arrays = cls(np.empty((len(leaves), cls.N_COLUMNS)))
        for slot, leaf in enumerate(leaves):
            arrays.patch(slot, leaf)
        return arrays

    def copy(self) -> "LeafCacheArrays":
        return LeafCacheArrays(self.data.copy())

    def logpdf_row(self, slot: int) -> Tuple[float, float, float, float]:
        """``(mean, dof_scale, coef, const)`` of one leaf, as Python floats."""
        row = self.data[slot].tolist()
        return row[0], row[3], row[4], row[5]

    def patch(self, slot: int, leaf: GaussianLeafModel) -> Tuple[float, ...]:
        """Refresh one row from a leaf model's (memoized) posterior.

        Returns the written row as a tuple.
        """
        mean, dof_scale, coef, const = leaf.predictive_logpdf_terms()
        count, total, total_sq = leaf.sufficient_stats()
        row = (
            mean,
            leaf.predictive_variance(),
            float(count),
            dof_scale,
            coef,
            const,
            total,
            total_sq,
            leaf.log_marginal_likelihood(),
        )
        self.data[slot] = row
        return row
