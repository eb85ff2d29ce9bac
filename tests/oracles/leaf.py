"""Per-leaf scalar reference of the dynamic tree's Gaussian leaves.

:class:`GaussianLeafModel` is one leaf as an object: sufficient statistics
plus memoized scalar ``math`` evaluations of the NIG posterior, the
predictive Student-t and the log marginal likelihood.  The model itself
keeps leaves only as rows of :class:`~repro.models.leaf.LeafCacheArrays`
computed from count tables; the reference dynamic tree and the
equivalence tests use the objects to check those rows bit for bit
(:func:`cache_arrays` / :func:`patch_row` fill rows the per-leaf way).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.models.leaf import LeafCacheArrays, NIGPrior

__all__ = [
    "GaussianLeafModel",
    "cache_arrays",
    "log_marginal_likelihood_from_stats",
    "patch_row",
]

_LOG_2PI = math.log(2.0 * math.pi)


class GaussianLeafModel:
    """Sufficient statistics and posterior quantities of one leaf.

    The posterior parameters and the log marginal likelihood are memoized:
    the reference tree asks for them many times between updates (every
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

        Used by the reference grow proposal, which sums each side of a
        split with array reductions, and by the rebuild of a model's
        particles from its snapshot statistics.
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
        """``(count, sum, sum of squares)`` — the leaf's full mutable state,
        and all the model's cache row keeps of a leaf besides derived terms.
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
        dof = 2.0 * alpha_n
        coef = (dof + 1.0) / 2.0
        scale_sq = beta_n * (kappa_n + 1.0) / (alpha_n * kappa_n)
        const = (math.lgamma(coef) - math.lgamma(dof / 2.0)) - 0.5 * math.log(
            dof * math.pi * scale_sq
        )
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




def log_marginal_likelihood_from_stats(
    prior: NIGPrior, count: float, total: float, total_sq: float
) -> float:
    """Log marginal likelihood of a leaf summarised by ``(count, sum, sum_sq)``.

    Scalar twin of :meth:`GaussianLeafModel.log_marginal_likelihood` used by
    the reference grow proposal: it reduces each side of a candidate split
    to sufficient statistics with array ops and scores it here without
    materialising leaf objects.
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


def cache_arrays(leaves: Sequence[GaussianLeafModel]) -> LeafCacheArrays:
    """One cache row per leaf, each filled by :func:`patch_row`."""
    arrays = LeafCacheArrays(np.empty((len(leaves), LeafCacheArrays.N_COLUMNS)))
    for slot, leaf in enumerate(leaves):
        patch_row(arrays, slot, leaf)
    return arrays


def patch_row(arrays: LeafCacheArrays, slot: int, leaf: GaussianLeafModel) -> Tuple[float, ...]:
    """Fill row ``slot`` from the leaf's memoized scalar methods; returns the row."""
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
    arrays.data[slot] = row
    return row
