"""Tests for the conjugate Gaussian leaf model of the dynamic tree.

The prior is production code; the per-leaf object is the scalar reference
(``tests/oracles/leaf.py``) the model's leaf-cache rows are checked
against.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.leaf import NIGPrior
from tests.oracles.leaf import GaussianLeafModel


class TestNIGPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            NIGPrior(kappa=0.0)
        with pytest.raises(ValueError):
            NIGPrior(alpha=1.0)
        with pytest.raises(ValueError):
            NIGPrior(beta=0.0)

    def test_from_observations_matches_scale(self):
        values = [10.0, 12.0, 11.0, 9.0]
        prior = NIGPrior.from_observations(values, alpha=2.0)
        assert prior.mean == pytest.approx(10.5)
        # E[sigma^2] = beta / (alpha - 1) equals the sample variance.
        assert prior.beta / (prior.alpha - 1.0) == pytest.approx(np.var(values, ddof=1))

    def test_from_single_observation(self):
        prior = NIGPrior.from_observations([5.0])
        assert prior.mean == 5.0
        assert prior.beta > 0

    def test_from_empty_raises(self):
        with pytest.raises(ValueError):
            NIGPrior.from_observations([])


class TestGaussianLeafModel:
    @pytest.fixture
    def prior(self):
        return NIGPrior(mean=1.0, kappa=0.1, alpha=3.0, beta=0.5)

    def test_empty_leaf_predicts_prior(self, prior):
        leaf = GaussianLeafModel(prior)
        assert leaf.count == 0
        assert leaf.predictive_mean() == prior.mean
        assert leaf.log_marginal_likelihood() == 0.0

    def test_posterior_mean_shrinks_towards_data(self, prior):
        leaf = GaussianLeafModel.from_values(prior, [5.0] * 50)
        assert leaf.predictive_mean() == pytest.approx(5.0, rel=0.01)

    def test_predictive_variance_decreases_with_data(self, prior, rng):
        values = rng.normal(2.0, 0.1, size=100)
        few = GaussianLeafModel.from_values(prior, values[:3])
        many = GaussianLeafModel.from_values(prior, values)
        assert many.predictive_variance() < few.predictive_variance()

    def test_add_and_remove_are_inverse(self, prior):
        leaf = GaussianLeafModel.from_values(prior, [1.0, 2.0, 3.0])
        before = leaf.posterior()
        leaf.add(9.0)
        leaf.remove(9.0)
        after = leaf.posterior()
        assert before == pytest.approx(after)

    def test_remove_from_empty_raises(self, prior):
        with pytest.raises(ValueError):
            GaussianLeafModel(prior).remove(1.0)

    def test_merge_equals_joint_fit(self, prior):
        a = GaussianLeafModel.from_values(prior, [1.0, 2.0])
        b = GaussianLeafModel.from_values(prior, [3.0, 4.0])
        merged = a.merge(b)
        joint = GaussianLeafModel.from_values(prior, [1.0, 2.0, 3.0, 4.0])
        assert merged.posterior() == pytest.approx(joint.posterior())
        assert merged.log_marginal_likelihood() == pytest.approx(
            joint.log_marginal_likelihood()
        )

    def test_copy_is_independent(self, prior):
        leaf = GaussianLeafModel.from_values(prior, [1.0])
        clone = leaf.copy()
        clone.add(100.0)
        assert leaf.count == 1
        assert clone.count == 2

    def test_predictive_logpdf_is_a_density(self, prior):
        """The predictive log-density integrates to ~1 over a wide grid."""
        leaf = GaussianLeafModel.from_values(prior, [2.0, 2.1, 1.9, 2.05])
        grid = np.linspace(-20, 24, 20001)
        densities = np.exp([leaf.predictive_logpdf(v) for v in grid])
        integral = np.trapezoid(densities, grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_logpdf_peaks_at_posterior_mean(self, prior):
        leaf = GaussianLeafModel.from_values(prior, [2.0, 2.2, 1.8])
        at_mean = leaf.predictive_logpdf(leaf.predictive_mean())
        away = leaf.predictive_logpdf(leaf.predictive_mean() + 5.0)
        assert at_mean > away

    def test_marginal_likelihood_prefers_consistent_data(self, prior):
        tight = GaussianLeafModel.from_values(prior, [1.0, 1.01, 0.99, 1.0])
        loose = GaussianLeafModel.from_values(prior, [1.0, 4.0, -2.0, 7.0])
        assert tight.log_marginal_likelihood() > loose.log_marginal_likelihood()

    def test_splitting_separated_clusters_improves_marginal(self, prior):
        """The grow move's scoring foundation: separating two clusters wins."""
        cluster_a = [1.0, 1.05, 0.95, 1.02]
        cluster_b = [5.0, 5.05, 4.95, 5.02]
        joint = GaussianLeafModel.from_values(prior, cluster_a + cluster_b)
        split_a = GaussianLeafModel.from_values(prior, cluster_a)
        split_b = GaussianLeafModel.from_values(prior, cluster_b)
        assert (
            split_a.log_marginal_likelihood() + split_b.log_marginal_likelihood()
            > joint.log_marginal_likelihood()
        )


# --------------------------------------------------------------------------
# Property-based tests
# --------------------------------------------------------------------------

values_strategy = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


@given(values_strategy)
@settings(max_examples=60, deadline=None)
def test_posterior_mean_between_prior_and_data_property(values):
    prior = NIGPrior(mean=0.0, kappa=1.0, alpha=2.5, beta=1.0)
    leaf = GaussianLeafModel.from_values(prior, values)
    sample_mean = sum(values) / len(values)
    low, high = sorted([prior.mean, sample_mean])
    assert low - 1e-9 <= leaf.predictive_mean() <= high + 1e-9


@given(values_strategy)
@settings(max_examples=60, deadline=None)
def test_predictive_variance_positive_property(values):
    prior = NIGPrior(mean=0.0, kappa=0.5, alpha=2.5, beta=1.0)
    leaf = GaussianLeafModel.from_values(prior, values)
    assert leaf.predictive_variance() > 0
    assert math.isfinite(leaf.log_marginal_likelihood())


@given(values_strategy, st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_incremental_add_matches_batch_property(values, extra):
    prior = NIGPrior(mean=1.0, kappa=0.2, alpha=3.0, beta=0.7)
    incremental = GaussianLeafModel.from_values(prior, values)
    incremental.add(extra)
    batch = GaussianLeafModel.from_values(prior, values + [extra])
    assert incremental.posterior() == pytest.approx(batch.posterior())
