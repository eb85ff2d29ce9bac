"""Common interface of the surrogate (regression) models.

The active learner is written against this interface so the dynamic tree
(the model the paper uses), the Gaussian process (the model the paper
rejects on cost grounds) and the simple baselines are interchangeable.

A surrogate model maps normalised feature vectors to a predictive mean and
variance.  Models that can quantify the *global* effect of adding a new
training point (needed for the ALC/Cohn acquisition) additionally implement
:meth:`SurrogateModel.expected_average_variance`.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = ["Prediction", "SurrogateModel", "squared_distances"]


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``(len(A), len(B))`` squared euclidean distances between the rows.

    One pass per dimension, ``acc += d * d``: the accumulation order of
    ``scipy.spatial.distance.cdist(A, B, "sqeuclidean")``, whose values it
    reproduces bit for bit (a broadcast ``.sum(-1)`` adds pairwise and
    does not), without importing ``scipy.spatial``.
    """
    acc = np.zeros((A.shape[0], B.shape[0]))
    for dim in range(A.shape[1]):
        d = A[:, dim, None] - B[None, :, dim]
        acc += d * d
    return acc


@dataclass(frozen=True)
class Prediction:
    """Predictive mean and variance for a batch of inputs."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        variance = np.asarray(self.variance, dtype=float)
        if mean.shape != variance.shape:
            raise ValueError("mean and variance must have the same shape")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)


class SurrogateModel(ABC):
    """Sequentially updatable regression model with predictive uncertainty."""

    @abstractmethod
    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        """(Re)train the model from scratch on the given data."""

    @abstractmethod
    def update(self, features: np.ndarray, target: float) -> None:
        """Incorporate a single new observation.

        ``features`` is a 1-D vector; ``target`` the (possibly noisy)
        measured runtime.  Sequential updates are the reason the paper uses
        dynamic trees: the model must absorb one observation at a time
        without a full rebuild.
        """

    @abstractmethod
    def predict(self, features: np.ndarray) -> Prediction:
        """Predictive mean and variance for a batch of feature vectors."""

    @property
    @abstractmethod
    def training_size(self) -> int:
        """Number of observations the model has absorbed so far."""

    # ------------------------------------------------------------------ ALC

    def expected_average_variance(
        self, candidates: np.ndarray, reference_rows: np.ndarray
    ) -> np.ndarray:
        """Predicted average variance over the reference rows after observing each candidate.

        This is the quantity Algorithm 1 of the paper minimises
        (``predictAvgModelVariance``): for every candidate ``c`` it returns
        an estimate of the average predictive variance across the reference
        set that would remain if one additional observation were taken at
        ``c``.  Equivalently, minimising it maximises the ALC (Cohn) score.

        The reference set is ``candidates[reference_rows]``: Algorithm 1
        draws it from the candidate batch, so it is passed as row indices
        into ``candidates`` and a model that routes the candidates (the
        dynamic tree) reuses their routes instead of routing the
        references again.

        The default implementation ignores the candidate's global effect and
        simply discounts the candidate's own variance, which reduces the
        acquisition to ALM-like behaviour; models with a proper closed form
        (the dynamic tree, the GP) override it.
        """
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        reference_pred = self.predict(C[reference_rows])
        base = float(np.mean(reference_pred.variance))
        candidate_pred = self.predict(C)
        # Higher own-variance candidates are assumed to remove more variance.
        reduction = candidate_pred.variance / (len(reference_rows) + 1.0)
        return np.maximum(base - reduction, 0.0)

    def fantasy_copy(self) -> "SurrogateModel":
        """A throwaway copy safe to ``update`` with believed observations.

        Batch acquisition strategies (kriging believer) update a copy of
        the model with fantasized measurements and must not leak those
        into the real model.  The default is a full deep copy; a model
        that can copy less (the dynamic tree copies only its arrays and
        shares its pure caches) overrides it.
        """
        return copy.deepcopy(self)
