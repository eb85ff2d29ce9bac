"""Simple baseline surrogate models.

These are not part of the paper's method; they exist to sanity-check the
learning pipeline (a model that cannot learn anything should lose to the
dynamic tree) and to provide cheap stand-ins in tests.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import Prediction, SurrogateModel, squared_distances

__all__ = ["ConstantMeanModel", "KNNRegressor"]


class ConstantMeanModel(SurrogateModel):
    """Predicts the global mean of everything seen so far.

    The predictive variance is the global sample variance, so the model is
    maximally uncertain everywhere in the same way — active learning gains
    nothing from it, which makes it a useful control.
    """

    def __init__(self) -> None:
        self._values: List[float] = []

    @property
    def training_size(self) -> int:
        return len(self._values)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        y = np.asarray(targets, dtype=float).ravel()
        if y.size == 0:
            raise ValueError("fit() needs at least one observation")
        self._values = [float(v) for v in y]

    def update(self, features: np.ndarray, target: float) -> None:
        self._values.append(float(target))

    def predict(self, features: np.ndarray) -> Prediction:
        if not self._values:
            raise RuntimeError("the model has no training data yet")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        values = np.asarray(self._values)
        mean = float(values.mean())
        variance = float(values.var(ddof=1)) if values.size > 1 else 1.0
        return Prediction(
            mean=np.full(X.shape[0], mean), variance=np.full(X.shape[0], max(variance, 1e-18))
        )


class KNNRegressor(SurrogateModel):
    """k-nearest-neighbour regression with neighbourhood variance.

    Prediction is the mean of the ``k`` nearest training targets; the
    variance is the neighbourhood sample variance plus a distance-dependent
    term so that far-away queries are reported as uncertain.
    """

    def __init__(self, k: int = 5, distance_weight: float = 1.0) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self._k = k
        self._distance_weight = distance_weight
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    @property
    def training_size(self) -> int:
        return 0 if self._y is None else int(self._y.shape[0])

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        X = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("features and targets disagree on the number of rows")
        if X.shape[0] == 0:
            raise ValueError("fit() needs at least one observation")
        self._X = X.copy()
        self._y = y.copy()

    def update(self, features: np.ndarray, target: float) -> None:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if self._X is None or self._y is None:
            self._X = x.copy()
            self._y = np.array([float(target)])
        else:
            self._X = np.vstack([self._X, x])
            self._y = np.append(self._y, float(target))

    def predict(self, features: np.ndarray) -> Prediction:
        if self._X is None or self._y is None:
            raise RuntimeError("the model has no training data yet")
        Xs = np.atleast_2d(np.asarray(features, dtype=float))
        distances = np.sqrt(squared_distances(Xs, self._X))
        k = min(self._k, self._X.shape[0])
        order = np.argsort(distances, axis=1)[:, :k]
        neighbour_targets = self._y[order]
        mean = neighbour_targets.mean(axis=1)
        if k > 1:
            variance = neighbour_targets.var(axis=1, ddof=1)
        else:
            variance = np.zeros(Xs.shape[0])
        nearest = np.take_along_axis(distances, order[:, :1], axis=1).ravel()
        variance = variance + self._distance_weight * nearest ** 2 + 1e-18
        return Prediction(mean=mean, variance=variance)
