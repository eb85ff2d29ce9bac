"""Surrogate regression models: dynamic trees, Gaussian processes, baselines.

Besides the classes themselves the package exposes a name-based factory
(:func:`make_model`) so an experiment axis can be a list of model names —
the registry-driven ablation specs compare ``"dynamic-tree"`` against
``"gp"``/``"knn"``/``"constant-mean"`` by handing these names to the
sharded experiment runner as ordinary work-unit parameters.
"""

from typing import Callable, List, Optional

import numpy as np

from .base import Prediction, SurrogateModel
from .baselines import ConstantMeanModel, KNNRegressor
from .dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from .gp import GaussianProcessRegressor
from .leaf import NIGPrior

__all__ = [
    "Prediction",
    "SurrogateModel",
    "ConstantMeanModel",
    "KNNRegressor",
    "DynamicTreeConfig",
    "DynamicTreeRegressor",
    "GaussianProcessRegressor",
    "NIGPrior",
    "make_model",
    "model_factory",
    "model_names",
]


def _make_dynamic_tree(
    rng: Optional[np.random.Generator], tree_particles: int
) -> SurrogateModel:
    return DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=tree_particles),
        rng=rng if rng is not None else np.random.default_rng(),
    )


_MODEL_REGISTRY: dict = {
    "dynamic-tree": _make_dynamic_tree,
    "gp": lambda rng, tree_particles: GaussianProcessRegressor(),
    # Sliding-window GP: forgets the oldest observation past 100 training
    # examples through the rank-1 Cholesky downdate — the drift-tracking
    # surrogate with bounded per-update cost.
    "gp-window": lambda rng, tree_particles: GaussianProcessRegressor(
        window_size=100
    ),
    "knn": lambda rng, tree_particles: KNNRegressor(k=5),
    "constant-mean": lambda rng, tree_particles: ConstantMeanModel(),
}


def model_names() -> List[str]:
    """The names :func:`make_model` accepts, in registration order."""
    return list(_MODEL_REGISTRY)


def _resolve_model_name(name: str) -> str:
    key = name.strip().lower().replace(" ", "-").replace("_", "-")
    if key not in _MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; expected one of {model_names()}")
    return key


def make_model(
    name: str,
    rng: Optional[np.random.Generator] = None,
    tree_particles: int = 30,
) -> SurrogateModel:
    """Construct a surrogate model by name.

    ``rng`` and ``tree_particles`` only affect the dynamic tree (the other
    models are deterministic given their training data); they are
    accepted for every name so callers can treat the model choice as a
    pure string axis.
    """
    return _MODEL_REGISTRY[_resolve_model_name(name)](rng, tree_particles)


def model_factory(
    name: str, tree_particles: int = 30
) -> Callable[[np.random.Generator], SurrogateModel]:
    """An :class:`~repro.core.learner.ActiveLearner`-compatible factory for ``name``."""
    key = _resolve_model_name(name)
    return lambda rng: _MODEL_REGISTRY[key](rng, tree_particles)
