"""Candidate-pool management for the active-learning loop.

Algorithm 1 of the paper builds, at every iteration, a candidate set ``C``
containing

* ``nc`` configurations sampled at random from the part of the space that
  has never been observed, and
* (for the sequential/variable plan only) every previously observed
  configuration that has fewer than ``nobs`` observations so far — these are
  the configurations the learner may *revisit* instead of trying something
  new, which is the sequential-analysis ingredient.

:class:`CandidatePool` tracks which configurations have been observed and
how many times (the ``D`` dictionary of Algorithm 1) and assembles that
candidate set.  :meth:`CandidatePool.draw_featurized` also returns the
candidates' feature matrix: fresh rows come from the search space's
featurized draw, revisitable rows from a per-configuration feature cache
that the learner fills with its seed and chosen rows.  The cache is derived
state: a pickled pool carries only the counts and rebuilds it on load.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..spapt.search_space import SearchSpace

__all__ = ["CandidatePool"]

Configuration = Tuple[int, ...]


class CandidatePool:
    """Tracks observation counts and assembles per-iteration candidate sets."""

    def __init__(self, space: SearchSpace, max_observations: int, revisit: bool) -> None:
        if max_observations < 1:
            raise ValueError("max_observations must be at least 1")
        self._space = space
        self._max_observations = max_observations
        self._revisit = revisit
        self._counts: Dict[Configuration, int] = {}
        self._clear_features()

    def _clear_features(self) -> None:
        # Row i of the growing feature matrix belongs to the configuration
        # that _feature_rows maps to i; rows are written once.
        self._feature_rows: Dict[Configuration, int] = {}
        self._feature_matrix = np.empty((0, self._space.dimensions))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_feature_rows"], state["_feature_matrix"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_features()
        if self._counts:
            seen = self.seen
            self.remember_features(seen, self._space.normalize_many(seen))

    @property
    def observation_counts(self) -> Dict[Configuration, int]:
        """A copy of the per-configuration observation counts (Algorithm 1's ``D``)."""
        return dict(self._counts)

    @property
    def seen(self) -> List[Configuration]:
        """Every configuration that has been observed at least once."""
        return list(self._counts)

    def count(self, configuration: Sequence[int]) -> int:
        return self._counts.get(tuple(int(v) for v in configuration), 0)

    def record(self, configuration: Sequence[int], observations: int = 1) -> None:
        """Record that ``configuration`` received ``observations`` more runs."""
        if observations < 1:
            raise ValueError("observations must be at least 1")
        key = tuple(int(v) for v in configuration)
        self._counts[key] = self._counts.get(key, 0) + observations

    def revisitable(self) -> List[Configuration]:
        """Configurations that may be revisited (seen but not yet at the cap)."""
        if not self._revisit:
            return []
        return [
            configuration
            for configuration, count in self._counts.items()
            if count < self._max_observations
        ]

    def draw_featurized(
        self, n_fresh: int, rng: np.random.Generator
    ) -> Tuple[List[Configuration], np.ndarray]:
        """One iteration's candidate set — fresh random points plus
        revisitable ones — and its feature matrix, one row per candidate.

        ``n_fresh`` is the paper's ``nc``; fresh candidates are drawn from
        the space excluding everything already observed, so the two halves of
        the pool never overlap.  The observation-count dict itself is the
        exclusion set (no per-draw copy).  An :meth:`exhausted` pool
        returns an empty list without drawing from ``rng``.  Fresh rows are
        gathered from the indices the space drew them from; revisitable
        rows come from the feature cache (see :meth:`features`).
        """
        if n_fresh < 0:
            raise ValueError("n_fresh cannot be negative")
        n_available = max(self._space.size - len(self._counts), 0)
        # A zero-count sample draws nothing from ``rng``.
        fresh, features = self._space.sample_distinct_featurized(
            min(n_fresh, n_available), rng, exclude=self._counts
        )
        revisitable = self.revisitable()
        if revisitable:
            features = np.concatenate([features, self.features(revisitable)])
        return fresh + revisitable, features

    def remember_features(
        self, configurations: Sequence[Configuration], features: np.ndarray
    ) -> None:
        """Cache the feature rows of ``configurations`` (row ``i`` of
        ``features`` is configuration ``i``'s normalised vector)."""
        rows = self._feature_rows
        new: Dict[Configuration, int] = {}
        for i, configuration in enumerate(configurations):
            if configuration not in rows:
                new.setdefault(configuration, i)
        if not new:
            return
        start = len(rows)
        stop = start + len(new)
        matrix = self._feature_matrix
        if stop > matrix.shape[0]:
            grown = np.empty((max(stop, 2 * matrix.shape[0], 64), matrix.shape[1]))
            grown[:start] = matrix[:start]
            self._feature_matrix = matrix = grown
        matrix[start:stop] = features[list(new.values())]
        for row, configuration in enumerate(new, start):
            rows[configuration] = row

    def features(self, configurations: Sequence[Configuration]) -> np.ndarray:
        """The ``(n, d)`` feature matrix of ``configurations``, bitwise equal
        to the space's ``normalize_many``: cached rows are gathered, and a
        configuration missing from the cache is normalised and cached."""
        rows = self._feature_rows
        try:
            index = list(map(rows.__getitem__, configurations))
        except KeyError:
            missing = [configuration for configuration in configurations
                       if configuration not in rows]
            self.remember_features(missing, self._space.normalize_many(missing))
            index = list(map(rows.__getitem__, configurations))
        return self._feature_matrix.take(index, axis=0)

    def exhausted(self) -> bool:
        """True when no candidate (fresh or revisitable) remains."""
        if len(self._counts) < self._space.size:
            return False
        return not self.revisitable()
