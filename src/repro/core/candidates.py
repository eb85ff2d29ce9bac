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
candidate set.
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

    def draw(self, n_fresh: int, rng: np.random.Generator) -> List[Configuration]:
        """One iteration's candidate set: fresh random points plus revisitable ones.

        ``n_fresh`` is the paper's ``nc``; fresh candidates are drawn from
        the space excluding everything already observed, so the two halves of
        the pool never overlap.  The observation-count dict itself is the
        exclusion set (no per-draw copy).  An :meth:`exhausted` pool
        returns an empty list without drawing from ``rng``.
        """
        if n_fresh < 0:
            raise ValueError("n_fresh cannot be negative")
        n_available = self._space.size - len(self._counts)
        n_fresh = min(n_fresh, max(n_available, 0))
        fresh = (
            self._space.sample_distinct(n_fresh, rng, exclude=self._counts)
            if n_fresh > 0
            else []
        )
        return fresh + self.revisitable()

    def exhausted(self) -> bool:
        """True when no candidate (fresh or revisitable) remains."""
        if len(self._counts) < self._space.size:
            return False
        return not self.revisitable()
