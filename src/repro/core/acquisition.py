"""Acquisition (usefulness) functions for the active learner.

Section 3.3 of the paper: the dynaTree package offers two scoring
heuristics, MacKay's ALM (pick the candidate whose predicted output variance
is largest) and Cohn's ALC (pick the candidate expected to most reduce the
average predictive variance across the space).  The paper uses ALC because
it copes better with heteroskedastic noise; Algorithm 1 expresses it as
*minimising* ``predictAvgModelVariance``.  Both are implemented here against
the generic :class:`~repro.models.base.SurrogateModel` interface, together
with a random-selection control.

Selection (``TuningSession.ask(k)``; ``ask()`` is ``k = 1``) goes through
:meth:`AcquisitionFunction.select_batch`: the top ``k`` of one scoring
pass, so a ``k=1`` round is one scoring pass and one tie-break draw —
Algorithm 1's sequential pick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from ..models.base import SurrogateModel

__all__ = [
    "AcquisitionFunction",
    "ALCAcquisition",
    "ALMAcquisition",
    "RandomAcquisition",
    "make_acquisition",
    "acquisition_names",
]


class AcquisitionFunction(ABC):
    """Scores candidates; the learner selects the candidate with the *best* score."""

    name: str = "abstract"

    @abstractmethod
    def score(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return one score per candidate; **higher is better**.

        ``reference_rows`` are row indices into ``candidates``: the
        reference set that ALC averages the remaining variance over.
        """

    #: Relative tie tolerance: candidates within this fraction of the best
    #: score's magnitude are considered tied and drawn from uniformly.
    TIE_RTOL = 1e-12

    def _pick_best(
        self,
        scores: np.ndarray,
        available: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """The best of the ``available`` indices, ties broken at random —
        one generator draw per pick.

        The tie band is *relative* to the best score's magnitude.  An
        absolute band (the previous ``best - 1e-15``) mis-scales in both
        directions: with large-magnitude scores (ALC's negated average
        variances on unnormalized-runtime benchmarks, easily ~1e3 s²) it is
        below one ulp and never groups anything — float-noise duplicates
        are then ranked by rounding accident instead of tie-broken at
        random — while with tiny scores (~1e-18 variances) it lumps
        candidates whose scores differ by many orders of magnitude.  A
        relative band keeps exactly the intended behaviour at every scale:
        exact ties and float-noise-level differences are grouped, genuine
        differences are not.  (``best == 0`` degrades to exact ties only,
        which is the correct limit.)
        """
        subset = scores[available]
        best = float(subset.max())
        ties = available[np.flatnonzero(subset >= best - self.TIE_RTOL * abs(best))]
        # The one draw ``rng.choice(ties)`` makes, without its set-up.
        return int(ties[rng.integers(0, len(ties), dtype=np.int64)])

    def select_batch(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
        k: int,
    ) -> List[int]:
        """Indices of ``k`` distinct candidates, best first.

        Scores once and takes the top ``k`` greedily, re-applying the
        relative tie band (and a generator draw) at every pick, so ``k=1``
        is the plain tie-broken argmax.
        """
        n = np.atleast_2d(candidates).shape[0]
        if not 1 <= k <= n:
            raise ValueError(f"batch size k={k} must be within [1, {n}] candidates")
        scores = np.asarray(
            self.score(model, candidates, reference_rows, rng), dtype=float
        )
        if scores.shape[0] != n:
            raise ValueError("score() must return one value per candidate")
        chosen: List[int] = []
        taken = np.zeros(n, dtype=bool)
        for _ in range(k):
            available = np.flatnonzero(~taken)
            pick = self._pick_best(scores, available, rng)
            chosen.append(pick)
            taken[pick] = True
        return chosen


class ALCAcquisition(AcquisitionFunction):
    """Cohn's ALC: minimise the predicted average variance across the space.

    This is the scoring function the paper uses (``predictAvgModelVariance``
    in Algorithm 1, lines 14-20, where the candidate with the *lowest*
    predicted average variance is chosen — equivalently the candidate whose
    observation removes the most variance).  Scores returned here are the
    negated expected average variance so that "higher is better" holds.
    """

    name = "alc"

    def score(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        expected = model.expected_average_variance(candidates, reference_rows)
        return -np.asarray(expected, dtype=float)


class ALMAcquisition(AcquisitionFunction):
    """MacKay's ALM: pick the candidate with the largest predictive variance."""

    name = "alm"

    def score(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        prediction = model.predict(np.atleast_2d(candidates))
        return np.asarray(prediction.variance, dtype=float)


class RandomAcquisition(AcquisitionFunction):
    """Uniform random selection — the non-active-learning control."""

    name = "random"

    def score(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return rng.random(np.atleast_2d(candidates).shape[0])


_ACQUISITION_REGISTRY = {
    "alc": ALCAcquisition,
    "alm": ALMAcquisition,
    "random": RandomAcquisition,
}


def acquisition_names() -> list[str]:
    """The names :func:`make_acquisition` accepts, in registration order."""
    return list(_ACQUISITION_REGISTRY)


def make_acquisition(name: str) -> AcquisitionFunction:
    """Look up an acquisition function by name (``"alc"``, ``"alm"``,
    ``"random"``)."""
    key = name.strip().lower()
    if key not in _ACQUISITION_REGISTRY:
        raise KeyError(
            f"unknown acquisition {name!r}; expected one of {acquisition_names()}"
        )
    return _ACQUISITION_REGISTRY[key]()
