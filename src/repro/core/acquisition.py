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
:meth:`AcquisitionFunction.select_batch`.  The base implementation takes
the top ``k`` of one scoring pass; two interaction-aware strategies refine
it: :class:`GreedyALCFantasyAcquisition` (``"greedy-alc-fantasy"``) picks
the ALC argmax, fantasizes its observation at the model's predictive mean
on a copy, and re-scores — the kriging-believer construction — while
:class:`DiversityPenaltyAcquisition` (``"diversity-penalty"``) approximates
the same spreading effect with a single scoring pass and an RBF similarity
penalty against already-picked batch members.  Every strategy's ``k=1``
batch is one scoring pass and one tie-break draw — Algorithm 1's
sequential pick.
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
    "GreedyALCFantasyAcquisition",
    "DiversityPenaltyAcquisition",
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

        The default strategy scores once and takes the top ``k`` greedily,
        re-applying the relative tie band (and a generator draw) at every
        pick, so ``k=1`` is the plain tie-broken argmax.  Subclasses with
        an interaction-aware batch rule (fantasized updates, diversity
        penalties) override this.
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


class GreedyALCFantasyAcquisition(ALCAcquisition):
    """Greedy-ALC batch selection with fantasized model updates.

    The kriging-believer recipe applied to ALC: pick the ALC argmax, then
    pretend its measurement came back at the model's current predictive
    mean — updating a *copy* of the model with the fantasy — and re-score
    the remaining candidates against the fantasized posterior.  Repeated
    ``k`` times this spreads the batch across the space (a fantasized
    observation collapses the variance around its location, so near
    neighbours stop looking useful) at the price of ``k`` scoring passes
    and ``k - 1`` fantasy updates per batch.

    ``select_batch(..., k=1)`` never copies or fantasizes — it scores the
    real model once and tie-breaks once, exactly like plain ALC.
    """

    name = "greedy-alc-fantasy"

    def select_batch(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
        k: int,
    ) -> List[int]:
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        n = C.shape[0]
        if not 1 <= k <= n:
            raise ValueError(f"batch size k={k} must be within [1, {n}] candidates")
        chosen: List[int] = []
        taken = np.zeros(n, dtype=bool)
        current = model
        for step in range(k):
            available = np.flatnonzero(~taken)
            # The whole batch is scored, since a reference row may be a
            # taken candidate, and taken candidates are masked.  The
            # dynamic tree sums each candidate's column over particles in
            # row order, so an available candidate scores as it would alone.
            scores = np.asarray(self.score(current, C, reference_rows, rng), dtype=float)
            scores = np.where(taken, -np.inf, scores)
            pick = self._pick_best(scores, available, rng)
            chosen.append(pick)
            taken[pick] = True
            if step + 1 < k:
                if current is model:
                    # First fantasy of the batch: all believed observations
                    # go into a throwaway copy; the session's model sees
                    # only real measurements through tell().  A model may
                    # return a cheaper copy than a deep clone here (the
                    # dynamic tree copies only its arrays).
                    current = model.fantasy_copy()
                believed = float(current.predict(C[pick : pick + 1]).mean[0])
                current.update(C[pick], believed)
        return chosen


class DiversityPenaltyAcquisition(ALCAcquisition):
    """ALC batch selection with an RBF diversity penalty — the cheap variant.

    One ALC scoring pass; each subsequent pick subtracts a penalty
    proportional to the candidate's kernel similarity to the closest
    already-picked batch member, approximating the variance collapse a
    fantasized update would produce without copying or re-scoring the
    model.  The similarity lengthscale is the median pairwise candidate
    distance and the penalty is scaled by the score range, so the
    behaviour is invariant to affine rescaling of scores and features.

    ``select_batch(..., k=1)`` reduces to plain ALC selection (one scoring
    pass, one tie-break draw).
    """

    name = "diversity-penalty"

    #: Penalty at zero distance, as a fraction of the batch's score range.
    PENALTY_WEIGHT = 1.0

    def select_batch(
        self,
        model: SurrogateModel,
        candidates: np.ndarray,
        reference_rows: np.ndarray,
        rng: np.random.Generator,
        k: int,
    ) -> List[int]:
        C = np.atleast_2d(np.asarray(candidates, dtype=float))
        n = C.shape[0]
        if not 1 <= k <= n:
            raise ValueError(f"batch size k={k} must be within [1, {n}] candidates")
        base = np.asarray(self.score(model, C, reference_rows, rng), dtype=float)
        if base.shape[0] != n:
            raise ValueError("score() must return one value per candidate")
        chosen: List[int] = []
        taken = np.zeros(n, dtype=bool)
        similarity = np.zeros(n)
        if k > 1:
            deltas = C[:, None, :] - C[None, :, :]
            distances = np.sqrt((deltas ** 2).sum(axis=-1))
            positive = distances[distances > 0]
            lengthscale = float(np.median(positive)) if positive.size else 1.0
            spread = float(base.max() - base.min())
            if spread <= 0.0:
                spread = max(abs(float(base.max())), 1.0)
        for step in range(k):
            available = np.flatnonzero(~taken)
            adjusted = base - self.PENALTY_WEIGHT * spread * similarity if step else base
            pick = self._pick_best(adjusted, available, rng)
            chosen.append(pick)
            taken[pick] = True
            if step + 1 < k:
                sq = ((C - C[pick]) ** 2).sum(axis=1)
                fresh = np.exp(-0.5 * sq / lengthscale ** 2)
                similarity = np.maximum(similarity, fresh)
        return chosen


_ACQUISITION_REGISTRY = {
    "alc": ALCAcquisition,
    "alm": ALMAcquisition,
    "random": RandomAcquisition,
    "greedy-alc-fantasy": GreedyALCFantasyAcquisition,
    "diversity-penalty": DiversityPenaltyAcquisition,
}


def acquisition_names() -> list[str]:
    """The names :func:`make_acquisition` accepts, in registration order."""
    return list(_ACQUISITION_REGISTRY)


def make_acquisition(name: str) -> AcquisitionFunction:
    """Look up an acquisition function by name (``"alc"``, ``"alm"``,
    ``"random"``, ``"greedy-alc-fantasy"``, ``"diversity-penalty"``)."""
    key = name.strip().lower()
    if key not in _ACQUISITION_REGISTRY:
        raise KeyError(
            f"unknown acquisition {name!r}; expected one of {acquisition_names()}"
        )
    return _ACQUISITION_REGISTRY[key]()
