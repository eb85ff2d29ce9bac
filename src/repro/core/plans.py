"""Sampling plans: how many observations a chosen training example receives.

The paper's central argument is that the *sampling plan* — how many times
each selected configuration is compiled-and-run — should not be a constant
fixed a priori.  Three plans are compared in the evaluation (Section 4.3):

* :func:`fixed_plan` with 35 observations — the baseline of Balaprakash et
  al.: every selected example is profiled 35 times, its mean becomes one
  training point, and the example never re-enters the candidate pool.
* :func:`fixed_plan` with 1 observation — the cheapest possible plan, fast
  but vulnerable to noise.
* :func:`sequential_plan` — the paper's contribution: every selection takes
  a *single* observation, and examples remain candidates until they have
  accumulated ``max_observations_per_example`` observations, so the active
  learner itself decides which examples deserve more samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..measurement.broker import MeasurementRequest
from ..measurement.stats import RunningStats

__all__ = [
    "SamplingPlan",
    "fixed_plan",
    "sequential_plan",
    "adaptive_ci_plan",
    "standard_plans",
    "make_plan",
    "plan_names",
]


@dataclass(frozen=True)
class SamplingPlan:
    """Parameters describing one sampling strategy.

    Attributes
    ----------
    name:
        Label used in reports ("all observations", "one observation",
        "variable observations" in the paper's figures).
    observations_per_selection:
        How many profiling runs are taken each time an example is selected.
    max_observations_per_example:
        Once an example has this many observations it leaves the candidate
        pool for good.
    revisit:
        Whether previously selected examples stay in the candidate pool
        (the sequential-analysis ingredient).
    aggregate_mean:
        If true, the model receives a single training point whose target is
        the mean of the observations taken in this selection; otherwise each
        observation is fed to the model individually.
    ci_threshold:
        When set, a selected example keeps being profiled (up to
        ``max_observations_per_example`` runs) until the 95% confidence
        interval of its mean divided by the mean falls below this value —
        the "raced profiles" statistical stopping rule of Leather et al.
        discussed in the paper's related work.  ``None`` disables the rule.
    """

    name: str
    observations_per_selection: int
    max_observations_per_example: int
    revisit: bool
    aggregate_mean: bool = True
    ci_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.observations_per_selection < 1:
            raise ValueError("observations_per_selection must be at least 1")
        if self.max_observations_per_example < self.observations_per_selection:
            raise ValueError(
                "max_observations_per_example cannot be smaller than "
                "observations_per_selection"
            )
        if self.ci_threshold is not None and self.ci_threshold <= 0:
            raise ValueError("ci_threshold must be positive when given")

    @property
    def is_sequential(self) -> bool:
        """True when the plan lets the learner decide the per-example sample size."""
        return self.revisit and self.observations_per_selection < self.max_observations_per_example

    def measurement_request(
        self,
        benchmark: str,
        configuration: Sequence[int],
        prior_stats: Optional[RunningStats] = None,
    ) -> MeasurementRequest:
        """The measurement order one selection under this plan places.

        This is where the plan's per-selection rule becomes part of the
        request protocol: the request carries the initial repetition count
        and — for plans with a ``ci_threshold`` — the stopping rule and the
        per-example cap, plus a snapshot of the configuration's prior
        observation statistics so any broker can evaluate the rule without
        holding state of its own.
        """
        return MeasurementRequest(
            benchmark=benchmark,
            configuration=tuple(configuration),
            repetitions=self.observations_per_selection,
            ci_threshold=self.ci_threshold,
            max_observations=self.max_observations_per_example,
            prior_stats=prior_stats.copy() if prior_stats is not None else None,
        )


def fixed_plan(observations: int, name: str | None = None) -> SamplingPlan:
    """A constant sampling plan: ``observations`` runs per selected example.

    ``fixed_plan(35)`` is the paper's baseline ("all observations");
    ``fixed_plan(1)`` is the noisy single-sample plan ("one observation").
    """
    if name is None:
        name = "all observations" if observations > 1 else "one observation"
    return SamplingPlan(
        name=name,
        observations_per_selection=observations,
        max_observations_per_example=observations,
        revisit=False,
        aggregate_mean=True,
    )


def sequential_plan(
    max_observations: int = 35, name: str = "variable observations"
) -> SamplingPlan:
    """The paper's variable plan: one observation at a time, revisits allowed.

    ``max_observations`` caps how many times a single example can be
    revisited (the paper caps at 35, matching the baseline, and notes that
    this cap limits the attainable speed-up on the noisiest benchmark).
    """
    return SamplingPlan(
        name=name,
        observations_per_selection=1,
        max_observations_per_example=max_observations,
        revisit=True,
        aggregate_mean=False,
    )


def adaptive_ci_plan(
    ci_threshold: float = 0.01,
    max_observations: int = 35,
    name: str = "adaptive CI",
) -> SamplingPlan:
    """A statistical stopping rule in the spirit of Leather et al.'s raced profiles.

    Each selected example is profiled until the 95% CI/mean ratio of its
    observations drops below ``ci_threshold`` (or ``max_observations`` runs
    have been spent).  Unlike the paper's sequential-analysis plan the
    decision uses only the example's own observations, not the model's view
    of the surrounding space, so it cannot stop after a single run unless
    the threshold is trivially loose — it is provided as an additional
    comparison point and is not one of the paper's three evaluated plans.
    """
    return SamplingPlan(
        name=name,
        observations_per_selection=2,
        max_observations_per_example=max_observations,
        revisit=False,
        aggregate_mean=True,
        ci_threshold=ci_threshold,
    )


def standard_plans(baseline_observations: int = 35) -> list[SamplingPlan]:
    """The three plans compared throughout the paper's evaluation."""
    return [
        fixed_plan(baseline_observations),
        fixed_plan(1),
        sequential_plan(baseline_observations),
    ]


#: Name → zero-argument factory for every registered sampling plan.  The
#: registry keys double as the strategy names an experiment axis can carry
#: (e.g. a registry-driven ablation spec listing plans to compare).
_PLAN_FACTORIES = {
    "all-observations": lambda: fixed_plan(35),
    "one-observation": lambda: fixed_plan(1),
    "variable-observations": lambda: sequential_plan(),
    "adaptive-ci": lambda: adaptive_ci_plan(),
}


def plan_names() -> list[str]:
    """The names :func:`make_plan` accepts, in registration order."""
    return list(_PLAN_FACTORIES)


def make_plan(name: str) -> SamplingPlan:
    """Look up a sampling plan by name.

    Accepts the registry keys (``"variable-observations"``) as well as the
    space-separated report labels the paper's figures use (``"variable
    observations"``); matching is case-insensitive.
    """
    key = name.strip().lower().replace(" ", "-").replace("_", "-")
    if key not in _PLAN_FACTORIES:
        raise KeyError(
            f"unknown sampling plan {name!r}; expected one of {plan_names()}"
        )
    return _PLAN_FACTORIES[key]()
