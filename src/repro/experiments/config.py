"""Shared experiment configuration: laptop-scale defaults and paper scale.

The paper's experiments use 10 000-configuration datasets, 2 500 training
instances, 500 candidates per iteration, 5 000 dynamic-tree particles and
ten repetitions of everything — weeks of simulated profiling and far more
Python time than a test run should take.  :class:`ExperimentScale` gathers
every scale knob in one place:

* :meth:`ExperimentScale.smoke` — seconds; used by the test suite.
* :meth:`ExperimentScale.laptop` — minutes; the default for the benchmark
  harness, large enough for the paper's qualitative results (orderings,
  speed-up factors) to emerge.
* :meth:`ExperimentScale.paper` — the paper's parameters, for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.comparison import ComparisonConfig
from ..core.learner import LearnerConfig
from ..spapt.suite import BENCHMARK_SPECS, benchmark_names

__all__ = ["ExperimentScale"]


@dataclass(frozen=True)
class ExperimentScale:
    """All scale knobs used by the table/figure drivers."""

    name: str
    benchmarks: Sequence[str]
    learner: LearnerConfig
    repetitions: int
    test_size: int
    test_observations: int
    dataset_configurations: int
    dataset_observations: int
    figure1_grid: int
    seed: int = 2017

    def __post_init__(self) -> None:
        unknown = [b for b in self.benchmarks if b not in BENCHMARK_SPECS]
        if unknown:
            raise KeyError(f"unknown benchmarks: {', '.join(unknown)}")
        if not self.benchmarks:
            raise ValueError("at least one benchmark is required")

    def comparison_config(self) -> ComparisonConfig:
        """The plan-comparison configuration implied by this scale."""
        return ComparisonConfig(
            learner=self.learner,
            repetitions=self.repetitions,
            test_size=self.test_size,
            test_observations=self.test_observations,
            seed=self.seed,
        )

    @classmethod
    def smoke(cls, benchmarks: Optional[Sequence[str]] = None) -> "ExperimentScale":
        """A few seconds per experiment — used by the test suite."""
        return cls(
            name="smoke",
            benchmarks=tuple(benchmarks) if benchmarks else ("mm", "adi"),
            learner=LearnerConfig(
                n_initial=4,
                seed_observations=5,
                n_candidates=20,
                max_training_examples=40,
                reference_size=15,
                evaluation_interval=8,
                tree_particles=10,
            ),
            repetitions=1,
            test_size=60,
            test_observations=5,
            dataset_configurations=60,
            dataset_observations=8,
            figure1_grid=6,
        )

    @classmethod
    def laptop(cls, benchmarks: Optional[Sequence[str]] = None) -> "ExperimentScale":
        """Minutes per experiment — the default for the benchmark harness."""
        return cls(
            name="laptop",
            benchmarks=tuple(benchmarks) if benchmarks else tuple(benchmark_names()),
            learner=LearnerConfig(
                n_initial=5,
                seed_observations=35,
                n_candidates=50,
                max_training_examples=150,
                reference_size=35,
                evaluation_interval=10,
                tree_particles=25,
            ),
            repetitions=2,
            test_size=250,
            test_observations=15,
            dataset_configurations=400,
            dataset_observations=35,
            figure1_grid=15,
        )

    @classmethod
    def paper(cls, benchmarks: Optional[Sequence[str]] = None) -> "ExperimentScale":
        """The paper's experimental scale (Sections 4.4-4.5)."""
        return cls(
            name="paper",
            benchmarks=tuple(benchmarks) if benchmarks else tuple(benchmark_names()),
            learner=LearnerConfig.paper_scale(),
            repetitions=10,
            test_size=2500,
            test_observations=35,
            dataset_configurations=10_000,
            dataset_observations=35,
            figure1_grid=30,
        )
