"""Paper-scale smoke run: Algorithm 1 at the paper's particle count.

``python -m repro.experiments.run_all --paper-scale-smoke
[--smoke-benchmark mm] [--smoke-examples 40]``

The paper's experiments use 5 000 dynamic-tree particles, 500 candidates
per iteration and 2 500 training examples (Section 4.4) — previously out of
reach for the per-particle Python update loop.  With the batched SMC update
kernel the per-observation cost at 5 000 particles is sub-second, so this
module runs Algorithm 1 end-to-end at the paper's model scale
(``LearnerConfig.paper_scale()`` with a configurable number of training
examples) on one benchmark and reports the resulting timings: it is the
"does paper scale actually run?" smoke check the ROADMAP calls for, and the
timing summary it prints is what CHANGES.md records.

A full 2 500-example paper run is the same command with
``--smoke-examples 2500`` — the smoke default keeps the example budget
small so the check finishes in minutes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import numpy as np

from ..core.evaluation import build_test_set
from ..core.learner import ActiveLearner, LearnerConfig
from ..spapt.suite import get_benchmark

__all__ = ["PaperScaleSmokeResult", "run_paper_scale_smoke"]


@dataclasses.dataclass(frozen=True)
class PaperScaleSmokeResult:
    """Timing and outcome summary of one paper-scale smoke run."""

    benchmark: str
    particles: int
    candidates: int
    training_examples: int
    wall_seconds: float
    seconds_per_example: float
    final_rmse: float
    best_rmse: float
    simulated_cost_seconds: float

    def render(self) -> str:
        return "\n".join(
            [
                "Paper-scale smoke run",
                f"  benchmark            : {self.benchmark}",
                f"  particles            : {self.particles}",
                f"  candidates/iteration : {self.candidates}",
                f"  training examples    : {self.training_examples}",
                f"  wall time            : {self.wall_seconds:.1f} s"
                f" ({self.seconds_per_example:.2f} s/example)",
                f"  final RMSE           : {self.final_rmse:.4f}",
                f"  best RMSE            : {self.best_rmse:.4f}",
                f"  simulated profiling  : {self.simulated_cost_seconds:.0f} s",
            ]
        )


def run_paper_scale_smoke(
    benchmark: str = "mm",
    training_examples: int = 40,
    particles: Optional[int] = None,
    candidates: Optional[int] = None,
    test_size: int = 300,
    seed: int = 2017,
) -> PaperScaleSmokeResult:
    """Run Algorithm 1 at paper-scale model settings, end to end.

    Everything except ``max_training_examples`` (and optional overrides for
    tests) comes from :meth:`LearnerConfig.paper_scale`: 5 000 particles,
    500 candidates per iteration, 35 seed observations, reference size 100.
    """
    config = LearnerConfig.paper_scale()
    overrides = {"max_training_examples": training_examples}
    if particles is not None:
        overrides["tree_particles"] = particles
    if candidates is not None:
        overrides["n_candidates"] = candidates
    config = dataclasses.replace(config, **overrides)
    instance = get_benchmark(benchmark)
    test_set = build_test_set(
        instance, size=test_size, observations=5, rng=np.random.default_rng(seed + 1)
    )
    learner = ActiveLearner(
        instance, config=config, rng=np.random.default_rng(seed)
    )
    started = time.perf_counter()
    result = learner.run(test_set)
    wall = time.perf_counter() - started
    return PaperScaleSmokeResult(
        benchmark=benchmark,
        particles=config.tree_particles,
        candidates=config.n_candidates,
        training_examples=result.training_examples,
        wall_seconds=wall,
        seconds_per_example=wall / max(result.training_examples, 1),
        final_rmse=result.curve.points[-1].rmse,
        best_rmse=result.curve.best_error,
        simulated_cost_seconds=result.total_cost_seconds,
    )
