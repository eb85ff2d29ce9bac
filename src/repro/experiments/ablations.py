"""Ablation studies as first-class registry artifacts.

The paper fixes two design choices that deserve head-to-head evidence:
the ALC acquisition function (Section 3.3 argues it copes better with
heteroskedastic noise than ALM) and the dynamic-tree surrogate.  The
multi-strategy benchmarking practised by *Active Code Learning*
(arXiv:2306.01250) treats such choices as an experiment axis; these specs
do the same through the name-based factories
(:func:`repro.core.acquisition.make_acquisition`,
:func:`repro.models.model_factory`), so a strategy axis is literally a
list of names carried in the work-unit parameters:

* ``acquisition-ablation`` — ALC vs ALM vs random selection, everything
  else (variable-observation plan, dynamic tree) held at the paper's
  choices;
* ``model-ablation`` — dynamic tree vs Gaussian process vs k-NN under the
  identical learning loop;
* ``batch-acquisition`` — batch sizes k ∈ {1, 2, 5} crossed with the batch
  selection strategies (greedy-ALC with fantasized updates, the cheap
  diversity-penalty variant, and random top-k) driven through
  ``TuningSession.ask(k)``; the ``k1-greedy-alc-fantasy`` reference is
  bit-identical to the sequential ALC loop, so the arm isolates what a
  batch of parallel workers costs in sample efficiency.

Each variant runs under the same seeded (benchmark × variant ×
repetition) unit shape as Table 1 — the variant index takes the place of
the plan index in the seeding formula — so the ablations shard, resume
and fold on the same runner as every other artifact.  The fold reuses
:func:`repro.core.comparison.assemble_comparison` with variant names as
the comparison axis, reporting each variant's best error, the cost to
reach the lowest error *every* variant reaches, and the cost ratio versus
the paper's choice (the first variant), plus the multi-level
:func:`~repro.core.curves.speedup_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..core.comparison import PlanComparison, assemble_comparison
from ..core.curves import speedup_factor
from ..core.learner import LearningResult
from ..core.plans import sequential_plan
from ..models import model_factory
from .config import ExperimentScale
from .registry import (
    ExperimentSpec,
    UnitContext,
    WorkUnit,
    execute_learner_run,
    group_learner_results,
    register,
    slugify,
)
from .reporting import format_table

__all__ = [
    "AblationRow",
    "AblationResult",
    "AcquisitionAblationSpec",
    "ModelAblationSpec",
    "BatchAcquisitionSpec",
]


@dataclass(frozen=True)
class AblationRow:
    """One (benchmark × variant) summary of an ablation axis."""

    benchmark: str
    variant: str
    best_rmse: float
    lowest_common_rmse: float
    cost_to_reach_seconds: float
    cost_ratio_vs_reference: float
    speedup_factor_vs_reference: float


@dataclass
class AblationResult:
    """All rows of one ablation axis plus the per-benchmark comparisons."""

    axis: str
    reference_variant: str
    rows: List[AblationRow]
    comparisons: Dict[str, PlanComparison]

    def render(self) -> str:
        data = [
            [
                row.benchmark,
                row.variant,
                f"{row.best_rmse:.4g}",
                f"{row.lowest_common_rmse:.4g}",
                f"{row.cost_to_reach_seconds:.4g}",
                f"{row.cost_ratio_vs_reference:.2f}",
                f"{row.speedup_factor_vs_reference:.2f}",
            ]
            for row in self.rows
        ]
        return format_table(
            headers=[
                "benchmark",
                self.axis,
                "best RMSE",
                "lowest common RMSE",
                "cost to reach (s)",
                f"cost ratio vs {self.reference_variant}",
                "speed-up factor",
            ],
            rows=data,
            title=(
                f"Ablation ({self.axis}): strategies compared under the "
                "variable-observation plan"
            ),
        )


class _LearnerAblationSpec(ExperimentSpec):
    """Shared machinery: one learner run per (benchmark × variant ×
    repetition), with the variant resolved by name through the core
    factories.  Subclasses set ``variants`` (the reference/paper choice
    first) and implement :meth:`learner_kwargs`."""

    #: Strategy names on this axis; the first is the reference variant.
    variants: Tuple[str, ...] = ()
    #: Axis label used in the rendered table ("acquisition", "model").
    axis: str = "variant"
    #: Running with ``--replay-trace`` over a recorded table1 trace
    #: re-scores the ablation arms against table1's measurements
    #: (common-random-numbers observation sharing; configurations table1
    #: never visited are profiled live and recorded).
    replay_rescore_from: Tuple[str, ...] = ("table1",)

    def learner_kwargs(self, variant: str, scale: ExperimentScale) -> dict:
        """Extra ``execute_learner_run`` arguments selecting ``variant``."""
        raise NotImplementedError

    def fingerprint_extras(self) -> Tuple[str, ...]:
        return self.variants

    def work_units(self, scale: ExperimentScale) -> List[WorkUnit]:
        return [
            WorkUnit(
                artifact=self.name,
                key=(name, slugify(variant), f"r{repetition:03d}"),
                params={
                    "benchmark": name,
                    "variant": variant,
                    "variant_index": variant_index,
                    "repetition": repetition,
                },
            )
            for name in scale.benchmarks
            for repetition in range(scale.repetitions)
            for variant_index, variant in enumerate(self.variants)
        ]

    def execute_unit(
        self, unit: WorkUnit, scale: ExperimentScale, context: UnitContext
    ) -> LearningResult:
        variant = str(unit.params["variant"])
        return execute_learner_run(
            benchmark_name=str(unit.params["benchmark"]),
            plan=sequential_plan(),
            plan_index=int(unit.params["variant_index"]),
            repetition=int(unit.params["repetition"]),
            config=scale.comparison_config(),
            context=context,
            **self.learner_kwargs(variant, scale),
        )

    def fold(
        self,
        scale: ExperimentScale,
        payloads: Sequence[Tuple[WorkUnit, Any]],
        deps: Mapping[str, Any],
    ) -> AblationResult:
        names = list(scale.benchmarks)
        variant_names = list(self.variants)
        grouped = group_learner_results(
            payloads, names, variant_names, axis_param="variant"
        )
        reference = variant_names[0]
        rows: List[AblationRow] = []
        comparisons: Dict[str, PlanComparison] = {}
        for name in names:
            comparison = assemble_comparison(name, variant_names, grouped[name])
            comparisons[name] = comparison
            reference_cost = comparison.cost_to_reach[reference]
            for variant in variant_names:
                rows.append(
                    AblationRow(
                        benchmark=name,
                        variant=variant,
                        best_rmse=comparison.curves[variant].best_error,
                        lowest_common_rmse=comparison.lowest_common_rmse,
                        cost_to_reach_seconds=comparison.cost_to_reach[variant],
                        cost_ratio_vs_reference=(
                            comparison.cost_to_reach[variant] / reference_cost
                            if reference_cost > 0
                            else float("inf")
                        ),
                        # Reference as the baseline: > 1 means the variant
                        # reaches error levels cheaper than the reference.
                        speedup_factor_vs_reference=speedup_factor(
                            comparison.curves[reference],
                            comparison.curves[variant],
                        ),
                    )
                )
        return AblationResult(
            axis=self.axis,
            reference_variant=reference,
            rows=rows,
            comparisons=comparisons,
        )


class AcquisitionAblationSpec(_LearnerAblationSpec):
    """ALC (the paper's choice) vs ALM vs random selection."""

    name = "acquisition-ablation"
    title = "Acquisition ablation"
    axis = "acquisition"
    variants = ("alc", "alm", "random")

    def learner_kwargs(self, variant: str, scale: ExperimentScale) -> dict:
        return {"acquisition": variant}


class ModelAblationSpec(_LearnerAblationSpec):
    """Dynamic tree (the paper's choice) vs Gaussian process vs k-NN."""

    name = "model-ablation"
    title = "Model ablation"
    axis = "model"
    variants = ("dynamic-tree", "gp", "knn")

    def learner_kwargs(self, variant: str, scale: ExperimentScale) -> dict:
        return {
            "model_factory": model_factory(
                variant,
                tree_particles=scale.learner.tree_particles,
                tree_backend=scale.learner.tree_backend,
            )
        }


class BatchAcquisitionSpec(_LearnerAblationSpec):
    """Batch sizes k ∈ {1, 2, 5} × batch selection strategies.

    Each variant name is ``k<batch>-<strategy>``; the strategy resolves
    through :func:`~repro.core.acquisition.make_acquisition` and the batch
    size becomes ``execute_learner_run(batch_size=...)``, driving the run
    through ``TuningSession.ask(k)``.  The reference variant
    (``k1-greedy-alc-fantasy``) is bit-identical to the paper's sequential
    ALC loop — every strategy's ``k=1`` batch selection consumes the
    generator exactly like single selection — so cost ratios and speed-up
    factors against it measure the pure price of batching.
    """

    name = "batch-acquisition"
    title = "Batch acquisition ablation"
    axis = "batch strategy"
    variants = tuple(
        f"k{k}-{strategy}"
        for k in (1, 2, 5)
        for strategy in ("greedy-alc-fantasy", "diversity-penalty", "random")
    )

    @staticmethod
    def parse_variant(variant: str) -> Tuple[int, str]:
        """``"k5-greedy-alc-fantasy"`` → ``(5, "greedy-alc-fantasy")``."""
        prefix, _, strategy = variant.partition("-")
        if not prefix.startswith("k") or not prefix[1:].isdigit() or not strategy:
            raise ValueError(f"malformed batch variant name {variant!r}")
        return int(prefix[1:]), strategy

    def learner_kwargs(self, variant: str, scale: ExperimentScale) -> dict:
        batch_size, strategy = self.parse_variant(variant)
        return {"acquisition": strategy, "batch_size": batch_size}


register(AcquisitionAblationSpec())
register(ModelAblationSpec())
register(BatchAcquisitionSpec())
