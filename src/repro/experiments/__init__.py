"""Experiment harness: a declarative registry of the paper's artifacts.

==================  ====================================================
Artifact            Spec / driver
==================  ====================================================
Table 1             ``table1`` (:func:`repro.experiments.table1.run_table1`)
Table 2             ``table2`` (:func:`repro.experiments.table2.run_table2`)
Figure 1            ``figure1`` (:func:`repro.experiments.figure1.run_figure1`)
Figure 2            ``figure2`` (:func:`repro.experiments.figure2.run_figure2`)
Figure 5            ``figure5`` (derived from Table 1)
Figure 6            ``figure6`` (derived from Table 1)
Noise robustness    ``noise_robustness``
Acquisition study   ``acquisition-ablation`` (ALC vs ALM vs random)
Model study         ``model-ablation`` (dynamic tree vs GP vs k-NN)
==================  ====================================================

Every artifact registers an :class:`~repro.experiments.registry.ExperimentSpec`
declaring how it decomposes into seeded, order-independent,
checkpointable work units and how completed units fold into its report.
The same units run on two backends: in memory
(:func:`~repro.experiments.registry.run_artifacts`, what plain
``run_all`` uses) or through the sharded, resumable, multi-host task
queue of :mod:`repro.experiments.runner` (``run_all --paper-run``).
Every driver takes an :class:`repro.experiments.config.ExperimentScale`
(``smoke``, ``laptop`` or ``paper``) and returns structured results with
a ``render()`` method that prints the same rows/series the paper reports.
"""

from .ablations import (
    AblationResult,
    AblationRow,
    run_acquisition_ablation,
    run_model_ablation,
)
from .config import ExperimentScale
from .figure1 import Figure1Result, run_figure1
from .figure2 import Figure2Result, run_figure2
from .figure5 import Figure5Result, figure5_from_table1, run_figure5
from .figure6 import PAPER_FIGURE6_BENCHMARKS, Figure6Result, run_figure6
from .noise_robustness import NoiseRobustnessResult, run_noise_robustness, scaled_benchmark
from .paper_scale import PaperScaleSmokeResult, run_paper_scale_smoke
from .registry import (
    DEFAULT_ARTIFACTS,
    ExperimentSpec,
    UnitContext,
    WorkUnit,
    get_spec,
    run_artifacts,
    spec_names,
)
from .runner import ExperimentRunner, RunManifest, RunnerError, run_paper_run
from .table1 import PAPER_TABLE1_SPEEDUPS, Table1Result, run_table1, table1_from_comparisons
from .table2 import Table2Result, run_table2

__all__ = [
    "ExperimentScale",
    "Figure1Result",
    "run_figure1",
    "Figure2Result",
    "run_figure2",
    "Figure5Result",
    "figure5_from_table1",
    "run_figure5",
    "PAPER_FIGURE6_BENCHMARKS",
    "Figure6Result",
    "run_figure6",
    "NoiseRobustnessResult",
    "run_noise_robustness",
    "scaled_benchmark",
    "AblationResult",
    "AblationRow",
    "run_acquisition_ablation",
    "run_model_ablation",
    "PaperScaleSmokeResult",
    "run_paper_scale_smoke",
    "run_all",
    "DEFAULT_ARTIFACTS",
    "ExperimentSpec",
    "UnitContext",
    "WorkUnit",
    "get_spec",
    "run_artifacts",
    "spec_names",
    "ExperimentRunner",
    "RunManifest",
    "RunnerError",
    "run_paper_run",
    "PAPER_TABLE1_SPEEDUPS",
    "Table1Result",
    "run_table1",
    "table1_from_comparisons",
    "Table2Result",
    "run_table2",
]


def __getattr__(name: str):
    # ``run_all`` is resolved on first use: importing its module here would
    # put it in ``sys.modules`` before ``python -m
    # repro.experiments.run_all`` executes it, which makes runpy warn.
    # The submodule shares the function's name, so code that imports the
    # submodule first should take the function from it directly.
    if name == "run_all":
        from .run_all import run_all as function

        globals()["run_all"] = function
        return function
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
