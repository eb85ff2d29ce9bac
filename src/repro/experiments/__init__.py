"""Experiment harness: a declarative registry of the paper's artifacts.

==================  ==========================  ==========================
Artifact            Registry name               Spec module
==================  ==========================  ==========================
Table 1             ``table1``                  :mod:`.table1`
Table 2             ``table2``                  :mod:`.table2`
Figure 1            ``figure1``                 :mod:`.figure1`
Figure 2            ``figure2``                 :mod:`.figure2`
Figure 5            ``figure5`` (from Table 1)  :mod:`.figure5`
Figure 6            ``figure6`` (from Table 1)  :mod:`.figure6`
Noise robustness    ``noise_robustness``        :mod:`.noise_robustness`
Acquisition study   ``acquisition-ablation``    :mod:`.ablations`
Model study         ``model-ablation``          :mod:`.ablations`
==================  ==========================  ==========================

Every artifact registers an :class:`~repro.experiments.registry.ExperimentSpec`
declaring how it decomposes into seeded, order-independent,
checkpointable work units and how completed units fold into its report.
The registry is the only way an artifact is computed, on one of two
backends that share the registry's executor core (one unit context, one
worker map, one fold loop): in memory
(:func:`~repro.experiments.registry.run_artifacts`, what plain
``run_all`` uses; ``run_artifacts(scale, [name])[name]`` returns one
artifact) or through the sharded, resumable, multi-host task queue of
:mod:`repro.experiments.runner` (``run_all --paper-run``), which adds
only its run directory.
Both take an :class:`repro.experiments.config.ExperimentScale`
(``smoke``, ``laptop`` or ``paper``) and return result objects with a
``render()`` method that prints the same rows/series the paper reports.
The command line is ``python -m repro.experiments.run_all``; this package
does not import that module, so ``python -m`` runs it without a warning.
"""

from .ablations import AblationResult, AblationRow
from .config import ExperimentScale
from .figure1 import Figure1Result
from .figure2 import Figure2Result
from .figure5 import Figure5Result, figure5_from_table1
from .figure6 import PAPER_FIGURE6_BENCHMARKS, Figure6Result
from .noise_robustness import NoiseRobustnessResult, scaled_benchmark
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
from .table1 import PAPER_TABLE1_SPEEDUPS, Table1Result, table1_from_comparisons
from .table2 import Table2Result

__all__ = [
    "AblationResult",
    "AblationRow",
    "ExperimentScale",
    "Figure1Result",
    "Figure2Result",
    "Figure5Result",
    "figure5_from_table1",
    "PAPER_FIGURE6_BENCHMARKS",
    "Figure6Result",
    "NoiseRobustnessResult",
    "scaled_benchmark",
    "PaperScaleSmokeResult",
    "run_paper_scale_smoke",
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
    "table1_from_comparisons",
    "Table2Result",
]
