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

import importlib

#: Re-exported name -> the submodule defining it.  Every name resolves on
#: first use: importing the modules here would put the ones with a
#: ``__main__`` block in ``sys.modules`` before ``python -m
#: repro.experiments.<module>`` executes them, which makes runpy warn.
_EXPORTS = {
    "AblationResult": "ablations",
    "AblationRow": "ablations",
    "run_acquisition_ablation": "ablations",
    "run_model_ablation": "ablations",
    "ExperimentScale": "config",
    "Figure1Result": "figure1",
    "run_figure1": "figure1",
    "Figure2Result": "figure2",
    "run_figure2": "figure2",
    "Figure5Result": "figure5",
    "figure5_from_table1": "figure5",
    "run_figure5": "figure5",
    "PAPER_FIGURE6_BENCHMARKS": "figure6",
    "Figure6Result": "figure6",
    "run_figure6": "figure6",
    "NoiseRobustnessResult": "noise_robustness",
    "run_noise_robustness": "noise_robustness",
    "scaled_benchmark": "noise_robustness",
    "PaperScaleSmokeResult": "paper_scale",
    "run_paper_scale_smoke": "paper_scale",
    "run_all": "run_all",
    "DEFAULT_ARTIFACTS": "registry",
    "ExperimentSpec": "registry",
    "UnitContext": "registry",
    "WorkUnit": "registry",
    "get_spec": "registry",
    "run_artifacts": "registry",
    "spec_names": "registry",
    "ExperimentRunner": "runner",
    "RunManifest": "runner",
    "RunnerError": "runner",
    "run_paper_run": "runner",
    "PAPER_TABLE1_SPEEDUPS": "table1",
    "Table1Result": "table1",
    "run_table1": "table1",
    "table1_from_comparisons": "table1",
    "Table2Result": "table2",
    "run_table2": "table2",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # The ``run_all`` submodule shares the function's name: once the
    # submodule has been imported, the package attribute names the
    # module, so code that imports the submodule first should take the
    # function from it directly.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
