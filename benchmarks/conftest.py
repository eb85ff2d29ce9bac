"""Shared configuration for the benchmark harness.

Every artifact benchmark computes one of the paper's tables/figures
through the experiment registry (``run_artifacts(scale, [name])[name]``,
the path ``run_all`` reports from) on a scaled-down
:class:`repro.experiments.ExperimentScale`, and prints the same rows/series
the paper reports; the ablation and kernel benchmarks drive the learner and
the models directly.  The scale is deliberately small so the whole harness
finishes in a few minutes; pass ``--bench-scale=laptop`` for the larger
laptop-scale configuration, or use ``python -m repro.experiments.run_all``
(see ``docs/reproduction.md``) for full reports at any scale.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import pytest

from repro.core.learner import LearnerConfig
from repro.experiments.config import ExperimentScale

#: Machine-readable benchmark results land here (pytest-benchmark's JSON
#: export) when a run passes ``--bench-export``, so the perf trajectory of
#: the model hot paths is tracked across PRs.  Any other run, the test
#: suite included, leaves the tracked baseline alone.  An explicit
#: ``--benchmark-json=...`` on the command line wins.
BENCH_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_model.json"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="bench",
        choices=["bench", "laptop"],
        help="Scale of the experiment benchmarks (default: bench, a fast configuration).",
    )
    parser.addoption(
        "--bench-export",
        action="store_true",
        default=False,
        help="Merge this run's timings into the tracked BENCH_model.json "
        "(the make bench targets pass it).",
    )


def pytest_configure(config):
    # Warm up before every timed measurement with exactly ONE throwaway run
    # of the benchmarked callable: NumPy's allocator warm-up must never
    # pollute recorded means.  The
    # warmup-iterations pin matters: pytest-benchmark's default of 100 000
    # would replay *every calibrated round* as warm-up, which grows the
    # stateful update benchmarks' models before timing starts and inflates
    # their means several-fold.  Calibrated benchmarks honour these options
    # directly; the ``pedantic`` benchmarks pass an explicit
    # ``warmup_rounds=1`` (the options do not apply there).  Explicit
    # ``--benchmark-warmup*`` flags on the command line win.
    if not any(
        arg.startswith("--benchmark-warmup") for arg in config.invocation_params.args
    ) and hasattr(config.option, "benchmark_warmup"):
        config.option.benchmark_warmup = True
        config.option.benchmark_warmup_iterations = 1

    benchmark_json = getattr(config.option, "benchmark_json", "missing")
    if benchmark_json is None and config.getoption("--bench-export"):
        # pytest-benchmark is installed and no JSON target was given: export
        # to a scratch file first and publish to the tracked BENCH_model.json
        # only once the run has produced results (see pytest_unconfigure) —
        # opening the tracked file here would truncate the previous record on
        # every collection, aborted run or benchmark-free invocation.
        handle = tempfile.NamedTemporaryFile(
            mode="wb", suffix=".json", prefix="bench-model-", delete=False
        )
        config._bench_json_scratch = handle.name
        config.option.benchmark_json = handle


def pytest_unconfigure(config):
    scratch = getattr(config, "_bench_json_scratch", None)
    if scratch is None:
        return
    try:
        with open(scratch, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("benchmarks"):
            # Merge into the tracked record by benchmark name, so a partial
            # run (one file, a -k subset) refreshes its own entries without
            # dropping the rest of the perf history.
            try:
                previous = json.loads(BENCH_JSON_PATH.read_text("utf-8"))
                measured = {bench["name"] for bench in data["benchmarks"]}
                kept = [
                    bench
                    for bench in previous.get("benchmarks", [])
                    if bench.get("name") not in measured
                ]
                data["benchmarks"] = sorted(
                    kept + data["benchmarks"], key=lambda bench: bench.get("name", "")
                )
            except (OSError, ValueError, KeyError, TypeError):
                pass
            BENCH_JSON_PATH.write_text(json.dumps(data, indent=4) + "\n", "utf-8")
    except (OSError, ValueError):
        # Aborted or benchmark-free run: keep the previous tracked record.
        pass
    finally:
        try:
            os.unlink(scratch)
        except OSError:
            pass


def _bench_scale(benchmarks) -> ExperimentScale:
    """A scale slightly larger than smoke but still fast enough to benchmark."""
    return ExperimentScale(
        name="bench",
        benchmarks=tuple(benchmarks),
        learner=LearnerConfig(
            n_initial=5,
            seed_observations=10,
            n_candidates=30,
            max_training_examples=70,
            reference_size=20,
            evaluation_interval=10,
            tree_particles=15,
        ),
        repetitions=1,
        test_size=120,
        test_observations=8,
        dataset_configurations=150,
        dataset_observations=20,
        figure1_grid=10,
        seed=2017,
    )


@pytest.fixture(scope="session")
def bench_scale_is_laptop(request):
    """True when the harness runs at the larger --bench-scale=laptop setting."""
    return request.config.getoption("--bench-scale") == "laptop"


@pytest.fixture(scope="session")
def scale_factory(request):
    """Factory returning an ExperimentScale restricted to the given benchmarks."""
    choice = request.config.getoption("--bench-scale")

    def factory(benchmarks):
        if choice == "laptop":
            return ExperimentScale.laptop(benchmarks=benchmarks)
        return _bench_scale(benchmarks)

    return factory
