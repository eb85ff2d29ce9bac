"""Tests of the public API surface: imports, exports and documentation.

A downstream user should be able to reach everything through the documented
package entry points; these tests pin the public names so accidental
breakage of the API surface is caught.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro


def _source_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


PACKAGES = [
    "repro.core",
    "repro.models",
    "repro.spapt",
    "repro.measurement",
    "repro.machine",
    "repro.ir",
    "repro.experiments",
]

#: The documented public API surface: these modules must carry substantive
#: module docstrings (README and docs/ link into them).
DOCUMENTED_MODULES = [
    "repro",
    "repro.core.learner",
    "repro.models.dynamic_tree",
    "repro.experiments.registry",
    "repro.experiments.run_all",
    "repro.experiments.runner",
]


class TestImports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_subpackage_importable(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} has no module docstring"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} is exported but missing"

    def test_version_present(self):
        assert repro.__version__

    @pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
    def test_public_surface_module_docstrings(self, module_name):
        """The public API surface carries non-empty module docstrings."""
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module_name} has no module docstring"
        )
        # Substantive documentation, not a placeholder one-liner.
        assert len(module.__doc__.strip()) > 120, (
            f"{module_name}'s module docstring is a stub"
        )


class TestDocumentedQuickstart:
    def test_readme_quickstart_names_exist(self):
        """The names used by the README quickstart are part of the public API."""
        from repro.core import ActiveLearner, LearnerConfig, build_test_set, sequential_plan
        from repro.spapt import get_benchmark

        assert callable(build_test_set)
        assert callable(sequential_plan)
        assert callable(get_benchmark)
        assert ActiveLearner is not None
        assert LearnerConfig is not None

    def test_core_public_classes_have_docstrings(self):
        from repro import core, models

        for module in (core, models):
            for name in module.__all__:
                obj = getattr(module, name)
                if isinstance(obj, type):
                    assert obj.__doc__, f"{module.__name__}.{name} lacks a docstring"

    def test_benchmark_names_are_the_papers_eleven(self):
        from repro.spapt import benchmark_names

        assert benchmark_names() == [
            "adi",
            "atax",
            "bicgkernel",
            "correlation",
            "dgemv3",
            "gemver",
            "hessian",
            "jacobi",
            "lu",
            "mm",
            "mvt",
        ]

    def test_paper_reference_tables_are_consistent(self):
        from repro.experiments import PAPER_TABLE1_SPEEDUPS
        from repro.spapt import PAPER_SEARCH_SPACE_SIZES

        assert set(PAPER_TABLE1_SPEEDUPS) == set(PAPER_SEARCH_SPACE_SIZES)


class TestRunAll:
    def test_run_all_smoke(self):
        from repro.experiments import ExperimentScale
        from repro.experiments.run_all import run_all

        report = run_all(ExperimentScale.smoke(benchmarks=("mm",)))
        assert "Table 1" in report
        assert "Table 2" in report
        assert "Figure 1" in report
        assert "Figure 2" in report
        assert "Figure 5" in report
        assert "Figure 6" in report

    def test_scale_lookup(self):
        from repro.experiments.run_all import _scale_from_name

        assert _scale_from_name("smoke").name == "smoke"
        with pytest.raises(ValueError):
            _scale_from_name("huge")

    def test_help_is_self_explanatory_about_paper_runs(self, capsys):
        """`run_all --help` documents the sharded paper-run workflow."""
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for needle in ("--paper-run", "--resume", "--run-dir", "--workers"):
            assert needle in out, f"--help does not mention {needle}"
        assert "checkpoint" in out
        assert "worker processes" in out

    @pytest.mark.parametrize("module", ["run_all"])
    def test_module_entry_point_does_not_warn(self, module):
        """`python -m repro.experiments.<module>` runs clean under -W error:
        the package must not import the entry point's module eagerly."""
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", f"repro.experiments.{module}", "--help"],
            env=_source_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

    def test_package_import_leaves_entry_points_unimported(self):
        """`import repro.experiments` does not import ``run_all``, the one
        module with a ``__main__`` block, so it cannot warn under
        ``python -m``."""
        package = pathlib.Path(repro.__file__).parent / "experiments"
        entry_points = {
            f"repro.experiments.{path.stem}"
            for path in package.glob("*.py")
            if 'if __name__ == "__main__"' in path.read_text()
        }
        assert entry_points == {"repro.experiments.run_all"}
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.experiments; print(' '.join(sys.modules))",
            ],
            env=_source_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert not entry_points & set(completed.stdout.split())

    def test_runner_api_exported(self):
        from repro.experiments import (
            ExperimentRunner,
            ExperimentSpec,
            RunManifest,
            RunnerError,
            UnitContext,
            WorkUnit,
            get_spec,
            run_artifacts,
            run_paper_run,
            spec_names,
        )
        from repro.core import TuningSession

        for obj in (ExperimentRunner, ExperimentSpec, RunManifest, RunnerError,
                    UnitContext, WorkUnit, get_spec, run_artifacts,
                    run_paper_run, spec_names, TuningSession):
            assert obj.__doc__

    def test_every_registered_spec_satisfies_the_contract(self):
        """Each spec declares name/title, resolves its dependencies, and
        its unit ids are namespaced by the artifact."""
        from repro.experiments import get_spec, spec_names

        for name in spec_names():
            spec = get_spec(name)
            assert spec.name == name
            assert spec.title
            for dependency in spec.depends_on:
                assert get_spec(dependency) is not spec
            from repro.experiments import ExperimentScale

            units = spec.work_units(ExperimentScale.smoke(benchmarks=("mm",)))
            assert all(unit.unit_id.startswith(name) for unit in units)
