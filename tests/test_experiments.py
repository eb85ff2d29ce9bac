"""Tests for the experiment harness (tables, figures, reporting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.figure5 import figure5_from_table1
from repro.experiments.figure6 import PAPER_FIGURE6_BENCHMARKS
from repro.experiments.registry import run_artifacts
from repro.experiments.reporting import format_scientific, format_table, to_csv
from repro.experiments.table1 import PAPER_TABLE1_SPEEDUPS


SCALE = ExperimentScale.smoke(benchmarks=("mm",))


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_scientific(self):
        assert format_scientific(3.78e14) == "3.78e+14"

    def test_to_csv(self):
        text = to_csv(["a", "b"], [[1, 2], [3, 4]])
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[2] == "3,4"


class TestExperimentScale:
    def test_three_scales_exist(self):
        assert ExperimentScale.smoke().name == "smoke"
        assert ExperimentScale.laptop().name == "laptop"
        assert ExperimentScale.paper().name == "paper"

    def test_laptop_covers_all_benchmarks(self):
        assert len(ExperimentScale.laptop().benchmarks) == 11

    def test_paper_scale_parameters(self):
        paper = ExperimentScale.paper()
        assert paper.dataset_configurations == 10_000
        assert paper.test_size == 2500
        assert paper.repetitions == 10
        assert paper.learner.max_training_examples == 2500

    def test_comparison_config_propagates(self):
        scale = ExperimentScale.smoke()
        config = scale.comparison_config()
        assert config.repetitions == scale.repetitions
        assert config.test_size == scale.test_size


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_artifacts(SCALE, ["table1"])["table1"]

    def test_rows_per_benchmark(self, result):
        assert [row.benchmark for row in result.rows] == ["mm"]
        row = result.rows[0]
        assert row.speedup > 0
        assert row.baseline_cost_seconds > 0
        assert row.our_cost_seconds > 0
        assert row.lowest_common_rmse > 0

    def test_speedup_consistency(self, result):
        row = result.rows[0]
        assert row.speedup == pytest.approx(
            row.baseline_cost_seconds / row.our_cost_seconds
        )

    def test_speedup_factor_reported(self, result):
        """Every row carries the multi-level AUC-ratio speed-up and the
        rendered table exposes it next to the single-level metric."""
        assert result.rows[0].speedup_factor > 0
        assert result.geometric_mean_speedup_factor > 0
        assert "speed-up factor" in result.render()

    def test_geometric_mean(self, result):
        assert result.geometric_mean_speedup == pytest.approx(result.rows[0].speedup)

    def test_paper_reference_numbers(self, result):
        assert result.rows[0].paper_speedup == PAPER_TABLE1_SPEEDUPS["mm"]
        assert result.paper_geometric_mean_speedup == pytest.approx(1.11, abs=0.01)

    def test_render_contains_headline_columns(self, result):
        text = result.render()
        assert "lowest common RMSE" in text
        assert "geometric mean" in text
        assert "mm" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_artifacts(SCALE, ["table2"])["table2"]

    def test_row_fields_ordered(self, result):
        row = result.rows[0]
        assert row.variance_min <= row.variance_mean <= row.variance_max
        assert row.ci35_min <= row.ci35_mean <= row.ci35_max
        assert row.ci5_min <= row.ci5_mean <= row.ci5_max

    def test_smaller_samples_have_wider_intervals(self, result):
        row = result.rows[0]
        assert row.ci5_mean >= row.ci35_mean

    def test_render(self, result):
        assert "Table 2" in result.render()

    def test_noisy_benchmark_has_larger_variance(self):
        scale = ExperimentScale.smoke(benchmarks=("mvt", "correlation"))
        result = run_artifacts(scale, ["table2"])["table2"]
        by_name = {row.benchmark: row for row in result.rows}
        assert (
            by_name["correlation"].variance_mean > by_name["mvt"].variance_mean * 10
        )


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        scale = ExperimentScale.smoke(benchmarks=("mm",))
        return run_artifacts(scale, ["figure1"])["figure1"]

    def test_grid_is_square(self, result):
        grid = result.grid("single_sample_mae")
        assert grid.shape[0] == grid.shape[1]
        assert np.all(grid >= 0)

    def test_optimal_plan_uses_fewer_runs(self, result):
        assert result.total_optimal_runs < result.total_fixed_plan_runs
        assert result.total_optimal_runs >= len(result.cells)

    def test_sample_counts_bounded(self, result):
        samples = result.grid("optimal_samples")
        assert samples.min() >= 1
        assert samples.max() <= result.observations_per_point

    def test_render(self, result):
        assert "Figure 1 summary" in result.render()


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        scale = ExperimentScale.smoke(benchmarks=("adi",))
        return run_artifacts(scale, ["figure2"])["figure2"]

    def test_sweep_covers_unroll_factors(self, result):
        factors = [p.unroll_factor for p in result.points]
        assert factors == sorted(factors)
        assert factors[0] == 1
        assert factors[-1] >= 28

    def test_plateau_climb_shape(self, result):
        assert result.high_plateau > result.low_plateau

    def test_render(self, result):
        assert "Figure 2" in result.render()


class TestFigure5And6:
    def test_figure5_from_table1(self):
        table1 = run_artifacts(SCALE, ["table1"])["table1"]
        figure5 = figure5_from_table1(table1)
        assert len(figure5.bars) == len(table1.rows)
        assert figure5.geometric_mean_speedup == pytest.approx(
            table1.geometric_mean_speedup
        )
        assert "Figure 5" in figure5.render()

    def test_figure6_panels(self):
        result = run_artifacts(SCALE, ["figure6"])["figure6"]
        assert set(result.panels) == {"mm"}
        panel = result.panels["mm"]
        series = panel.series("variable observations")
        assert len(series) >= 2
        assert all(cost >= 0 and rmse >= 0 for cost, rmse in series)
        assert "Figure 6 panel" in result.render()

    def test_figure6_default_benchmarks_are_the_papers(self):
        assert PAPER_FIGURE6_BENCHMARKS == (
            "adi",
            "atax",
            "correlation",
            "gemver",
            "jacobi",
            "mvt",
        )


class TestPaperScaleSmoke:
    def test_smoke_runner_completes_end_to_end(self):
        """The paper-scale entry point runs Algorithm 1 end to end.

        Scaled down (50 particles, 12 examples) so the test is fast; the
        real 5000-particle configuration is exercised by
        ``run_all --paper-scale-smoke``.
        """
        from repro.experiments.paper_scale import run_paper_scale_smoke

        result = run_paper_scale_smoke(
            benchmark="mm",
            training_examples=12,
            particles=50,
            candidates=25,
            test_size=40,
        )
        assert result.particles == 50
        assert result.training_examples == 12
        assert result.final_rmse > 0
        assert result.wall_seconds > 0
        rendered = result.render()
        assert "Paper-scale smoke run" in rendered
        assert "training examples    : 12" in rendered

    def test_paper_scale_defaults_match_the_paper(self):
        """Without overrides the smoke uses the paper's model settings."""
        import dataclasses

        from repro.core.learner import LearnerConfig

        config = LearnerConfig.paper_scale()
        config = dataclasses.replace(config, max_training_examples=40)
        assert config.tree_particles == 5000
        assert config.n_candidates == 500

    def test_run_all_flag_dispatches_to_smoke(self, capsys, monkeypatch):
        import importlib

        run_all_module = importlib.import_module("repro.experiments.run_all")
        from repro.experiments.paper_scale import PaperScaleSmokeResult

        calls = {}

        def fake_smoke(benchmark, training_examples):
            calls["benchmark"] = benchmark
            calls["examples"] = training_examples
            return PaperScaleSmokeResult(
                benchmark=benchmark,
                particles=5000,
                candidates=500,
                training_examples=training_examples,
                wall_seconds=1.0,
                seconds_per_example=0.1,
                final_rmse=0.5,
                best_rmse=0.4,
                simulated_cost_seconds=10.0,
            )

        monkeypatch.setattr(run_all_module, "run_paper_scale_smoke", fake_smoke)
        assert (
            run_all_module.main(
                ["--paper-scale-smoke", "--smoke-benchmark", "adi", "--smoke-examples", "17"]
            )
            == 0
        )
        assert calls == {"benchmark": "adi", "examples": 17}
        assert "Paper-scale smoke run" in capsys.readouterr().out

    def test_run_all_rejects_too_few_smoke_examples(self, capsys):
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit):
            main(["--paper-scale-smoke", "--smoke-examples", "5"])
        assert "--smoke-examples must leave room" in capsys.readouterr().err


class TestCheckRegressionGate:
    """The BENCH_model.json perf gate (benchmarks/check_regression.py)."""

    @pytest.fixture()
    def gate(self):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "check_regression.py"
        )
        spec = importlib.util.spec_from_file_location("check_regression", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _payload(**means):
        return {
            "benchmarks": [
                {
                    "name": name,
                    "group": "model-update" if "update" in name else "predict-alc",
                    "stats": {"mean": mean},
                }
                for name, mean in means.items()
            ]
        }

    def test_passes_when_within_threshold(self, gate):
        baseline = self._payload(update_bench=1.0, alc_bench=0.5)
        current = self._payload(update_bench=1.1, alc_bench=0.45)
        regressions, notes = gate.compare(baseline, current)
        assert regressions == []
        assert any("IMPROVED" in line for line in notes)

    def test_fails_on_regression_beyond_threshold(self, gate):
        baseline = self._payload(update_bench=1.0)
        current = self._payload(update_bench=1.3)
        regressions, _ = gate.compare(baseline, current)
        assert len(regressions) == 1
        assert "update_bench" in regressions[0]

    def test_new_and_retired_benchmarks_never_fail(self, gate):
        baseline = self._payload(old_update_bench=1.0)
        current = self._payload(new_update_bench=2.0)
        regressions, notes = gate.compare(baseline, current)
        assert regressions == []
        assert any("NEW" in line for line in notes)
        assert any("RETIRED" in line for line in notes)

    def test_only_gated_groups_are_compared(self, gate):
        baseline = {
            "benchmarks": [
                {"name": "figure_bench", "group": "figure1", "stats": {"mean": 1.0}}
            ]
        }
        current = {
            "benchmarks": [
                {"name": "figure_bench", "group": "figure1", "stats": {"mean": 9.0}}
            ]
        }
        regressions, notes = gate.compare(baseline, current)
        assert regressions == []
        assert notes == []

    def test_gate_against_committed_baseline(self, gate):
        """The real invocation path: current BENCH_model.json vs git HEAD."""
        current = gate.BENCH_JSON
        if not current.is_file():
            pytest.skip("no BENCH_model.json in the working tree")
        baseline = gate._load_baseline("HEAD")
        if baseline is None:
            pytest.skip("no committed BENCH_model.json at HEAD")
        payload = __import__("json").loads(current.read_text("utf-8"))
        regressions, _ = gate.compare(baseline, payload, threshold=1e9)
        assert regressions == []
