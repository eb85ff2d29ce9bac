"""Tests for the simulated profiler and its cost ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.noise import NoiseModel, NoiseProfile, noise_model_from_profile
from repro.measurement.profiler import CostLedger, Profiler

from _helpers import StubProgram


class TestCostLedger:
    def test_totals(self):
        ledger = CostLedger()
        ledger.charge_compile(2.0)
        ledger.charge_run(1.5)
        ledger.charge_run(0.5)
        assert ledger.compile_seconds == 2.0
        assert ledger.runtime_seconds == 2.0
        assert ledger.total_seconds == 4.0
        assert ledger.compilations == 1
        assert ledger.executions == 2

    def test_rejects_negative(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.charge_compile(-1.0)
        with pytest.raises(ValueError):
            ledger.charge_run(-1.0)

    def test_snapshot_is_independent(self):
        ledger = CostLedger()
        ledger.charge_run(1.0)
        snap = ledger.snapshot()
        ledger.charge_run(1.0)
        assert snap.runtime_seconds == 1.0
        assert ledger.runtime_seconds == 2.0


class TestProfiler:
    def test_noiseless_measurement_equals_truth(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        values = profiler.measure((1, 2), repetitions=3)
        assert np.allclose(values, 1.0 + 0.1 * 1 + 0.01 * 2)

    def test_compile_charged_once_per_configuration(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        profiler.measure((0, 0), repetitions=2)
        profiler.measure((0, 0), repetitions=2)
        profiler.measure((1, 0), repetitions=1)
        assert profiler.ledger.compilations == 2
        assert profiler.ledger.compile_seconds == pytest.approx(1.0)
        assert profiler.ledger.executions == 5

    def test_compile_charged_every_time_when_disabled(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng, charge_compile_once=False)
        profiler.measure((0, 0))
        profiler.measure((0, 0))
        assert profiler.ledger.compilations == 2

    def test_runtime_cost_accumulates_observed_values(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        values = profiler.measure((3, 0), repetitions=4)
        assert profiler.ledger.runtime_seconds == pytest.approx(float(values.sum()))

    def test_observation_counts_and_summary(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        assert profiler.observation_count((5, 5)) == 0
        profiler.measure((5, 5), repetitions=3)
        profiler.measure((5, 5), repetitions=2)
        assert profiler.observation_count((5, 5)) == 5
        summary = profiler.summary((5, 5))
        assert summary.count == 5
        assert profiler.mean_runtime((5, 5)) == pytest.approx(summary.mean)

    def test_unknown_configuration_raises(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        with pytest.raises(KeyError):
            profiler.summary((9, 9))
        with pytest.raises(KeyError):
            profiler.mean_runtime((9, 9))

    def test_rejects_zero_repetitions(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        with pytest.raises(ValueError):
            profiler.measure((1, 1), repetitions=0)

    def test_measure_many(self, stub_program, rng):
        profiler = Profiler(stub_program, rng=rng)
        results = profiler.measure_many([(0, 0), (1, 1)], repetitions=2)
        assert len(results) == 2
        assert all(r.shape == (2,) for r in results)

    def test_noisy_measurements_vary_but_stay_reproducible(self):
        program = StubProgram(noise_model_from_profile(NoiseProfile(interference_sigma=0.05)))
        a = Profiler(program, rng=np.random.default_rng(11)).measure((1, 1), repetitions=10)
        program2 = StubProgram(noise_model_from_profile(NoiseProfile(interference_sigma=0.05)))
        b = Profiler(program2, rng=np.random.default_rng(11)).measure((1, 1), repetitions=10)
        np.testing.assert_allclose(a, b)
        assert np.std(a) > 0

    def test_spapt_benchmark_satisfies_protocol(self, mm_benchmark, rng):
        profiler = Profiler(mm_benchmark, rng=rng)
        configuration = mm_benchmark.search_space.default_configuration()
        values = profiler.measure(configuration, repetitions=3)
        assert values.shape == (3,)
        assert np.all(values > 0)
        assert profiler.ledger.total_seconds > 0
