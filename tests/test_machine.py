"""Tests for the machine model: cache hierarchy, core model, cost model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.transforms import CacheTile, LoopUnroll, UnrollAndJam
from repro.machine.cache import CacheLevel, MemoryHierarchy, haswell_hierarchy
from repro.machine.cpu import CoreModel, haswell_core
from repro.machine.cost_model import MachineCostModel, TransformConfiguration
from repro.spapt.kernels import build_mm


class TestCacheLevel:
    def test_hit_probability_monotone_in_footprint(self):
        level = CacheLevel("L1", 32 * 1024, 64, 4.0)
        small = level.hit_probability(1024)
        boundary = level.hit_probability(level.effective_capacity)
        large = level.hit_probability(10 * 1024 * 1024)
        assert small > boundary > large
        assert boundary == pytest.approx(0.5)

    def test_zero_footprint_always_hits(self):
        level = CacheLevel("L1", 32 * 1024, 64, 4.0)
        assert level.hit_probability(0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheLevel("L1", 0, 64, 4.0)
        with pytest.raises(ValueError):
            CacheLevel("L1", 1024, 64, 4.0, utilization=0.0)


class TestMemoryHierarchy:
    def test_levels_must_be_ordered(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                levels=(
                    CacheLevel("L2", 256 * 1024, 64, 12.0),
                    CacheLevel("L1", 32 * 1024, 64, 4.0),
                )
            )

    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(levels=())

    def test_small_footprint_costs_l1_latency(self):
        hierarchy = haswell_hierarchy()
        cycles = hierarchy.expected_access_cycles(1024, stride_bytes=8)
        assert cycles == pytest.approx(hierarchy.l1.latency_cycles, rel=0.2)

    def test_streaming_dram_costs_more_than_l1(self):
        hierarchy = haswell_hierarchy()
        cached = hierarchy.expected_access_cycles(1024, stride_bytes=8)
        streaming = hierarchy.expected_access_cycles(1e9, stride_bytes=512)
        assert streaming > cached * 10

    def test_unit_stride_amortises_line_fills(self):
        hierarchy = haswell_hierarchy()
        unit = hierarchy.expected_access_cycles(1e9, stride_bytes=8)
        strided = hierarchy.expected_access_cycles(1e9, stride_bytes=512)
        assert unit < strided

    def test_zero_stride_is_cheapest(self):
        hierarchy = haswell_hierarchy()
        repeated = hierarchy.expected_access_cycles(1e9, stride_bytes=0)
        assert repeated == pytest.approx(hierarchy.l1.latency_cycles)

    def test_cost_monotone_in_footprint(self):
        hierarchy = haswell_hierarchy()
        footprints = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
        costs = [hierarchy.expected_access_cycles(f, 8) for f in footprints]
        assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_boundary_proximity_peaks_at_capacity(self):
        hierarchy = haswell_hierarchy()
        l1 = hierarchy.levels[0].effective_capacity
        at_boundary = hierarchy.boundary_proximity(l1)
        far_below = hierarchy.boundary_proximity(l1 / 100)
        assert at_boundary == pytest.approx(1.0)
        assert far_below < 0.1
        assert hierarchy.boundary_proximity(0.0) == 0.0


class TestCoreModel:
    def test_loop_overhead_amortised_by_unrolling(self):
        core = haswell_core()
        assert core.loop_overhead_cycles(8) == pytest.approx(
            core.loop_overhead_cycles(1) / 8
        )
        with pytest.raises(ValueError):
            core.loop_overhead_cycles(0)

    def test_register_pressure_multiplier_shape(self):
        core = haswell_core()
        low = core.register_pressure_multiplier(8)
        onset = core.register_pressure_multiplier(
            core.vector_registers * core.spill_onset_ratio
        )
        high = core.register_pressure_multiplier(1000)
        assert low == 1.0
        assert onset == pytest.approx(1.0)
        assert 1.0 < high <= 1.0 + core.spill_max_slowdown + 1e-9

    def test_register_pressure_rejects_negative(self):
        with pytest.raises(ValueError):
            haswell_core().register_pressure_multiplier(-1)

    def test_icache_multiplier(self):
        core = haswell_core()
        assert core.icache_multiplier(10) == 1.0
        big = core.icache_multiplier(1_000_000)
        assert 1.0 < big <= 1.0 + core.icache_max_slowdown + 1e-9

    def test_compute_and_issue_cycles(self):
        core = haswell_core()
        assert core.compute_cycles(8) == pytest.approx(8 / core.flops_per_cycle)
        assert core.issue_cycles(4, 1) == pytest.approx(
            max(4 / core.load_ports, 1 / core.store_ports)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreModel(frequency_ghz=0.0)
        with pytest.raises(ValueError):
            CoreModel(vector_registers=0)


class TestTransformConfiguration:
    def test_defaults_are_identity(self):
        config = TransformConfiguration()
        assert config.unroll_factor("i") == 1
        assert config.cache_tile("i") is None
        assert config.register_tile("i") == 1

    def test_tile_of_one_means_untiled(self):
        config = TransformConfiguration(cache_tiles={"i": 1})
        assert config.cache_tile("i") is None

    def test_rejects_non_positive_factors(self):
        with pytest.raises(ValueError):
            TransformConfiguration(unroll={"i": 0})
        with pytest.raises(ValueError):
            TransformConfiguration(register_tiles={"i": -2})


class TestMachineCostModel:
    @pytest.fixture(scope="class")
    def model(self):
        return MachineCostModel(build_mm(n=256))

    def test_runtime_positive_and_finite(self, model):
        runtime = model.runtime_seconds(TransformConfiguration())
        assert 0 < runtime < 1e3

    def test_breakdown_sums_to_total(self, model):
        breakdown = model.breakdown(TransformConfiguration())
        expected = (
            max(breakdown.compute_seconds, breakdown.memory_seconds)
            + breakdown.overhead_seconds
            + breakdown.spill_seconds
            + breakdown.icache_seconds
        )
        assert breakdown.total_seconds == pytest.approx(expected)

    def test_inner_unrolling_reduces_overhead(self, model):
        base = model.breakdown(TransformConfiguration())
        unrolled = model.breakdown(TransformConfiguration(unroll={"k": 8}))
        assert unrolled.overhead_seconds < base.overhead_seconds

    def test_cache_tiling_reduces_memory_time(self, model):
        base = model.breakdown(TransformConfiguration())
        tiled = model.breakdown(TransformConfiguration(cache_tiles={"j": 64, "k": 64}))
        assert tiled.memory_seconds < base.memory_seconds

    def test_extreme_unrolling_slower_than_moderate(self, model):
        moderate = model.runtime_seconds(TransformConfiguration(unroll={"k": 4}))
        extreme = model.runtime_seconds(
            TransformConfiguration(unroll={"i": 30, "j": 30, "k": 32})
        )
        assert extreme > moderate

    def test_register_tiling_reduces_loads(self, model):
        base = model.breakdown(TransformConfiguration())
        tiled = model.breakdown(TransformConfiguration(register_tiles={"i": 4}))
        assert tiled.memory_seconds < base.memory_seconds

    def test_compile_time_grows_with_unrolling(self, model):
        small = model.compile_seconds(TransformConfiguration())
        big = model.compile_seconds(
            TransformConfiguration(unroll={"i": 16, "j": 16, "k": 16})
        )
        assert big > small

    def test_compile_time_is_capped(self, model):
        huge = model.compile_seconds(
            TransformConfiguration(unroll={"i": 30, "j": 30, "k": 32}, register_tiles={"i": 8})
        )
        assert huge < 120.0

    def test_noise_sensitivity_in_unit_interval(self, model):
        for tiles in [{}, {"j": 64}, {"j": 64, "k": 64}, {"j": 512}]:
            value = model.noise_sensitivity(TransformConfiguration(cache_tiles=tiles))
            assert 0.0 <= value <= 1.0

    def test_time_scale_scales_runtime(self):
        kernel = build_mm(n=64)
        base = MachineCostModel(kernel, time_scale=1.0)
        scaled = MachineCostModel(kernel, time_scale=2.0)
        config = TransformConfiguration()
        assert scaled.runtime_seconds(config) == pytest.approx(
            2.0 * base.runtime_seconds(config)
        )

    def test_rejects_bad_time_scale(self):
        with pytest.raises(ValueError):
            MachineCostModel(build_mm(n=32), time_scale=0.0)

    def test_closed_form_matches_transformed_ir_statement_count(self):
        """The cost model's unroll product equals what the real passes generate."""
        kernel = build_mm(n=64)
        model = MachineCostModel(kernel)
        config = TransformConfiguration(unroll={"k": 4}, register_tiles={"i": 2})
        transformed = LoopUnroll("k", 4).run(UnrollAndJam("i", 2).run(kernel))
        from repro.ir.analysis import innermost_bodies

        generated = innermost_bodies(transformed)[0].statements
        # Compile time is 1 s plus 0.0015 s x (generated statements)^0.8.
        assert model.compile_seconds(config) == pytest.approx(
            1.0 + 0.0015 * generated ** 0.8, rel=1e-12
        )


# --------------------------------------------------------------------------
# Property-based tests
# --------------------------------------------------------------------------

unroll_factors = st.integers(min_value=1, max_value=32)
tile_sizes = st.sampled_from([1, 16, 32, 64, 128, 256, 512])


@given(ui=unroll_factors, uk=unroll_factors, tj=tile_sizes, tk=tile_sizes)
@settings(max_examples=40, deadline=None)
def test_runtime_always_positive_and_finite_property(ui, uk, tj, tk):
    model = MachineCostModel(build_mm(n=128))
    config = TransformConfiguration(
        unroll={"i": ui, "k": uk}, cache_tiles={"j": tj, "k": tk}
    )
    runtime = model.runtime_seconds(config)
    compile_time = model.compile_seconds(config)
    sensitivity = model.noise_sensitivity(config)
    assert runtime > 0 and runtime < 1e4
    assert compile_time > 0 and compile_time < 1e3
    assert 0.0 <= sensitivity <= 1.0
