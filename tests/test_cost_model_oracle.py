"""Bit-identity oracle for the machine cost model.

:class:`HistoricalCostModel` is the original per-call walk of the cost
model: every query re-derives the footprint of each reference from the
subscript expressions (``affine_coefficients`` per subscript, ``str`` of
every index to deduplicate references) and every public method evaluates
the configuration on its own.  :class:`repro.machine.MachineCostModel`
analyses the bodies once and shares one evaluation between runtime,
compile time and noise sensitivity; these tests assert that it returns
*exactly* (``==``) the same floats as this walk, over every SPAPT
benchmark and over a property-based sweep of ``mm``.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.analysis import InnermostBodyStats, innermost_bodies, reference_stride
from repro.ir.expr import affine_coefficients
from repro.ir.loopnest import ArrayRef, Kernel, Statement
from repro.machine.cache import MemoryHierarchy, haswell_hierarchy
from repro.machine.cost_model import (
    CostBreakdown,
    MachineCostModel,
    TransformConfiguration,
)
from repro.machine.cpu import CoreModel, haswell_core
from repro.spapt.kernels import build_mm
from repro.spapt.search_space import SearchSpace
from repro.spapt.suite import BENCHMARK_SPECS, SpaptBenchmark, benchmark_names

#: Seeded configurations checked per benchmark (plus the default one).
CONFIGURATIONS_PER_BENCHMARK = 300


class _BodyInfo:
    def __init__(self, **fields) -> None:
        self.__dict__.update(fields)


class HistoricalCostModel:
    """The per-call cost-model walk, kept as the reference implementation."""

    def __init__(
        self,
        kernel: Kernel,
        hierarchy: Optional[MemoryHierarchy] = None,
        core: Optional[CoreModel] = None,
        time_scale: float = 1.0,
        compile_base_seconds: float = 1.0,
        compile_per_statement_seconds: float = 0.0015,
        compile_statement_exponent: float = 0.8,
        compile_cap_seconds: float = 45.0,
    ) -> None:
        self._kernel = kernel
        self._hierarchy = hierarchy if hierarchy is not None else haswell_hierarchy()
        self._core = core if core is not None else haswell_core()
        self._time_scale = time_scale
        self._compile_base = compile_base_seconds
        self._compile_per_statement = compile_per_statement_seconds
        self._compile_exponent = compile_statement_exponent
        self._compile_cap = compile_cap_seconds
        self._bodies = [self._analyse_body(b) for b in innermost_bodies(kernel)]

    def _analyse_body(self, stats: InnermostBodyStats) -> _BodyInfo:
        chain = stats.context.loops
        loop_vars = tuple(loop.var for loop in chain)
        trip_counts: Dict[str, float] = {}
        bindings: Dict[str, int] = dict(self._kernel.sizes)
        for loop in chain:
            lower = loop.lower.evaluate(bindings)
            upper = loop.upper.evaluate(bindings)
            trip = max((upper - lower) / loop.step, 1.0)
            trip_counts[loop.var] = trip
            bindings[loop.var] = (lower + max(upper - 1, lower)) // 2
        statements = [
            node for node in stats.context.innermost.body if isinstance(node, Statement)
        ]
        refs: List[ArrayRef] = []
        for stmt in statements:
            refs.extend(stmt.refs())
        innermost_var = loop_vars[-1]
        array_dims: Dict[str, Tuple[int, ...]] = {}
        element_bytes: Dict[str, int] = {}
        strides: List[int] = []
        ref_loop_vars: List[frozenset] = []
        loop_var_set = set(loop_vars)
        for ref in refs:
            decl = self._kernel.array(ref.array)
            if ref.array not in array_dims:
                array_dims[ref.array] = tuple(
                    d.evaluate(self._kernel.sizes) for d in decl.dims
                )
                element_bytes[ref.array] = decl.element_bytes
            strides.append(
                reference_stride(
                    ref, innermost_var, self._kernel, array_dims[ref.array]
                )
            )
            ref_loop_vars.append(frozenset(ref.free_vars() & loop_var_set))
        return _BodyInfo(
            stats=stats,
            loop_vars=loop_vars,
            trip_counts=trip_counts,
            refs=tuple(refs),
            ref_strides=tuple(strides),
            ref_loop_vars=tuple(ref_loop_vars),
            array_dims=array_dims,
            element_bytes=element_bytes,
        )

    def runtime_seconds(self, configuration: TransformConfiguration) -> float:
        return self.breakdown(configuration).total_seconds * self._time_scale

    def breakdown(self, configuration: TransformConfiguration) -> CostBreakdown:
        compute = memory = overhead = spill = icache = 0.0
        for body in self._bodies:
            c, m, o, s, i = self._body_cycles(body, configuration)
            iterations = body.stats.iterations
            compute += c * iterations
            memory += m * iterations
            overhead += o * iterations
            spill += s * iterations
            icache += i * iterations
        cycle = self._core.cycle_seconds
        return CostBreakdown(
            compute_seconds=compute * cycle,
            memory_seconds=memory * cycle,
            overhead_seconds=overhead * cycle,
            spill_seconds=spill * cycle,
            icache_seconds=icache * cycle,
        )

    def compile_seconds(self, configuration: TransformConfiguration) -> float:
        generated_statements = 0.0
        tile_loops = sum(
            1
            for var, tile in configuration.cache_tiles.items()
            if tile and tile > 1
        )
        for body in self._bodies:
            unroll_product = self._unroll_product(body, configuration)
            generated_statements += body.stats.statements * unroll_product
        optimisation_cost = (
            self._compile_per_statement * generated_statements ** self._compile_exponent
        )
        return (
            self._compile_base
            + min(optimisation_cost, self._compile_cap)
            + 0.05 * tile_loops
        )

    def noise_sensitivity(self, configuration: TransformConfiguration) -> float:
        sensitivity = 0.0
        for body in self._bodies:
            for level in range(len(body.loop_vars)):
                footprint = self._tile_footprint_bytes(body, configuration, level)
                sensitivity = max(
                    sensitivity, self._hierarchy.boundary_proximity(footprint)
                )
            pressure = self._live_values(body, configuration) / self._core.vector_registers
            onset = self._core.spill_onset_ratio
            width = max(self._core.spill_transition_width, 1e-6)
            transition = math.exp(-(((pressure - (onset + width)) / width) ** 2))
            sensitivity = max(sensitivity, 0.6 * transition)
        return min(sensitivity, 1.0)

    def _unroll_product(
        self, body: _BodyInfo, configuration: TransformConfiguration
    ) -> int:
        product = 1
        for var in body.loop_vars:
            product *= configuration.unroll_factor(var)
            product *= configuration.register_tile(var)
        return product

    def _effective_extent(
        self, body: _BodyInfo, var: str, configuration: TransformConfiguration
    ) -> float:
        trip = body.trip_counts.get(var, 1.0)
        tile = configuration.cache_tile(var)
        if tile is not None and tile >= 1:
            return float(min(trip, tile))
        return trip

    def _touched_bytes(
        self,
        body: _BodyInfo,
        inner_vars: Sequence[str],
        configuration: TransformConfiguration,
    ) -> float:
        inner = set(inner_vars)
        seen: set[Tuple[str, Tuple[str, ...]]] = set()
        total = 0.0
        for ref in body.refs:
            key = (ref.array, tuple(str(i) for i in ref.indices))
            if key in seen:
                continue
            seen.add(key)
            dims = body.array_dims[ref.array]
            elements = 1.0
            for dim_size, index in zip(dims, ref.indices):
                coeffs = affine_coefficients(index)
                extent = 1.0
                for var, coeff in coeffs.items():
                    if var in inner and coeff != 0:
                        extent *= max(
                            abs(coeff)
                            * self._effective_extent(body, var, configuration),
                            1.0,
                        )
                elements *= min(extent, float(dim_size))
            total += elements * body.element_bytes[ref.array]
        return total

    def _tile_footprint_bytes(
        self, body: _BodyInfo, configuration: TransformConfiguration, level: int
    ) -> float:
        inner_vars = body.loop_vars[level:]
        return self._touched_bytes(body, inner_vars, configuration)

    def _reuse_footprint(
        self,
        body: _BodyInfo,
        ref_vars: frozenset,
        configuration: TransformConfiguration,
    ) -> float:
        reuse_level: Optional[int] = None
        for level in range(len(body.loop_vars) - 1, -1, -1):
            if body.loop_vars[level] not in ref_vars:
                reuse_level = level
                break
        if reuse_level is None:
            return self._touched_bytes(body, body.loop_vars, configuration)
        inner_vars = body.loop_vars[reuse_level + 1 :]
        if not inner_vars:
            return 0.0
        return self._touched_bytes(body, inner_vars, configuration)

    def _live_values(
        self, body: _BodyInfo, configuration: TransformConfiguration
    ) -> float:
        live = 0.0
        for ref_vars in body.ref_loop_vars:
            replicas = 1.0
            for var in body.loop_vars:
                factor = configuration.unroll_factor(var) * configuration.register_tile(var)
                if var in ref_vars:
                    replicas *= factor
            live += replicas
        return live + 4.0

    def _body_cycles(
        self, body: _BodyInfo, configuration: TransformConfiguration
    ) -> Tuple[float, float, float, float, float]:
        stats = body.stats
        innermost_var = body.loop_vars[-1]
        inner_unroll = configuration.unroll_factor(innermost_var) * configuration.register_tile(
            innermost_var
        )

        compute = self._core.compute_cycles(stats.flops)

        loads = 0.0
        memory = 0.0
        for ref, stride, ref_vars in zip(body.refs, body.ref_strides, body.ref_loop_vars):
            weight = 1.0
            for var in body.loop_vars:
                if var in ref_vars:
                    continue
                reuse_factor = configuration.register_tile(var)
                if var == innermost_var:
                    reuse_factor *= configuration.unroll_factor(var)
                if reuse_factor > 1:
                    weight /= reuse_factor
            element_bytes = body.element_bytes[ref.array]
            footprint = self._reuse_footprint(body, ref_vars, configuration)
            access_cycles = self._hierarchy.expected_access_cycles(
                footprint, stride * element_bytes
            )
            memory += weight * access_cycles
            loads += weight
        store_fraction = stats.stores / max(stats.loads + stats.stores, 1)
        stores = store_fraction * loads
        issue = self._core.issue_cycles(loads, stores)
        memory = max(memory / max(self._core.load_ports, 1.0), issue)

        overhead = self._core.loop_overhead_cycles(max(inner_unroll, 1))
        inner_trip = body.trip_counts[innermost_var]
        if inner_unroll > 1 and inner_trip > 0:
            remainder = (inner_trip % inner_unroll) / inner_trip
            overhead += self._core.branch_overhead_cycles * remainder * 0.5
        for var in body.loop_vars:
            tile = configuration.cache_tile(var)
            if tile is not None:
                extra = self._core.loop_setup_cycles / max(tile, 1.0)
                inner_iterations = 1.0
                for inner_var in body.loop_vars[body.loop_vars.index(var) + 1 :]:
                    inner_iterations *= max(body.trip_counts.get(inner_var, 1.0), 1.0)
                overhead += extra / max(inner_iterations, 1.0)

        base = max(compute, memory) + overhead

        spill_multiplier = self._core.register_pressure_multiplier(
            self._live_values(body, configuration)
        )
        body_instructions = (
            (stats.flops + stats.loads + stats.stores) * 1.3 + 4.0
        ) * self._unroll_product(body, configuration)
        icache_multiplier = self._core.icache_multiplier(body_instructions)

        spill = base * (spill_multiplier - 1.0)
        icache = base * spill_multiplier * (icache_multiplier - 1.0)

        return compute, memory, overhead, spill, icache


def _historical_benchmark_model(name: str) -> HistoricalCostModel:
    """The oracle calibrated as benchmarks historically were: by a second model."""
    spec = BENCHMARK_SPECS[name]
    kernel = spec.build_kernel()
    compile_kwargs = dict(
        compile_base_seconds=spec.compile_base_seconds,
        compile_per_statement_seconds=spec.compile_per_statement_seconds,
    )
    space = SearchSpace(spec.parameters)
    baseline = space.to_transform_configuration(space.default_configuration())
    unscaled = HistoricalCostModel(kernel, **compile_kwargs)
    scale = spec.target_runtime_seconds / unscaled.runtime_seconds(baseline)
    return HistoricalCostModel(kernel, time_scale=scale, **compile_kwargs)


def _assert_bit_identical(
    model: MachineCostModel,
    oracle: HistoricalCostModel,
    configuration: TransformConfiguration,
) -> None:
    evaluation = model.evaluate(configuration)
    expected_breakdown = oracle.breakdown(configuration)
    assert astuple(evaluation.breakdown) == astuple(expected_breakdown)
    assert evaluation.runtime_seconds == oracle.runtime_seconds(configuration)
    assert evaluation.compile_seconds == oracle.compile_seconds(configuration)
    assert evaluation.noise_sensitivity == oracle.noise_sensitivity(configuration)
    assert astuple(model.breakdown(configuration)) == astuple(expected_breakdown)
    assert model.runtime_seconds(configuration) == evaluation.runtime_seconds
    assert model.compile_seconds(configuration) == evaluation.compile_seconds
    assert model.noise_sensitivity(configuration) == evaluation.noise_sensitivity


@pytest.mark.parametrize("name", benchmark_names())
def test_benchmark_matches_historical_walk_bitwise(name):
    benchmark = SpaptBenchmark(BENCHMARK_SPECS[name])
    oracle = _historical_benchmark_model(name)
    space = benchmark.search_space
    configurations = space.sample_distinct(
        CONFIGURATIONS_PER_BENCHMARK, np.random.default_rng(2017)
    )
    configurations.append(space.default_configuration())
    for configuration in configurations:
        lowered = space.to_transform_configuration(configuration)
        assert benchmark.true_runtime(configuration) == oracle.runtime_seconds(lowered)
        assert benchmark.noise_sensitivity(configuration) == oracle.noise_sensitivity(
            lowered
        )
        assert benchmark.compile_time(configuration) == oracle.compile_seconds(lowered)
        _assert_bit_identical(benchmark.cost_model, oracle, lowered)


_MM_VARS = ("i", "j", "k")
_factor = st.integers(min_value=1, max_value=40)
_tile = st.sampled_from([1, 2, 3, 16, 48, 64, 100, 256, 512, 2048])


@given(
    unroll=st.dictionaries(st.sampled_from(_MM_VARS), _factor, max_size=3),
    tiles=st.dictionaries(st.sampled_from(_MM_VARS), _tile, max_size=3),
    register_tiles=st.dictionaries(st.sampled_from(_MM_VARS), _factor, max_size=3),
    n=st.sampled_from([16, 100, 256, 1000]),
    time_scale=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=150, deadline=None)
def test_mm_matches_historical_walk_bitwise_property(
    unroll, tiles, register_tiles, n, time_scale
):
    kernel = build_mm(n=n)
    configuration = TransformConfiguration(
        unroll=unroll, cache_tiles=tiles, register_tiles=register_tiles
    )
    model = MachineCostModel(kernel, time_scale=time_scale)
    oracle = HistoricalCostModel(kernel, time_scale=time_scale)
    _assert_bit_identical(model, oracle, configuration)


class _Counting:
    """Wrap a callable and count its calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.inner(*args, **kwargs)


def test_cold_protocol_sequence_evaluates_and_lowers_once(monkeypatch):
    benchmark = SpaptBenchmark(BENCHMARK_SPECS["adi"])
    model = benchmark.cost_model
    evaluate = _Counting(model.evaluate)
    monkeypatch.setattr(model, "evaluate", evaluate)
    space = benchmark.search_space
    lower = _Counting(space.to_transform_configuration)
    monkeypatch.setattr(space, "to_transform_configuration", lower)

    configuration = space.sample_distinct(1, np.random.default_rng(5))[0]
    runtime = benchmark.true_runtime(configuration)
    sensitivity = benchmark.noise_sensitivity(list(configuration))
    compile_time = benchmark.compile_time(np.asarray(configuration))
    assert (evaluate.calls, lower.calls) == (1, 1)

    # Warm queries are served from the one cache.
    assert benchmark.true_runtime(configuration) == runtime
    assert benchmark.noise_sensitivity(configuration) == sensitivity
    assert benchmark.compile_time(configuration) == compile_time
    assert (evaluate.calls, lower.calls) == (1, 1)
