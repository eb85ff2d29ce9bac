"""Tests for the IR analyses used by the machine cost model."""

from __future__ import annotations

import gc

import pytest

from repro.ir.analysis import (
    dynamic_flop_count,
    dynamic_memory_refs,
    dynamic_statement_count,
    innermost_bodies,
    loop_footprint_bytes,
    max_loop_depth,
    reference_stride,
)
from repro.ir.expr import Var
from repro.ir.loopnest import ArrayDecl, ArrayRef, Kernel, Loop, Statement
from repro.spapt.kernels import build_lu, build_mm


class TestInnermostBodies:
    def test_tiny_kernel_counts(self, tiny_kernel):
        bodies = innermost_bodies(tiny_kernel)
        assert len(bodies) == 1
        body = bodies[0]
        assert body.statements == 1
        assert body.flops == 2
        assert body.loads == 3
        assert body.stores == 1
        assert body.iterations == 64 * 64
        assert body.context.variables() == ("i", "j")

    def test_leaves_no_cyclic_garbage(self):
        """The body walk makes no reference cycle: nothing is left for the
        cyclic collector once the call returns."""
        kernel = build_lu(n=100)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            bodies = innermost_bodies(kernel)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert bodies

    def test_multi_nest_kernel(self):
        mm = build_mm(n=32)
        bodies = innermost_bodies(mm)
        assert len(bodies) == 1
        assert bodies[0].iterations == 32 ** 3

    def test_triangular_nest_uses_average_trip(self):
        lu = build_lu(n=100)
        bodies = innermost_bodies(lu)
        update = [b for b in bodies if b.context.variables()[-1] == "j2"][0]
        # The triangular (k2, i2, j2) nest executes ~N^3/... iterations; with
        # midpoint binding the average trip of i2/j2 is about N/2.
        assert 100 * 40 * 40 < update.iterations < 100 * 60 * 60


class TestDynamicCounts:
    def test_statement_count(self, tiny_kernel):
        assert dynamic_statement_count(tiny_kernel) == 64 * 64

    def test_flop_count(self, tiny_kernel):
        assert dynamic_flop_count(tiny_kernel) == 2 * 64 * 64

    def test_memory_refs(self, tiny_kernel):
        loads, stores = dynamic_memory_refs(tiny_kernel)
        assert loads == 3 * 64 * 64
        assert stores == 64 * 64

    def test_mm_flops_match_2n3(self):
        mm = build_mm(n=64)
        assert dynamic_flop_count(mm) == 2 * 64 ** 3


class TestReferenceStride:
    def test_unit_stride_row_access(self, tiny_kernel):
        ref = ArrayRef("A", (Var("i"), Var("j")))
        assert reference_stride(ref, "j", tiny_kernel) == 1

    def test_column_access_stride_is_row_length(self, tiny_kernel):
        ref = ArrayRef("B", (Var("j"), Var("i")))
        assert reference_stride(ref, "j", tiny_kernel) == 64

    def test_invariant_reference_has_zero_stride(self, tiny_kernel):
        ref = ArrayRef("C", (Var("i"), Var("i")))
        assert reference_stride(ref, "j", tiny_kernel) == 0

    def test_coefficient_scales_stride(self, tiny_kernel):
        ref = ArrayRef("A", (Var("i"), Var("j") * 2))
        assert reference_stride(ref, "j", tiny_kernel) == 2

    def test_dimension_mismatch_raises(self, tiny_kernel):
        ref = ArrayRef("A", (Var("i"),))
        with pytest.raises(ValueError):
            reference_stride(ref, "i", tiny_kernel)


class TestFootprint:
    def test_footprints_grow_outward(self, tiny_kernel):
        bodies = innermost_bodies(tiny_kernel)
        footprints = loop_footprint_bytes(tiny_kernel, bodies[0].context)
        # One iteration of the inner loop touches less data than one iteration
        # of the outer loop (which runs the whole inner loop).
        assert footprints["i"] > footprints["j"]

    def test_outer_footprint_bounded_by_arrays(self, tiny_kernel):
        bodies = innermost_bodies(tiny_kernel)
        footprints = loop_footprint_bytes(tiny_kernel, bodies[0].context)
        assert footprints["i"] <= tiny_kernel.total_footprint_bytes()


class TestMaxLoopDepth:
    def test_tiny_kernel_depth(self, tiny_kernel):
        assert max_loop_depth(tiny_kernel) == 2

    def test_lu_depth(self):
        assert max_loop_depth(build_lu(n=32)) == 3
