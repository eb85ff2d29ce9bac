"""Static analyses over the loop-nest IR.

The machine cost model (:mod:`repro.machine`) does not execute kernels; it
derives runtime estimates from structural properties of the (transformed)
IR.  This module computes those properties:

* dynamic statement / flop / memory-reference counts,
* innermost-body statistics (statements, refs, flops per iteration) which
  drive the loop-overhead, register-pressure and instruction-cache models,
* per-reference access strides with respect to a chosen loop variable, which
  drive the spatial-locality part of the cache model,
* approximate per-loop-level data footprints, which drive the capacity part
  of the cache model and the tiling benefit.

Loops whose bounds depend on outer loop variables (triangular nests in
``lu`` and ``correlation``) are handled by evaluating bounds with outer
variables bound to the midpoint of their range, giving the exact *average*
trip count for affine bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .expr import affine_coefficients
from .loopnest import ArrayRef, Kernel, Loop, Node, Statement

__all__ = [
    "LoopContext",
    "InnermostBodyStats",
    "dynamic_statement_count",
    "dynamic_flop_count",
    "dynamic_memory_refs",
    "innermost_bodies",
    "reference_stride",
    "loop_footprint_bytes",
    "max_loop_depth",
]


@dataclass(frozen=True)
class LoopContext:
    """The chain of loops enclosing a body, outermost first."""

    loops: Tuple[Loop, ...]

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def innermost(self) -> Loop:
        if not self.loops:
            raise ValueError("empty loop context")
        return self.loops[-1]

    def variables(self) -> Tuple[str, ...]:
        return tuple(loop.var for loop in self.loops)


@dataclass(frozen=True)
class InnermostBodyStats:
    """Per-iteration statistics of one innermost loop body.

    ``iterations`` is the total number of dynamic iterations of the innermost
    loop (product of trip counts along the enclosing chain).  ``unroll_product``
    is the product of accumulated unroll factors along the chain, which tells
    the register/instruction-cache model how much larger the generated body is
    than the source body.
    """

    context: LoopContext
    statements: int
    flops: int
    loads: int
    stores: int
    iterations: int
    unroll_product: int


def _midpoint_bindings(
    loops: Sequence[Loop], sizes: Mapping[str, int]
) -> Dict[str, int]:
    """Bind each loop variable to the midpoint of its (average) range."""
    bindings: Dict[str, int] = dict(sizes)
    for loop in loops:
        lower = loop.lower.evaluate(bindings)
        upper = loop.upper.evaluate(bindings)
        bindings[loop.var] = (lower + max(upper - 1, lower)) // 2
    return bindings


def _average_trip_count(loop: Loop, outer: Sequence[Loop], sizes: Mapping[str, int]) -> float:
    """Average trip count of ``loop`` with outer variables at their midpoints."""
    bindings = _midpoint_bindings(outer, sizes)
    lower = loop.lower.evaluate(bindings)
    upper = loop.upper.evaluate(bindings)
    if upper <= lower:
        return 0.0
    return (upper - lower) / loop.step


def innermost_bodies(kernel: Kernel) -> List[InnermostBodyStats]:
    """Statistics for every innermost body in the kernel.

    An "innermost body" is the statement list of a loop that contains at
    least one statement directly (it may also contain nested loops; only the
    direct statements are attributed to it).
    """
    results: List[InnermostBodyStats] = []

    def visit(nodes: Sequence[Node], chain: List[Loop]) -> None:
        direct_statements = [n for n in nodes if isinstance(n, Statement)]
        if direct_statements and chain:
            iterations = 1.0
            for depth, loop in enumerate(chain):
                iterations *= _average_trip_count(loop, chain[:depth], kernel.sizes)
            unroll_product = 1
            for loop in chain:
                unroll_product *= loop.unrolled_by
            flops = sum(s.flops for s in direct_statements)
            loads = sum(len(s.reads) for s in direct_statements)
            stores = sum(len(s.writes) for s in direct_statements)
            results.append(
                InnermostBodyStats(
                    context=LoopContext(tuple(chain)),
                    statements=len(direct_statements),
                    flops=flops,
                    loads=loads,
                    stores=stores,
                    iterations=int(round(iterations)),
                    unroll_product=unroll_product,
                )
            )
        for node in nodes:
            if isinstance(node, Loop):
                visit(node.body, chain + [node])

    visit(kernel.loops, [])
    return results


def dynamic_statement_count(kernel: Kernel) -> int:
    """Total dynamic statement instances executed by the kernel."""
    return sum(body.statements * body.iterations for body in innermost_bodies(kernel))


def dynamic_flop_count(kernel: Kernel) -> int:
    """Total floating-point operations executed by the kernel."""
    return sum(body.flops * body.iterations for body in innermost_bodies(kernel))


def dynamic_memory_refs(kernel: Kernel) -> Tuple[int, int]:
    """Total (loads, stores) executed by the kernel."""
    loads = sum(body.loads * body.iterations for body in innermost_bodies(kernel))
    stores = sum(body.stores * body.iterations for body in innermost_bodies(kernel))
    return loads, stores


def reference_stride(
    ref: ArrayRef, loop_var: str, kernel: Kernel, array_dims: Optional[Sequence[int]] = None
) -> int:
    """Stride in *elements* of ``ref`` per unit step of ``loop_var``.

    Arrays are stored row-major; the stride contributed by subscript ``d`` is
    the coefficient of ``loop_var`` in that subscript multiplied by the
    product of the trailing dimension sizes.  A stride of zero means the
    reference is invariant to the loop (perfect temporal reuse), a stride of
    one means unit-stride streaming, larger strides progressively waste
    spatial locality.
    """
    decl = kernel.array(ref.array)
    if array_dims is None:
        array_dims = [d.evaluate(kernel.sizes) for d in decl.dims]
    if len(array_dims) != len(ref.indices):
        raise ValueError(
            f"reference {ref} has {len(ref.indices)} subscripts but array "
            f"{ref.array!r} has {len(array_dims)} dimensions"
        )
    stride = 0
    trailing = 1
    for dim_size, index in zip(reversed(array_dims), reversed(tuple(ref.indices))):
        coeffs = affine_coefficients(index)
        stride += coeffs.get(loop_var, 0) * trailing
        trailing *= dim_size
    return stride


def loop_footprint_bytes(kernel: Kernel, context: LoopContext) -> Dict[str, int]:
    """Approximate data footprint (bytes) touched by one iteration of each loop.

    For every loop in ``context`` (outermost first) this estimates how many
    bytes of each referenced array are touched by a single iteration of that
    loop, assuming the inner loops run to completion.  The estimate is the
    product, over each array dimension, of the extent of the subscript over
    the inner loop variables — the standard rectangular-footprint
    approximation used by analytical cache models for dense codes.
    """
    footprints: Dict[str, int] = {}
    chain = context.loops
    statements = [n for n in chain[-1].body if isinstance(n, Statement)]
    for level, loop in enumerate(chain):
        inner_loops = chain[level + 1 :]
        inner_vars = {l.var for l in inner_loops}
        total = 0
        seen: set[Tuple[str, Tuple[str, ...]]] = set()
        for stmt in statements:
            for ref in stmt.refs():
                key = (ref.array, tuple(str(i) for i in ref.indices))
                if key in seen:
                    continue
                seen.add(key)
                decl = kernel.array(ref.array)
                dims = [d.evaluate(kernel.sizes) for d in decl.dims]
                elements = 1
                for dim_size, index in zip(dims, ref.indices):
                    coeffs = affine_coefficients(index)
                    extent = 1
                    for var, coeff in coeffs.items():
                        if var in inner_vars and coeff != 0:
                            trip = _average_trip_count(
                                next(l for l in inner_loops if l.var == var),
                                chain[:level + 1],
                                kernel.sizes,
                            )
                            extent *= max(int(abs(coeff) * trip), 1)
                    elements *= min(extent, dim_size)
                total += elements * decl.element_bytes
        footprints[loop.var] = total
    return footprints


def max_loop_depth(kernel: Kernel) -> int:
    """Depth of the deepest loop nest in the kernel."""
    depth = 0

    def visit(nodes: Sequence[Node], current: int) -> None:
        nonlocal depth
        for node in nodes:
            if isinstance(node, Loop):
                depth = max(depth, current + 1)
                visit(node.body, current + 1)

    visit(kernel.loops, 0)
    return depth
