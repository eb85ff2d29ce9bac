"""Runtime and compile-time cost model for transformed loop nests.

This is the piece that replaces "compile with gcc and run on the i7-4770K":
given a kernel in the loop-nest IR and a :class:`TransformConfiguration`
(the unroll factors, cache tiles and register tiles selected by a point in
the SPAPT search space), it returns a deterministic *true mean runtime* in
seconds and a *compile time* in seconds.  The measurement substrate then
perturbs the runtime with noise to produce individual observations.

The model composes three families of effects, each grounded in the classic
analytical treatments of dense loop nests:

1. **Computation and issue throughput** — flops and memory operations per
   source iteration divided by the core's per-cycle throughput
   (:class:`repro.machine.cpu.CoreModel`).
2. **Memory hierarchy behaviour** — every array reference is classified by
   its stride in the innermost loop (spatial locality) and by its reuse
   footprint, i.e. the volume of data touched between consecutive reuses of
   the same element (temporal locality).  Cache tiling caps the extents used
   in that footprint, which is precisely how tiling helps; register tiling
   (unroll-and-jam) removes a fraction of loads by keeping values live in
   registers across jammed iterations.
3. **Code-size effects of unrolling** — loop overhead decreases with the
   unroll factor while register pressure and, eventually, instruction-cache
   pressure increase with the product of unroll and register-tile factors.
   This produces the plateau → climb → plateau response the paper shows for
   ``adi`` (Figure 2) and the broad sweet spots of Figure 1.

The model works from the *base* (untransformed) kernel plus the
configuration, using closed forms for the effect of each transformation.
Everything that does not depend on the configuration (the distinct
references, their subscript terms, reuse spans and strides) is analysed
once per body, and :meth:`MachineCostModel.evaluate` derives the runtime,
its breakdown, the compile time and the noise sensitivity from one pass
over a configuration.  A cold evaluation of all three takes 0.15–0.18 ms
per configuration, averaged over 301 configurations of each of the 11
SPAPT benchmarks on a 2-vCPU Xeon VM
(``python -m pytest benchmarks/test_bench_cost_model.py``), so pricing
a 10 000-configuration dataset takes under two seconds per benchmark.
The transformation passes in :mod:`repro.ir.transforms` produce the actual
transformed IR and are used by the tests to validate the closed forms
(statement replication counts, step widening, footprint capping).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..ir.analysis import innermost_bodies, InnermostBodyStats, reference_stride
from ..ir.expr import affine_coefficients
from ..ir.loopnest import Kernel, Statement
from .cache import MemoryHierarchy, haswell_hierarchy
from .cpu import CoreModel, haswell_core

__all__ = [
    "TransformConfiguration",
    "CostBreakdown",
    "CostEvaluation",
    "MachineCostModel",
]


@dataclass(frozen=True)
class TransformConfiguration:
    """The transformation parameters selected by one search-space point.

    Keys are loop variable names of the *base* kernel.  Missing entries mean
    "leave that loop alone" (factor 1).
    """

    unroll: Mapping[str, int] = field(default_factory=dict)
    cache_tiles: Mapping[str, int] = field(default_factory=dict)
    register_tiles: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unroll", dict(self.unroll))
        object.__setattr__(self, "cache_tiles", dict(self.cache_tiles))
        object.__setattr__(self, "register_tiles", dict(self.register_tiles))
        for name, mapping in (
            ("unroll", self.unroll),
            ("cache_tiles", self.cache_tiles),
            ("register_tiles", self.register_tiles),
        ):
            for var, value in mapping.items():
                if int(value) < 1:
                    raise ValueError(
                        f"{name}[{var!r}] must be a positive integer, got {value}"
                    )

    def unroll_factor(self, var: str) -> int:
        return int(self.unroll.get(var, 1))

    def cache_tile(self, var: str) -> Optional[int]:
        """Tile size for ``var``, or ``None`` when the loop is untiled.

        A tile of 1 is the SPAPT convention for "do not tile this loop", so
        it is reported as untiled rather than as single-iteration tiles.
        """
        tile = self.cache_tiles.get(var)
        if tile is None or int(tile) <= 1:
            return None
        return int(tile)

    def register_tile(self, var: str) -> int:
        return int(self.register_tiles.get(var, 1))


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component contributions to the estimated runtime (seconds)."""

    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    spill_seconds: float
    icache_seconds: float

    @property
    def total_seconds(self) -> float:
        # Compute and memory overlap on an out-of-order core; penalties add.
        return (
            max(self.compute_seconds, self.memory_seconds)
            + self.overhead_seconds
            + self.spill_seconds
            + self.icache_seconds
        )


class CostEvaluation(NamedTuple):
    """Everything the model derives from one configuration, in one pass."""

    runtime_seconds: float
    compile_seconds: float
    noise_sensitivity: float
    breakdown: CostBreakdown


#: A distinct reference's subscripts: per dimension, the dimension size and
#: the ``(loop depth, |coefficient|)`` terms of its non-zero loop variables,
#: in :func:`~repro.ir.expr.affine_coefficients` order.
_Subscripts = Tuple[Tuple[float, Tuple[Tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class _BodyInfo:
    """Configuration-independent facts about one innermost body, analysed once.

    Loops are referred to by their depth in ``loop_vars`` (outermost first).
    """

    stats: InnermostBodyStats
    loop_vars: Tuple[str, ...]
    trip_counts: Tuple[float, ...]
    #: Per depth: the iterations of the loops nested inside that one.
    inner_iterations: Tuple[float, ...]
    #: The distinct references (by array and subscripts): element bytes and
    #: subscripts, the input of the footprint of every loop suffix.
    footprint_refs: Tuple[Tuple[int, _Subscripts], ...]
    #: Every reference in body order: whether each loop's variable appears
    #: in its subscripts, the suffix-footprint entry its reuse spans, and its
    #: innermost-loop stride in bytes.
    refs: Tuple[Tuple[Tuple[bool, ...], int, int], ...]
    compute_cycles: float
    store_fraction: float
    instructions: float


class MachineCostModel:
    """Deterministic runtime / compile-time estimator for one kernel.

    Parameters
    ----------
    kernel:
        The base (untransformed) kernel.
    hierarchy, core:
        The simulated machine; defaults to the paper's Haswell server.
    time_scale:
        A per-benchmark multiplicative calibration factor applied to the
        runtime, used by the SPAPT substrate to place each kernel's runtime
        in the same range as the paper's measurements.
    compile_base_seconds / compile_per_statement_seconds:
        Compile-time model: a fixed front-end/back-end cost plus a sub-linear
        cost in the number of generated (unrolled and jammed) statements —
        heavily unrolled configurations take visibly longer to compile, as
        they do with gcc, but the cost saturates at ``compile_cap_seconds``
        (register allocation and scheduling slow down, they do not hang).
    """

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
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self._kernel = kernel
        self._hierarchy = hierarchy if hierarchy is not None else haswell_hierarchy()
        self._core = core if core is not None else haswell_core()
        self._time_scale = time_scale
        self._compile_base = compile_base_seconds
        self._compile_per_statement = compile_per_statement_seconds
        self._compile_exponent = compile_statement_exponent
        self._compile_cap = compile_cap_seconds
        self._bodies = [self._analyse_body(b) for b in innermost_bodies(kernel)]
        if not self._bodies:
            raise ValueError(f"kernel {kernel.name!r} has no innermost bodies")

    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def hierarchy(self) -> MemoryHierarchy:
        return self._hierarchy

    @property
    def core(self) -> CoreModel:
        return self._core

    def with_time_scale(self, time_scale: float) -> "MachineCostModel":
        """This model under another runtime calibration; the analysis is shared."""
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        scaled = copy.copy(self)
        scaled._time_scale = time_scale
        return scaled

    # ------------------------------------------------------------------ setup

    def _analyse_body(self, stats: InnermostBodyStats) -> _BodyInfo:
        chain = stats.context.loops
        loop_vars = tuple(loop.var for loop in chain)
        depth_of = {var: depth for depth, var in enumerate(loop_vars)}
        trip_counts: List[float] = []
        bindings: Dict[str, int] = dict(self._kernel.sizes)
        for loop in chain:
            lower = loop.lower.evaluate(bindings)
            upper = loop.upper.evaluate(bindings)
            trip_counts.append(max((upper - lower) / loop.step, 1.0))
            bindings[loop.var] = (lower + max(upper - 1, lower)) // 2
        inner_iterations: List[float] = []
        for depth in range(len(chain)):
            iterations = 1.0
            for trip in trip_counts[depth + 1 :]:
                iterations *= max(trip, 1.0)
            inner_iterations.append(iterations)
        footprint_refs: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, _Subscripts]] = {}
        refs: List[Tuple[Tuple[bool, ...], int, int]] = []
        for node in stats.context.innermost.body:
            if not isinstance(node, Statement):
                continue
            for ref in node.refs():
                decl = self._kernel.array(ref.array)
                dims = tuple(d.evaluate(self._kernel.sizes) for d in decl.dims)
                key = (ref.array, tuple(str(i) for i in ref.indices))
                if key not in footprint_refs:
                    subscripts = tuple(
                        (float(dim_size), tuple(
                            (depth_of[var], abs(coeff))
                            for var, coeff in affine_coefficients(index).items()
                            if var in depth_of and coeff != 0
                        ))
                        for dim_size, index in zip(dims, ref.indices)
                    )
                    footprint_refs[key] = (decl.element_bytes, subscripts)
                free = ref.free_vars()
                varies = tuple(var in free for var in loop_vars)
                # The reuse of a reference is carried by the innermost loop
                # whose variable is not in its subscripts, and spans the loops
                # nested inside that one.  A reference that varies with every
                # loop has no temporal reuse: it spans the whole traversal.
                carriers = [depth for depth, v in enumerate(varies) if not v]
                suffix = carriers[-1] + 1 if carriers else 0
                stride = reference_stride(ref, loop_vars[-1], self._kernel, dims)
                refs.append((varies, suffix, stride * decl.element_bytes))
        return _BodyInfo(
            stats=stats,
            loop_vars=loop_vars,
            trip_counts=tuple(trip_counts),
            inner_iterations=tuple(inner_iterations),
            footprint_refs=tuple(footprint_refs.values()),
            refs=tuple(refs),
            compute_cycles=self._core.compute_cycles(stats.flops),
            store_fraction=stats.stores / max(stats.loads + stats.stores, 1),
            instructions=(stats.flops + stats.loads + stats.stores) * 1.3 + 4.0,
        )

    # -------------------------------------------------------------- public API

    def evaluate(self, configuration: TransformConfiguration) -> CostEvaluation:
        """Runtime, breakdown, compile time and noise sensitivity in one pass.

        The noise sensitivity is a heteroskedasticity knob in [0, 1] for the
        noise substrate.  Two kinds of configurations are especially
        sensitive to memory-layout perturbations (the dominant noise source
        the paper discusses): those whose per-tile working set, at any loop
        depth, sits near a cache capacity boundary — ASLR and physical page
        allocation then decide whether conflict misses appear — and those in
        the register-pressure *transition* region, where small code-layout
        changes decide whether the spill code stays in the fast path.  It is
        the maximum contribution over all loop nests.
        """
        compute = memory = overhead = spill = icache = 0.0
        generated_statements = 0.0
        sensitivity = 0.0
        for body in self._bodies:
            c, m, o, s, i, unroll_product, sensitivity = self._evaluate_body(
                body, configuration, sensitivity
            )
            iterations = body.stats.iterations
            compute += c * iterations
            memory += m * iterations
            overhead += o * iterations
            spill += s * iterations
            icache += i * iterations
            generated_statements += body.stats.statements * unroll_product
        cycle = self._core.cycle_seconds
        breakdown = CostBreakdown(
            compute_seconds=compute * cycle,
            memory_seconds=memory * cycle,
            overhead_seconds=overhead * cycle,
            spill_seconds=spill * cycle,
            icache_seconds=icache * cycle,
        )
        tile_loops = sum(
            1 for tile in configuration.cache_tiles.values() if tile and tile > 1
        )
        optimisation_cost = (
            self._compile_per_statement * generated_statements ** self._compile_exponent
        )
        return CostEvaluation(
            runtime_seconds=breakdown.total_seconds * self._time_scale,
            compile_seconds=(
                self._compile_base
                + min(optimisation_cost, self._compile_cap)
                + 0.05 * tile_loops
            ),
            noise_sensitivity=min(sensitivity, 1.0),
            breakdown=breakdown,
        )

    def runtime_seconds(self, configuration: TransformConfiguration) -> float:
        """True mean runtime (seconds) of the kernel under ``configuration``."""
        return self.evaluate(configuration).runtime_seconds

    def breakdown(self, configuration: TransformConfiguration) -> CostBreakdown:
        """Per-component runtime contributions (before the time-scale factor)."""
        return self.evaluate(configuration).breakdown

    def compile_seconds(self, configuration: TransformConfiguration) -> float:
        """Compile time (seconds) of the kernel under ``configuration``."""
        return self.evaluate(configuration).compile_seconds

    def noise_sensitivity(self, configuration: TransformConfiguration) -> float:
        """Heteroskedasticity knob in [0, 1] (see :meth:`evaluate`)."""
        return self.evaluate(configuration).noise_sensitivity

    # ----------------------------------------------------------- per-body math

    def _evaluate_body(
        self,
        body: _BodyInfo,
        configuration: TransformConfiguration,
        sensitivity: float,
    ) -> Tuple[float, float, float, float, float, int, float]:
        """One body's per-source-iteration cycles, unroll product and sensitivity.

        The cycles are (compute, memory, overhead, spill, icache); the spill
        and I-cache contributions are the *extra* cycles caused by the
        multiplicative register-pressure and instruction-cache slowdowns
        applied to the compute/memory/overhead base.  ``sensitivity`` is the
        running maximum over the bodies evaluated so far.
        """
        core = self._core
        hierarchy = self._hierarchy
        depth = len(body.loop_vars)

        # Per-loop factor table: body copies (unroll x register tile), jammed
        # replicas a value invariant to the loop is reused across (plain
        # unrolling counts only for the innermost loop, where the compiler
        # can reuse the loaded value within the body), the cache tile, and
        # the iterations one execution of the loop spans once tiled.
        replication: List[int] = []
        reuse: List[int] = []
        tiles: List[Optional[int]] = []
        extents: List[float] = []
        for var, trip in zip(body.loop_vars, body.trip_counts):
            register_tile = configuration.register_tile(var)
            tile = configuration.cache_tile(var)
            replication.append(configuration.unroll_factor(var) * register_tile)
            reuse.append(register_tile)
            tiles.append(tile)
            extents.append(trip if tile is None else float(min(trip, tile)))
        inner_unroll = reuse[-1] = replication[-1]
        unroll_product = 1
        for factor in replication:
            unroll_product *= factor

        # Suffix-footprint table: entry d holds the bytes touched by one full
        # execution of the loops at depth >= d (cache tiling caps their
        # extents); the last entry, a reuse within one innermost iteration,
        # touches nothing in between.
        footprints = [0.0] * (depth + 1)
        for level in range(depth):
            total = 0.0
            for element_bytes, subscripts in body.footprint_refs:
                elements = 1.0
                for dim_size, terms in subscripts:
                    extent = 1.0
                    for loop, coeff in terms:
                        if loop >= level:
                            extent *= max(coeff * extents[loop], 1.0)
                    elements *= min(extent, dim_size)
                total += elements * element_bytes
            footprints[level] = total
            sensitivity = max(sensitivity, hierarchy.boundary_proximity(total))

        # Memory: per-reference expected latency, issued less often when a
        # register-tiled loop keeps the value live across jammed replicas.
        # Register pressure: the replicas of every reference are live at once.
        loads = 0.0
        memory = 0.0
        live = 0.0
        for varies, suffix, stride_bytes in body.refs:
            weight = 1.0
            replicas = 1.0
            for in_subscripts, copies, reuse_factor in zip(varies, replication, reuse):
                if in_subscripts:
                    replicas *= copies
                elif reuse_factor > 1:
                    weight /= reuse_factor
            access_cycles = hierarchy.expected_access_cycles(
                footprints[suffix], stride_bytes
            )
            memory += weight * access_cycles
            loads += weight
            live += replicas
        # A handful of scalars (accumulators, induction variables) are always live.
        live_values = live + 4.0
        stores = body.store_fraction * loads
        issue = core.issue_cycles(loads, stores)
        memory = max(memory / max(core.load_ports, 1.0), issue)

        # Loop overhead: branch/induction work amortised by the innermost
        # unroll factor, plus a small cost for each extra tile-loop level and
        # for remainder iterations when the unroll factor does not divide the
        # (average) trip count.
        overhead = core.loop_overhead_cycles(max(inner_unroll, 1))
        inner_trip = body.trip_counts[-1]
        if inner_unroll > 1 and inner_trip > 0:
            remainder = (inner_trip % inner_unroll) / inner_trip
            overhead += core.branch_overhead_cycles * remainder * 0.5
        for tile, inner_iterations in zip(tiles, body.inner_iterations):
            if tile is not None:
                # One extra loop level: setup cost paid once per tile, spread
                # across the iterations of the loops nested inside it.
                extra = core.loop_setup_cycles / max(tile, 1.0)
                overhead += extra / max(inner_iterations, 1.0)

        compute = body.compute_cycles
        base = max(compute, memory) + overhead
        spill_multiplier = core.register_pressure_multiplier(live_values)
        icache_multiplier = core.icache_multiplier(body.instructions * unroll_product)
        spill = base * (spill_multiplier - 1.0)
        icache = base * spill_multiplier * (icache_multiplier - 1.0)

        pressure = live_values / core.vector_registers
        onset = core.spill_onset_ratio
        width = max(core.spill_transition_width, 1e-6)
        transition = math.exp(-(((pressure - (onset + width)) / width) ** 2))
        sensitivity = max(sensitivity, 0.6 * transition)
        return compute, memory, overhead, spill, icache, unroll_product, sensitivity
