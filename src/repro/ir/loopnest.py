"""Loop-nest intermediate representation for the SPAPT kernel substrate.

The paper tunes source-to-source transformations (loop unrolling, cache
tiling, register tiling) applied by Orio to C kernels.  We reproduce that
pipeline over a compact loop-nest IR:

* :class:`ArrayDecl` — a named dense array with symbolic dimensions.
* :class:`ArrayRef` — a read or write of an array at affine subscripts.
* :class:`Statement` — one assignment with its reads, writes and flop count.
* :class:`Loop` — a counted loop (lower/upper bound, step) over a body of
  statements and/or nested loops.
* :class:`Kernel` — a named program: problem-size parameters, array
  declarations and a list of top-level loops.

The IR is deliberately structural (no arbitrary control flow, no pointers)
because the SPAPT kernels are all perfectly or near-perfectly nested dense
loops; that is also what makes the tuning parameters well-defined.

Transformation passes (:mod:`repro.ir.transforms`) consume and produce this
IR; analyses (:mod:`repro.ir.analysis`) and the machine model
(:mod:`repro.machine`) walk it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Mapping, Sequence, Tuple, Union

from .expr import ExprLike, to_expr

__all__ = [
    "ArrayDecl",
    "ArrayRef",
    "Statement",
    "Loop",
    "Kernel",
    "Node",
    "walk_loops",
    "walk_statements",
    "loop_by_name",
    "render",
]

Node = Union["Loop", "Statement"]


@dataclass(frozen=True)
class ArrayDecl:
    """A dense array: name, symbolic dimension sizes and element width."""

    name: str
    dims: Tuple[ExprLike, ...]
    element_bytes: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(to_expr(d) for d in self.dims))
        if self.element_bytes <= 0:
            raise ValueError("element_bytes must be positive")

    def element_count(self, sizes: Mapping[str, int]) -> int:
        """Total number of elements for concrete problem sizes."""
        count = 1
        for dim in self.dims:
            count *= dim.evaluate(sizes)
        return count

    def footprint_bytes(self, sizes: Mapping[str, int]) -> int:
        """Total array size in bytes for concrete problem sizes."""
        return self.element_count(sizes) * self.element_bytes


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted access ``array[index_0, index_1, ...]``."""

    array: str
    indices: Tuple[ExprLike, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(to_expr(i) for i in self.indices))

    def free_vars(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for index in self.indices:
            names |= index.free_vars()
        return names

    def __str__(self) -> str:
        subscript = "][".join(str(i) for i in self.indices)
        return f"{self.array}[{subscript}]"


@dataclass(frozen=True)
class Statement:
    """One assignment statement.

    ``flops`` counts the floating-point operations executed per dynamic
    instance (e.g. a fused multiply-add in a dense kernel counts as 2).
    ``label`` is kept through transformations so replicated statements can be
    traced back to their origin.
    """

    writes: Tuple[ArrayRef, ...]
    reads: Tuple[ArrayRef, ...]
    flops: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "writes", tuple(self.writes))
        object.__setattr__(self, "reads", tuple(self.reads))
        if self.flops < 0:
            raise ValueError("flops cannot be negative")
        if not self.writes and not self.reads:
            raise ValueError("a statement must reference at least one array")

    def refs(self) -> Tuple[ArrayRef, ...]:
        """All array references, writes first."""
        return self.writes + self.reads

    def free_vars(self) -> frozenset[str]:
        names: frozenset[str] = frozenset()
        for ref in self.refs():
            names |= ref.free_vars()
        return names

    def __str__(self) -> str:
        lhs = ", ".join(str(w) for w in self.writes) if self.writes else "(none)"
        rhs = ", ".join(str(r) for r in self.reads) if self.reads else "(none)"
        return f"{lhs} := f({rhs})  // {self.flops} flops"


@dataclass(frozen=True)
class Loop:
    """A counted loop ``for var in [lower, upper) step step``.

    Bounds are affine expressions; ``upper`` is exclusive.  ``unrolled_by``
    records the accumulated unroll factor applied to this loop by
    transformation passes (1 means not unrolled) so downstream analyses know
    how much the body was replicated even when the replication was done
    symbolically.
    """

    var: str
    lower: ExprLike
    upper: ExprLike
    body: Tuple[Node, ...]
    step: int = 1
    unrolled_by: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", to_expr(self.lower))
        object.__setattr__(self, "upper", to_expr(self.upper))
        object.__setattr__(self, "body", tuple(self.body))
        if self.step < 1:
            raise ValueError("loop step must be at least 1")
        if self.unrolled_by < 1:
            raise ValueError("unroll factor must be at least 1")
        if not self.body:
            raise ValueError(f"loop {self.var!r} has an empty body")

    def trip_count(self, bindings: Mapping[str, int]) -> int:
        """Number of iterations for concrete bounds (zero if empty)."""
        lower = self.lower.evaluate(bindings)
        upper = self.upper.evaluate(bindings)
        if upper <= lower:
            return 0
        return (upper - lower + self.step - 1) // self.step

    def with_body(self, body: Sequence[Node]) -> "Loop":
        """A copy of this loop with a different body."""
        return replace(self, body=tuple(body))

    def __str__(self) -> str:
        return f"for {self.var} in [{self.lower}, {self.upper}) step {self.step}"


@dataclass(frozen=True)
class Kernel:
    """A complete tunable kernel.

    Attributes
    ----------
    name:
        Kernel name (matches the SPAPT benchmark name).
    sizes:
        Concrete problem sizes for each symbolic dimension parameter
        (e.g. ``{"N": 2048}``).  SPAPT fixes the input size per search
        problem, so sizes are part of the kernel rather than the
        configuration.
    arrays:
        Array declarations by name.
    loops:
        Top-level loops, executed in sequence.
    """

    name: str
    sizes: Mapping[str, int]
    arrays: Tuple[ArrayDecl, ...]
    loops: Tuple[Loop, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", dict(self.sizes))
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "loops", tuple(self.loops))
        names = [a.name for a in self.arrays]
        if len(names) != len(set(names)):
            raise ValueError(f"kernel {self.name!r} declares duplicate arrays")
        if not self.loops:
            raise ValueError(f"kernel {self.name!r} has no loops")
        self._validate_references()

    def _validate_references(self) -> None:
        declared = {a.name for a in self.arrays}
        size_names = set(self.sizes)
        loop_vars = {loop.var for loop in walk_loops(self.loops)}
        for stmt in walk_statements(self.loops):
            for ref in stmt.refs():
                if ref.array not in declared:
                    raise ValueError(
                        f"kernel {self.name!r}: reference to undeclared array "
                        f"{ref.array!r}"
                    )
                unknown = ref.free_vars() - size_names - loop_vars
                if unknown:
                    raise ValueError(
                        f"kernel {self.name!r}: subscript uses unbound names {sorted(unknown)}"
                    )

    def array(self, name: str) -> ArrayDecl:
        """Look up an array declaration by name."""
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"kernel {self.name!r} has no array {name!r}")

    def with_loops(self, loops: Sequence[Loop]) -> "Kernel":
        """A copy of this kernel with different top-level loops."""
        return replace(self, loops=tuple(loops))

    def total_footprint_bytes(self) -> int:
        """Sum of all array footprints for this kernel's problem sizes."""
        return sum(a.footprint_bytes(self.sizes) for a in self.arrays)

    def loop_names(self) -> List[str]:
        """Names of every loop variable, outermost-first, depth-first."""
        return [loop.var for loop in walk_loops(self.loops)]


def walk_loops(nodes: Sequence[Node]) -> Iterator[Loop]:
    """Yield every loop in ``nodes`` depth-first, pre-order."""
    for node in nodes:
        if isinstance(node, Loop):
            yield node
            yield from walk_loops(node.body)


def walk_statements(nodes: Sequence[Node]) -> Iterator[Statement]:
    """Yield every statement in ``nodes`` depth-first."""
    for node in nodes:
        if isinstance(node, Loop):
            yield from walk_statements(node.body)
        else:
            yield node


def loop_by_name(kernel: Kernel, var: str) -> Loop:
    """Find the loop with index variable ``var`` in ``kernel``."""
    for loop in walk_loops(kernel.loops):
        if loop.var == var:
            return loop
    raise KeyError(f"kernel {kernel.name!r} has no loop named {var!r}")


def render(kernel: Kernel) -> str:
    """Render a kernel as pseudo-C for inspection and golden tests."""
    lines: List[str] = [f"// kernel {kernel.name}"]
    for name, value in sorted(kernel.sizes.items()):
        lines.append(f"#define {name} {value}")
    for decl in kernel.arrays:
        dims = "".join(f"[{d}]" for d in decl.dims)
        lines.append(f"double {decl.name}{dims};")
    lines.append("")

    def emit(nodes: Sequence[Node], indent: int) -> None:
        pad = "  " * indent
        for node in nodes:
            if isinstance(node, Loop):
                step = f"; {node.var} += {node.step}" if node.step != 1 else f"; {node.var}++"
                lines.append(
                    f"{pad}for ({node.var} = {node.lower}; {node.var} < {node.upper}{step}) {{"
                )
                emit(node.body, indent + 1)
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}{node};")

    emit(kernel.loops, 0)
    return "\n".join(lines)
