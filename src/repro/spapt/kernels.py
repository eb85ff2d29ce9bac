"""Loop-nest IR definitions of the 11 SPAPT kernels used in the paper.

The SPAPT suite (Balaprakash, Wild & Norris, ICCS 2012) collects search
problems built from high-performance-computing kernels: dense linear algebra
(``mm``, ``atax``, ``bicgkernel``, ``dgemv3``, ``gemver``, ``mvt``, ``lu``),
stencils (``adi``, ``jacobi``, ``hessian``) and statistics (``correlation``).
The paper evaluates the 11 of them listed below (Section 4.2).

Each function returns a :class:`repro.ir.Kernel` whose loops carry unique
variable names; the tunable parameters defined in :mod:`repro.spapt.suite`
refer to those names.  Problem sizes are fixed per kernel (SPAPT treats the
input size as part of the search problem, not of the configuration) and are
chosen so that the simulated runtimes fall in the same ranges as the paper's
measurements.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ir.expr import Var
from ..ir.loopnest import ArrayDecl, ArrayRef, Kernel, Loop, Statement

__all__ = [
    "build_adi",
    "build_atax",
    "build_bicgkernel",
    "build_correlation",
    "build_dgemv3",
    "build_gemver",
    "build_hessian",
    "build_jacobi",
    "build_lu",
    "build_mm",
    "build_mvt",
    "KERNEL_BUILDERS",
]


def _ref(array: str, *indices) -> ArrayRef:
    return ArrayRef(array, tuple(indices))


def _stmt(writes: Sequence[ArrayRef], reads: Sequence[ArrayRef], flops: int, label: str) -> Statement:
    return Statement(writes=tuple(writes), reads=tuple(reads), flops=flops, label=label)


def _nest(vars_and_bounds: Sequence[tuple], body: Sequence) -> Loop:
    """Build a perfectly nested loop from ``[(var, lower, upper), ...]``."""
    inner: Sequence = body
    loop: Loop
    for var, lower, upper in reversed(list(vars_and_bounds)):
        loop = Loop(var=var, lower=lower, upper=upper, body=tuple(inner))
        inner = (loop,)
    return inner[0]


def build_mm(n: int = 256) -> Kernel:
    """Dense square matrix multiplication ``C += A * B`` (an ijk nest)."""
    body = _stmt(
        writes=[_ref("C", Var("i"), Var("j"))],
        reads=[
            _ref("C", Var("i"), Var("j")),
            _ref("A", Var("i"), Var("k")),
            _ref("B", Var("k"), Var("j")),
        ],
        flops=2,
        label="mm_update",
    )
    nest = _nest([("i", 0, "N"), ("j", 0, "N"), ("k", 0, "N")], [body])
    return Kernel(
        name="mm",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("B", ("N", "N")),
            ArrayDecl("C", ("N", "N")),
        ),
        loops=(nest,),
    )


def build_adi(n: int = 1024) -> Kernel:
    """Alternating-Direction-Implicit integration: row sweep, column sweep, update."""
    row_sweep = _nest(
        [("i1", 0, "N"), ("j1", 1, "N")],
        [
            _stmt(
                writes=[_ref("X", Var("i1"), Var("j1"))],
                reads=[
                    _ref("X", Var("i1"), Var("j1")),
                    _ref("X", Var("i1"), Var("j1") - 1),
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("B", Var("i1"), Var("j1") - 1),
                ],
                flops=4,
                label="adi_row",
            ),
            _stmt(
                writes=[_ref("B", Var("i1"), Var("j1"))],
                reads=[
                    _ref("B", Var("i1"), Var("j1")),
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("B", Var("i1"), Var("j1") - 1),
                ],
                flops=3,
                label="adi_row_b",
            ),
        ],
    )
    col_sweep = _nest(
        [("i2", 1, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("X", Var("i2"), Var("j2"))],
                reads=[
                    _ref("X", Var("i2"), Var("j2")),
                    _ref("X", Var("i2") - 1, Var("j2")),
                    _ref("A", Var("i2"), Var("j2")),
                    _ref("B", Var("i2") - 1, Var("j2")),
                ],
                flops=4,
                label="adi_col",
            ),
        ],
    )
    back_substitution = _nest(
        [("i3", 0, "N"), ("j3", 0, "N")],
        [
            _stmt(
                writes=[_ref("X", Var("i3"), Var("j3"))],
                reads=[
                    _ref("X", Var("i3"), Var("j3")),
                    _ref("B", Var("i3"), Var("j3")),
                ],
                flops=1,
                label="adi_back",
            ),
        ],
    )
    return Kernel(
        name="adi",
        sizes={"N": n},
        arrays=(
            ArrayDecl("X", ("N", "N")),
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("B", ("N", "N")),
        ),
        loops=(row_sweep, col_sweep, back_substitution),
    )


def build_atax(n: int = 1800) -> Kernel:
    """``y = A^T (A x)`` — two dependent matrix-vector products."""
    first = _nest(
        [("i1", 0, "N"), ("j1", 0, "N")],
        [
            _stmt(
                writes=[_ref("tmp", Var("i1"))],
                reads=[
                    _ref("tmp", Var("i1")),
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("x", Var("j1")),
                ],
                flops=2,
                label="atax_ax",
            )
        ],
    )
    second = _nest(
        [("i2", 0, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("y", Var("j2"))],
                reads=[
                    _ref("y", Var("j2")),
                    _ref("A", Var("i2"), Var("j2")),
                    _ref("tmp", Var("i2")),
                ],
                flops=2,
                label="atax_aty",
            )
        ],
    )
    return Kernel(
        name="atax",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("x", ("N",)),
            ArrayDecl("y", ("N",)),
            ArrayDecl("tmp", ("N",)),
        ),
        loops=(first, second),
    )


def build_bicgkernel(n: int = 1600) -> Kernel:
    """BiCG sub-kernel: ``q = A p`` and ``s = A^T r``."""
    forward = _nest(
        [("i1", 0, "N"), ("j1", 0, "N")],
        [
            _stmt(
                writes=[_ref("q", Var("i1"))],
                reads=[
                    _ref("q", Var("i1")),
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("p", Var("j1")),
                ],
                flops=2,
                label="bicg_q",
            )
        ],
    )
    transpose = _nest(
        [("i2", 0, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("s", Var("j2"))],
                reads=[
                    _ref("s", Var("j2")),
                    _ref("r", Var("i2")),
                    _ref("A", Var("i2"), Var("j2")),
                ],
                flops=2,
                label="bicg_s",
            )
        ],
    )
    return Kernel(
        name="bicgkernel",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("p", ("N",)),
            ArrayDecl("q", ("N",)),
            ArrayDecl("r", ("N",)),
            ArrayDecl("s", ("N",)),
        ),
        loops=(forward, transpose),
    )


def build_correlation(n: int = 900) -> Kernel:
    """Correlation matrix: column means, centring/scaling, symmetric product."""
    means = _nest(
        [("i1", 0, "N"), ("j1", 0, "N")],
        [
            _stmt(
                writes=[_ref("mean", Var("j1"))],
                reads=[_ref("mean", Var("j1")), _ref("data", Var("i1"), Var("j1"))],
                flops=1,
                label="corr_mean",
            )
        ],
    )
    centre = _nest(
        [("i2", 0, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("data", Var("i2"), Var("j2"))],
                reads=[
                    _ref("data", Var("i2"), Var("j2")),
                    _ref("mean", Var("j2")),
                    _ref("stddev", Var("j2")),
                ],
                flops=2,
                label="corr_centre",
            )
        ],
    )
    product = _nest(
        [("i3", 0, "N"), ("j3", Var("i3"), "N"), ("k3", 0, "N")],
        [
            _stmt(
                writes=[_ref("corr", Var("i3"), Var("j3"))],
                reads=[
                    _ref("corr", Var("i3"), Var("j3")),
                    _ref("data", Var("k3"), Var("i3")),
                    _ref("data", Var("k3"), Var("j3")),
                ],
                flops=2,
                label="corr_product",
            )
        ],
    )
    return Kernel(
        name="correlation",
        sizes={"N": n},
        arrays=(
            ArrayDecl("data", ("N", "N")),
            ArrayDecl("corr", ("N", "N")),
            ArrayDecl("mean", ("N",)),
            ArrayDecl("stddev", ("N",)),
        ),
        loops=(means, centre, product),
    )


def build_dgemv3(n: int = 1400) -> Kernel:
    """Three chained matrix-vector products plus a combining vector update."""
    loops: List[Loop] = []
    for idx, (matrix, vec_in, vec_out) in enumerate(
        [("A", "x1", "y1"), ("B", "x2", "y2"), ("Cm", "x3", "y3")], start=1
    ):
        loops.append(
            _nest(
                [(f"i{idx}", 0, "N"), (f"j{idx}", 0, "N")],
                [
                    _stmt(
                        writes=[_ref(vec_out, Var(f"i{idx}"))],
                        reads=[
                            _ref(vec_out, Var(f"i{idx}")),
                            _ref(matrix, Var(f"i{idx}"), Var(f"j{idx}")),
                            _ref(vec_in, Var(f"j{idx}")),
                        ],
                        flops=2,
                        label=f"dgemv3_{matrix.lower()}",
                    )
                ],
            )
        )
    combine = _nest(
        [("i4", 0, "N")],
        [
            _stmt(
                writes=[_ref("w", Var("i4"))],
                reads=[
                    _ref("y1", Var("i4")),
                    _ref("y2", Var("i4")),
                    _ref("y3", Var("i4")),
                ],
                flops=5,
                label="dgemv3_combine",
            )
        ],
    )
    scale = _nest(
        [("i5", 0, "N")],
        [
            _stmt(
                writes=[_ref("x2", Var("i5"))],
                reads=[_ref("y1", Var("i5"))],
                flops=1,
                label="dgemv3_feed2",
            ),
            _stmt(
                writes=[_ref("x3", Var("i5"))],
                reads=[_ref("y2", Var("i5"))],
                flops=1,
                label="dgemv3_feed3",
            ),
        ],
    )
    return Kernel(
        name="dgemv3",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("B", ("N", "N")),
            ArrayDecl("Cm", ("N", "N")),
            ArrayDecl("x1", ("N",)),
            ArrayDecl("x2", ("N",)),
            ArrayDecl("x3", ("N",)),
            ArrayDecl("y1", ("N",)),
            ArrayDecl("y2", ("N",)),
            ArrayDecl("y3", ("N",)),
            ArrayDecl("w", ("N",)),
        ),
        loops=tuple(loops) + (combine, scale),
    )


def build_gemver(n: int = 1500) -> Kernel:
    """BLAS gemver: rank-2 update, transposed matvec, vector add, matvec."""
    rank_update = _nest(
        [("i1", 0, "N"), ("j1", 0, "N")],
        [
            _stmt(
                writes=[_ref("Bm", Var("i1"), Var("j1"))],
                reads=[
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("u1", Var("i1")),
                    _ref("v1", Var("j1")),
                    _ref("u2", Var("i1")),
                    _ref("v2", Var("j1")),
                ],
                flops=4,
                label="gemver_rank2",
            )
        ],
    )
    transposed = _nest(
        [("i2", 0, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("x", Var("i2"))],
                reads=[
                    _ref("x", Var("i2")),
                    _ref("Bm", Var("j2"), Var("i2")),
                    _ref("y", Var("j2")),
                ],
                flops=2,
                label="gemver_xt",
            )
        ],
    )
    vector_add = _nest(
        [("i3", 0, "N")],
        [
            _stmt(
                writes=[_ref("x", Var("i3"))],
                reads=[_ref("x", Var("i3")), _ref("z", Var("i3"))],
                flops=1,
                label="gemver_add",
            )
        ],
    )
    matvec = _nest(
        [("i4", 0, "N"), ("j4", 0, "N")],
        [
            _stmt(
                writes=[_ref("w", Var("i4"))],
                reads=[
                    _ref("w", Var("i4")),
                    _ref("Bm", Var("i4"), Var("j4")),
                    _ref("x", Var("j4")),
                ],
                flops=2,
                label="gemver_w",
            )
        ],
    )
    return Kernel(
        name="gemver",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("Bm", ("N", "N")),
            ArrayDecl("u1", ("N",)),
            ArrayDecl("u2", ("N",)),
            ArrayDecl("v1", ("N",)),
            ArrayDecl("v2", ("N",)),
            ArrayDecl("x", ("N",)),
            ArrayDecl("y", ("N",)),
            ArrayDecl("z", ("N",)),
            ArrayDecl("w", ("N",)),
        ),
        loops=(rank_update, transposed, vector_add, matvec),
    )


def build_hessian(n: int = 700) -> Kernel:
    """Second-derivative (Hessian) 5-point stencil over a 2-D field."""
    stencil = _nest(
        [("i1", 1, Var("N") - 1), ("j1", 1, Var("N") - 1)],
        [
            _stmt(
                writes=[_ref("H", Var("i1"), Var("j1"))],
                reads=[
                    _ref("f", Var("i1") + 1, Var("j1")),
                    _ref("f", Var("i1") - 1, Var("j1")),
                    _ref("f", Var("i1"), Var("j1") + 1),
                    _ref("f", Var("i1"), Var("j1") - 1),
                    _ref("f", Var("i1"), Var("j1")),
                ],
                flops=7,
                label="hessian_stencil",
            )
        ],
    )
    return Kernel(
        name="hessian",
        sizes={"N": n},
        arrays=(ArrayDecl("f", ("N", "N")), ArrayDecl("H", ("N", "N"))),
        loops=(stencil,),
    )


def build_jacobi(n: int = 1400) -> Kernel:
    """Jacobi 2-D relaxation: 5-point stencil plus copy-back."""
    relax = _nest(
        [("i1", 1, Var("N") - 1), ("j1", 1, Var("N") - 1)],
        [
            _stmt(
                writes=[_ref("B", Var("i1"), Var("j1"))],
                reads=[
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("A", Var("i1") + 1, Var("j1")),
                    _ref("A", Var("i1") - 1, Var("j1")),
                    _ref("A", Var("i1"), Var("j1") + 1),
                    _ref("A", Var("i1"), Var("j1") - 1),
                ],
                flops=5,
                label="jacobi_relax",
            )
        ],
    )
    copy_back = _nest(
        [("i2", 1, Var("N") - 1), ("j2", 1, Var("N") - 1)],
        [
            _stmt(
                writes=[_ref("A", Var("i2"), Var("j2"))],
                reads=[_ref("B", Var("i2"), Var("j2"))],
                flops=0,
                label="jacobi_copy",
            )
        ],
    )
    return Kernel(
        name="jacobi",
        sizes={"N": n},
        arrays=(ArrayDecl("A", ("N", "N")), ArrayDecl("B", ("N", "N"))),
        loops=(relax, copy_back),
    )


def build_lu(n: int = 600) -> Kernel:
    """LU decomposition without pivoting (triangular update nest)."""
    scale_column = _nest(
        [("k1", 0, "N"), ("i1", Var("k1") + 1, "N")],
        [
            _stmt(
                writes=[_ref("A", Var("i1"), Var("k1"))],
                reads=[_ref("A", Var("i1"), Var("k1")), _ref("A", Var("k1"), Var("k1"))],
                flops=1,
                label="lu_scale",
            )
        ],
    )
    update = _nest(
        [("k2", 0, "N"), ("i2", Var("k2") + 1, "N"), ("j2", Var("k2") + 1, "N")],
        [
            _stmt(
                writes=[_ref("A", Var("i2"), Var("j2"))],
                reads=[
                    _ref("A", Var("i2"), Var("j2")),
                    _ref("A", Var("i2"), Var("k2")),
                    _ref("A", Var("k2"), Var("j2")),
                ],
                flops=2,
                label="lu_update",
            )
        ],
    )
    return Kernel(
        name="lu",
        sizes={"N": n},
        arrays=(ArrayDecl("A", ("N", "N")),),
        loops=(scale_column, update),
    )


def build_mvt(n: int = 1500) -> Kernel:
    """``x1 += A y1`` and ``x2 += A^T y2`` (the mvt PolyBench kernel)."""
    forward = _nest(
        [("i1", 0, "N"), ("j1", 0, "N")],
        [
            _stmt(
                writes=[_ref("x1", Var("i1"))],
                reads=[
                    _ref("x1", Var("i1")),
                    _ref("A", Var("i1"), Var("j1")),
                    _ref("y1", Var("j1")),
                ],
                flops=2,
                label="mvt_forward",
            )
        ],
    )
    transposed = _nest(
        [("i2", 0, "N"), ("j2", 0, "N")],
        [
            _stmt(
                writes=[_ref("x2", Var("i2"))],
                reads=[
                    _ref("x2", Var("i2")),
                    _ref("A", Var("j2"), Var("i2")),
                    _ref("y2", Var("j2")),
                ],
                flops=2,
                label="mvt_transposed",
            )
        ],
    )
    return Kernel(
        name="mvt",
        sizes={"N": n},
        arrays=(
            ArrayDecl("A", ("N", "N")),
            ArrayDecl("x1", ("N",)),
            ArrayDecl("x2", ("N",)),
            ArrayDecl("y1", ("N",)),
            ArrayDecl("y2", ("N",)),
        ),
        loops=(forward, transposed),
    )


KERNEL_BUILDERS = {
    "adi": build_adi,
    "atax": build_atax,
    "bicgkernel": build_bicgkernel,
    "correlation": build_correlation,
    "dgemv3": build_dgemv3,
    "gemver": build_gemver,
    "hessian": build_hessian,
    "jacobi": build_jacobi,
    "lu": build_lu,
    "mm": build_mm,
    "mvt": build_mvt,
}
