"""Kernel constructors.

Each function returns a fresh :class:`~repro.ir.nest.Kernel` matching the
paper's original (untransformed) pseudocode.  Loop bounds are 1-based with
inclusive upper bounds, exactly as written in the paper's figures.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.ir import builder as B
from repro.ir.nest import Kernel

__all__ = [
    "matmul", "jacobi", "matvec", "stencil2d", "conv2d", "KERNELS", "get_kernel",
    "default_problem",
]


def matmul() -> Kernel:
    """Matrix Multiply, Figure 1(a): KJI loop order, ``C += A*B``.

    Arrays are column-major, so ``A[I,K]`` walks contiguously in ``I``.
    Nominal flops: ``2*N**3`` (one multiply and one add per innermost
    iteration).
    """
    N = B.var("N")
    I, J, K = B.var("I"), B.var("J"), B.var("K")
    return B.kernel(
        "mm",
        params=("N",),
        arrays=(B.array("A", N, N), B.array("B", N, N), B.array("C", N, N)),
        body=B.loop(
            "K", 1, N,
            B.loop(
                "J", 1, N,
                B.loop(
                    "I", 1, N,
                    B.assign(
                        B.aref("C", I, J),
                        B.read("C", I, J) + B.read("A", I, K) * B.read("B", K, J),
                    ),
                ),
            ),
        ),
        flop_basis=2 * N * N * N,
    )


def jacobi() -> Kernel:
    """3-D Jacobi relaxation, Figure 2(a): 6-point stencil over ``B``.

    Nominal flops: ``6*(N-2)**3`` (five adds and one multiply per point).
    """
    N = B.var("N")
    I, J, K = B.var("I"), B.var("J"), B.var("K")
    c = B.scalar("c")
    neighbours = (
        B.read("B", I - 1, J, K)
        + B.read("B", I + 1, J, K)
        + B.read("B", I, J - 1, K)
        + B.read("B", I, J + 1, K)
        + B.read("B", I, J, K - 1)
        + B.read("B", I, J, K + 1)
    )
    inner = N - 2
    return B.kernel(
        "jacobi",
        params=("N",),
        arrays=(B.array("A", N, N, N), B.array("B", N, N, N)),
        body=B.loop(
            "K", 2, N - 1,
            B.loop(
                "J", 2, N - 1,
                B.loop(
                    "I", 2, N - 1,
                    B.assign(B.aref("A", I, J, K), c * neighbours),
                ),
            ),
        ),
        consts=("c",),
        flop_basis=6 * inner * inner * inner,
    )


def matvec() -> Kernel:
    """Matrix-vector product ``y[I] += A[I,J] * x[J]`` (JI order)."""
    N = B.var("N")
    I, J = B.var("I"), B.var("J")
    return B.kernel(
        "matvec",
        params=("N",),
        arrays=(B.array("A", N, N), B.array("x", N), B.array("y", N)),
        body=B.loop(
            "J", 1, N,
            B.loop(
                "I", 1, N,
                B.assign(
                    B.aref("y", I),
                    B.read("y", I) + B.read("A", I, J) * B.read("x", J),
                ),
            ),
        ),
        flop_basis=2 * N * N,
    )


def stencil2d() -> Kernel:
    """5-point 2-D stencil ``A[I,J] = c * (B neighbours + B centre)``."""
    N = B.var("N")
    I, J = B.var("I"), B.var("J")
    c = B.scalar("c")
    pts = (
        B.read("B", I - 1, J)
        + B.read("B", I + 1, J)
        + B.read("B", I, J - 1)
        + B.read("B", I, J + 1)
        + B.read("B", I, J)
    )
    inner = N - 2
    return B.kernel(
        "stencil2d",
        params=("N",),
        arrays=(B.array("A", N, N), B.array("B", N, N)),
        body=B.loop(
            "J", 2, N - 1,
            B.loop(
                "I", 2, N - 1,
                B.assign(B.aref("A", I, J), c * pts),
            ),
        ),
        consts=("c",),
        flop_basis=5 * inner * inner,
    )


def conv2d() -> Kernel:
    """2-D convolution with an FxF filter: a four-deep loop nest.

    ``out[I,J] += in[I+P-1, J+Q-1] * w[P,Q]`` — exercises the framework
    beyond the paper's three-loop kernels: two loops (P and Q) carry
    temporal reuse of ``out`` simultaneously, and ``in``'s subscripts are
    two-variable affine expressions.
    """
    N, F = B.var("N"), B.var("F")
    I, J, P, Q = B.var("I"), B.var("J"), B.var("P"), B.var("Q")
    extent = N - F + 1
    return B.kernel(
        "conv2d",
        params=("N", "F"),
        arrays=(
            B.array("img", N, N),
            B.array("w", F, F),
            B.array("out", extent, extent),
        ),
        body=B.loop(
            "J", 1, extent,
            B.loop(
                "I", 1, extent,
                B.loop(
                    "Q", 1, F,
                    B.loop(
                        "P", 1, F,
                        B.assign(
                            B.aref("out", I, J),
                            B.read("out", I, J)
                            + B.read("img", I + P - 1, J + Q - 1) * B.read("w", P, Q),
                        ),
                    ),
                ),
            ),
        ),
        flop_basis=2 * extent * extent * F * F,
    )


KERNELS: Dict[str, Callable[[], Kernel]] = {
    "mm": matmul,
    "jacobi": jacobi,
    "matvec": matvec,
    "stencil2d": stencil2d,
    "conv2d": conv2d,
}


def get_kernel(name: str) -> Kernel:
    """Construct a kernel by name (see :data:`KERNELS` for the registry)."""
    try:
        factory = KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; known: {', '.join(sorted(KERNELS))}") from None
    kernel = factory()
    if kernel.name != name:
        raise RuntimeError(
            f"kernel registry is not canonical: key {name!r} built a kernel "
            f"named {kernel.name!r}"
        )
    return kernel


def default_problem(kernel: Kernel, size: int) -> Dict[str, int]:
    """The problem a bare size names: ``N=size``, every other parameter 3
    (e.g. conv2d's filter size).  ``repro tune``/``run`` and the serve
    protocol's ``size`` field all expand a size this way."""
    problem = {"N": size}
    for param in kernel.params:
        problem.setdefault(param, 3)
    return problem
