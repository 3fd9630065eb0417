"""The dense-matrix kernels studied by the paper, plus extras.

* :func:`matmul` — Figure 1(a): ``C[I,J] += A[I,K] * B[K,J]`` in KJI order.
* :func:`jacobi` — Figure 2(a): 3-D Jacobi relaxation (6-point stencil).
* :func:`matvec`, :func:`stencil2d`, :func:`conv2d` — additional kernels
  used by examples and tests to exercise the framework beyond the paper's
  two case studies (conv2d is a four-deep nest with two reuse-carrying
  innermost loop candidates).
"""

from repro.kernels.defs import (
    KERNELS,
    conv2d,
    default_problem,
    get_kernel,
    jacobi,
    matmul,
    matvec,
    stencil2d,
)

__all__ = [
    "matmul",
    "jacobi",
    "matvec",
    "stencil2d",
    "conv2d",
    "KERNELS",
    "get_kernel",
    "default_problem",
]
