"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.codegen.interp import allocate_arrays
from repro.kernels import jacobi, matmul, matvec, stencil2d


@pytest.fixture
def mm_kernel():
    return matmul()


@pytest.fixture
def jacobi_kernel():
    return jacobi()


@pytest.fixture
def matvec_kernel():
    return matvec()


@pytest.fixture
def stencil2d_kernel():
    return stencil2d()


@pytest.fixture
def mm_data(mm_kernel):
    """Small matrix-multiply inputs (N=7, deliberately not a multiple of
    common tile sizes, to exercise remainder handling)."""
    params = {"N": 7}
    return params, allocate_arrays(mm_kernel, params, seed=7)


@pytest.fixture
def jacobi_data(jacobi_kernel):
    params = {"N": 8}
    return params, allocate_arrays(jacobi_kernel, params, seed=11)


@contextlib.contextmanager
def forced_cpu_count(count: int):
    """Make ``os.cpu_count()`` report ``count`` inside the block.

    Whether a ``-j N`` search speculates depends on the host's CPU count
    (:attr:`repro.eval.EvalEngine.can_overlap`); forcing it lets the
    determinism suites cover both branches on any host.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: count)
        yield count


@pytest.fixture(params=[1, 8], ids=["cpus1", "cpus8"])
def host_cpus(request):
    """Run the test as if on a 1-CPU host (no speculation at any ``-j``)
    and on an 8-CPU host (``-j N`` speculates)."""
    with forced_cpu_count(request.param) as count:
        yield count
