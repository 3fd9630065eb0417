"""Differential oracle: transformed generated nests against the IR
interpreter.

Each nest of ``tests/sim/test_nest_fuzz.py`` is unroll-and-jammed by 2
on its second-innermost loop (skipped where the recipe check or the
transform's own preconditions refuse), then scalar-replaced on its
innermost loop and given prefetches of ``A``.  The interpreter must compute the same arrays as it does for
the untransformed nest (``np.allclose``: reassociated reductions may
round differently).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dependence import recipe_refusal
from repro.codegen.interp import allocate_arrays, run_kernel
from repro.frontend.parser import parse_kernel
from repro.ir.nest import loop_order
from repro.ir.validate import validate_kernel
from repro.transforms import TransformError, insert_prefetch, scalar_replace, unroll_and_jam

from tests.sim.test_nest_fuzz import generate_nest


def assert_transformed_matches(seed: int) -> None:
    text, params = generate_nest(seed)
    kernel = parse_kernel(text)
    order = loop_order(kernel)
    out = kernel
    if recipe_refusal(kernel, (), order, order[-2:-1], allow_reassociation=True) is None:
        try:
            out = unroll_and_jam(out, order[-2], 2)
        except TransformError:
            pass  # a structural precondition: the loop has a step
    out = scalar_replace(out, order[-1])
    out = insert_prefetch(out, "A", 2, order[-1])
    validate_kernel(out)
    arrays = allocate_arrays(kernel, params, seed=seed)
    want = run_kernel(kernel, params, arrays)
    got = run_kernel(out, params, arrays)
    for name in want:
        assert np.allclose(got[name], want[name]), (seed, name, text)


@pytest.mark.parametrize("seed", range(40))
def test_transformed_nest_matches_interpreter(seed):
    assert_transformed_matches(seed)
