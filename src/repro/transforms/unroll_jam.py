"""Unroll-and-jam (register tiling, the paper's §3.1.2).

Unroll-and-jam of an outer loop ``J`` by factor ``U`` steps ``J`` by ``U``
and *jams* the unrolled iterations into the loops nested inside, so the
innermost body contains ``U`` copies of each statement with ``J`` replaced
by ``J+k``.  This exposes reuse across the unrolled iterations, which
scalar replacement then moves into registers.

Trip counts that are not multiples of ``U`` are handled with an exact
fringe: the main loop covers the largest multiple of ``U`` iterations and
a step-1 remainder loop covers the rest.  Because bounds may be symbolic
(``min(JJ+TJ-1, N)``), the split point is computed symbolically:

    main:   DO J = lo, lo + ((hi - lo + 1) / U) * U - 1, U
    fringe: DO J = lo + ((hi - lo + 1) / U) * U, hi

(with integer division), which is correct for any ``lo <= hi`` and yields
an empty fringe when ``U`` divides the trip count.
"""

from __future__ import annotations

from typing import Tuple

from repro.ir.expr import Var, emax
from repro.ir.nest import Kernel, Loop, Node
from repro.transforms.util import TransformError, replace_loop

__all__ = ["unroll_and_jam", "unroll_jam_body"]


def unroll_and_jam(kernel: Kernel, var: str, factor: int) -> Kernel:
    """Unroll-and-jam every loop named ``var`` in ``kernel`` by ``factor``.

    Legality (no reversed dependence, no shared scalar temporary) is the
    recipe's, decided on the source nest by
    :func:`~repro.analysis.dependence.recipe_refusal`.
    """
    if factor < 1:
        raise TransformError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return kernel

    found = []

    def rewrite(loop: Loop) -> Tuple[Node, ...]:
        found.append(loop)
        return _unroll_one(loop, factor)

    body = replace_loop(kernel.body, var, rewrite)
    if not found:
        raise TransformError(f"no loop {var!r} to unroll")
    return kernel.with_body(body)


def _unroll_one(loop: Loop, factor: int) -> Tuple[Node, ...]:
    if loop.step != 1:
        raise TransformError(f"loop {loop.var} already has step {loop.step}")
    for child in loop.body:
        if isinstance(child, Loop):
            dependent = (child.lower.free_vars() | child.upper.free_vars()) & {loop.var}
            if dependent:
                raise TransformError(
                    f"inner loop {child.var} bounds depend on {loop.var}; "
                    f"cannot jam a non-rectangular nest"
                )
    trip = loop.upper - loop.lower + 1
    full = (trip // factor) * factor
    main_upper = loop.lower + full - 1
    # For an already-empty range (hi < lo - 1) the symbolic split point can
    # fall below lo and the fringe would execute spuriously: clamp it.
    fringe_lower = emax(loop.lower + full, loop.lower)
    main = Loop(
        loop.var,
        loop.lower,
        main_upper,
        factor,
        unroll_jam_body(loop.body, loop.var, factor),
        loop.role,
    )
    fringe = Loop(loop.var, fringe_lower, loop.upper, 1, loop.body, loop.role)
    return (main, fringe)


def unroll_jam_body(
    body: Tuple[Node, ...], var: str, factor: int
) -> Tuple[Node, ...]:
    """Jam ``factor`` copies of ``body`` (with ``var`` shifted) together.

    Statements are replicated at their own nesting level; loop structure is
    shared (that is the "jam").
    """
    result = []
    for node in body:
        if isinstance(node, Loop):
            result.append(node.with_body(unroll_jam_body(node.body, var, factor)))
        else:
            for k in range(factor):
                result.append(node.substitute({var: Var(var) + k}))
    return tuple(result)
