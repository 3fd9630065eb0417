"""Loop permutation (interchange) for perfect nests."""

from __future__ import annotations

from typing import Sequence

from repro.ir.nest import Kernel, Loop
from repro.transforms.util import TransformError, perfect_nest_loops

__all__ = ["permute"]


def permute(kernel: Kernel, new_order: Sequence[str]) -> Kernel:
    """Reorder the loops of a perfect nest to ``new_order`` (outer→inner).

    ``new_order`` must be a permutation of the nest's loop variables.
    Legality is the recipe's, decided on the source nest by
    :func:`~repro.analysis.dependence.recipe_refusal`.
    """
    loops = perfect_nest_loops(kernel)
    by_var = {loop.var: loop for loop in loops}
    if sorted(new_order) != sorted(by_var):
        raise TransformError(
            f"{kernel.name}: permutation {tuple(new_order)} does not match "
            f"loops {tuple(by_var)}"
        )
    for loop in loops:
        bound_vars = loop.lower.free_vars() | loop.upper.free_vars()
        if bound_vars & set(by_var):
            raise TransformError(
                f"{kernel.name}: loop {loop.var} has bounds depending on other "
                f"loops; permutation of non-rectangular nests is unsupported"
            )
    body = loops[-1].body
    for var in reversed(new_order):
        template = by_var[var]
        body = (Loop(var, template.lower, template.upper, template.step, body, template.role),)
    return kernel.with_body(body)
