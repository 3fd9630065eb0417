"""Loop tiling with explicit tile-controlling loops.

``tile_nest`` restructures a perfect nest into the canonical tiled shape
the paper uses (Figure 1(b)/(c)): a band of tile-controlling loops in a
chosen order, followed by the point loops in a chosen order.  A point loop
``I`` tiled with size ``T`` under controlling loop ``II`` runs

    DO II = lo, hi, T
      ...
        DO I = II, min(II + T - 1, hi)

which handles edge tiles exactly (the ``min`` guard), so arbitrary problem
sizes are correct, not just multiples of the tile size.  ``T`` may be a
symbol (an :class:`~repro.ir.expr.Expr`): it then appears only in the
point loop's bound and the controlling loop's step, and binding it later
yields exactly the nest tiled with the integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.ir.expr import Expr, Var, emin
from repro.ir.nest import Kernel, Loop
from repro.transforms.util import TransformError, perfect_nest_loops

__all__ = ["TileSpec", "tile_nest"]


@dataclass(frozen=True)
class TileSpec:
    """Tiling directive for one loop: controlling variable and tile size
    (an int, or a symbol bound later)."""

    loop: str
    control: str
    size: Union[int, Expr]

    def __post_init__(self) -> None:
        if isinstance(self.size, int) and self.size < 1:
            raise ValueError(f"tile size must be >= 1, got {self.size}")
        if self.control == self.loop:
            raise ValueError("controlling variable must differ from the loop variable")


def tile_nest(
    kernel: Kernel,
    tiles: Sequence[TileSpec],
    control_order: Optional[Sequence[str]] = None,
    point_order: Optional[Sequence[str]] = None,
) -> Kernel:
    """Tile a perfect nest.

    ``tiles`` gives the loops to tile; ``control_order`` the outer-to-inner
    order of the controlling loops (default: original relative order of the
    tiled loops); ``point_order`` the order of all point loops (default:
    original order).  Legality (a fully permutable band, an order that
    reverses no dependence) is the recipe's, decided on the source nest by
    :func:`~repro.analysis.dependence.recipe_refusal`.
    """
    loops = perfect_nest_loops(kernel)
    by_var = {loop.var: loop for loop in loops}
    original_order = tuple(loop.var for loop in loops)
    tiled_vars = [t.loop for t in tiles]
    if len(set(tiled_vars)) != len(tiled_vars):
        raise TransformError("duplicate loops in tile specs")
    for spec in tiles:
        if spec.loop not in by_var:
            raise TransformError(f"no loop {spec.loop!r} to tile")
        if spec.control in by_var or kernel.has_array(spec.control):
            raise TransformError(f"controlling name {spec.control!r} already in use")
    for loop in loops:
        if loop.step != 1:
            raise TransformError(f"loop {loop.var} has step {loop.step}; tile steps must be 1")
        bound_vars = loop.lower.free_vars() | loop.upper.free_vars()
        if bound_vars & set(by_var):
            raise TransformError("non-rectangular nests cannot be tiled")

    spec_by_var: Dict[str, TileSpec] = {t.loop: t for t in tiles}
    spec_by_control = {t.control: t for t in tiles}
    if control_order is None:
        ordered_specs = [spec_by_var[v] for v in original_order if v in tiled_vars]
    else:
        if sorted(control_order) != sorted(spec_by_control):
            raise TransformError(
                "control_order must name exactly the controlling loops "
                f"{sorted(spec_by_control)}"
            )
        ordered_specs = [spec_by_control[c] for c in control_order]
    if point_order is None:
        point_order = original_order
    elif sorted(point_order) != sorted(original_order):
        raise TransformError("point_order must be a permutation of the nest's loops")

    body = loops[-1].body
    for var in reversed(list(point_order)):
        template = by_var[var]
        spec = spec_by_var.get(var)
        if spec is None:
            lower, upper = template.lower, template.upper
        else:
            control = Var(spec.control)
            lower = control
            upper = emin(control + (spec.size - 1), template.upper)
        body = (Loop(var, lower, upper, 1, body, template.role),)
    for spec in reversed(ordered_specs):
        template = by_var[spec.loop]
        body = (
            Loop(spec.control, template.lower, template.upper, spec.size, body, "control"),
        )
    return kernel.with_body(body)
