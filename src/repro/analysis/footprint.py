"""Symbolic footprint models (the paper's ``Footprint(Refs, loop, Tiles)``).

A footprint is the amount of data a set of references touches while a tile
executes, expressed *symbolically* in the optimization parameters (unroll
factors ``UI, UJ, ...`` and tile sizes ``TI, TJ, ...``).  Phase 1 turns
footprints into constraints such as ``UI*UJ <= 32`` (register file) and
``TJ*TK <= 2048`` (usable L1 elements) — exactly the forms in the paper's
Table 4 — and phase 2 evaluates them numerically to prune candidate
parameter values.

Per-dimension extents combine as ``sum_l |a_dl| * (extent_l - 1) + 1`` for a
reference with subscript coefficients ``a`` and per-loop symbolic extents;
uniformly generated references of the same array are unioned by widening
each dimension with the spread of their constant offsets (Jacobi's six ``B``
references form one footprint, not six).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.ir.expr import Const, Expr, ExprLike, as_expr, emax
from repro.ir.nest import ArrayRef, Kernel, affine_subscripts, loop_order

__all__ = [
    "ref_extents",
    "ref_footprint_elems",
    "group_footprint_elems",
    "footprint_elems",
    "footprint_lines",
    "footprint_pages",
]


def ref_extents(
    kernel: Kernel,
    ref: ArrayRef,
    extents: Mapping[str, ExprLike],
    loops: Optional[Sequence[str]] = None,
) -> List[Expr]:
    """Per-dimension extents (in elements) touched by ``ref``.

    ``extents`` maps loop variables to their symbolic trip counts within
    the tile; loops not mentioned contribute a single iteration.
    """
    return group_footprint_dims(kernel, [ref], extents, loops)


def ref_footprint_elems(
    kernel: Kernel,
    ref: ArrayRef,
    extents: Mapping[str, ExprLike],
    loops: Optional[Sequence[str]] = None,
) -> Expr:
    """Footprint of one reference, in elements (product of dim extents)."""
    total: Expr = Const(1)
    for dim in ref_extents(kernel, ref, extents, loops):
        total = total * dim
    return total


def group_footprint_elems(
    kernel: Kernel,
    refs: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    loops: Optional[Sequence[str]] = None,
) -> Expr:
    """Footprint of several references of the *same array*, in elements.

    Uniformly generated references are unioned (each dimension widened by
    the spread of constant offsets); non-uniform references fall back to a
    symbolic max of individual footprints (a safe overestimate is not
    needed for the paper's kernels, where all same-array refs are uniform).
    """
    if not refs:
        return Const(0)
    arrays = {ref.array for ref in refs}
    if len(arrays) != 1:
        raise ValueError("group_footprint_elems: refs must share one array")
    if loops is None:
        loops = loop_order(kernel)
    try:
        dims = group_footprint_dims(kernel, refs, extents, loops)
    except ValueError:
        return emax(*(ref_footprint_elems(kernel, r, extents, loops) for r in refs))
    total: Expr = Const(1)
    for dim in dims:
        total = total * dim
    return total


def footprint_elems(
    kernel: Kernel,
    refs: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    loops: Optional[Sequence[str]] = None,
) -> Expr:
    """Total footprint of ``refs`` in elements, summed across arrays."""
    by_array: Dict[str, List[ArrayRef]] = {}
    for ref in refs:
        by_array.setdefault(ref.array, []).append(ref)
    total: Expr = Const(0)
    for group in by_array.values():
        total = total + group_footprint_elems(kernel, group, extents, loops)
    return total


def footprint_lines(
    kernel: Kernel,
    refs: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    params: Mapping[str, int],
    line_size: int,
    loops: Optional[Sequence[str]] = None,
) -> int:
    """Numeric footprint in cache lines for concrete parameter values.

    Column-major layout: only dimension 0 is contiguous, so lines are
    counted as ``ceil(dim0_bytes / line) * prod(other dims)`` per array
    (a slight overestimate when columns happen to be line-adjacent).
    """
    if loops is None:
        loops = loop_order(kernel)
    by_array: Dict[str, List[ArrayRef]] = {}
    for ref in refs:
        by_array.setdefault(ref.array, []).append(ref)
    total = 0
    for array, group in by_array.items():
        element = kernel.array(array).element_size
        dims = _numeric_group_extents(kernel, group, extents, params, loops)
        lines = -(-dims[0] * element // line_size)
        for extent in dims[1:]:
            lines *= extent
        total += lines
    return total


def footprint_pages(
    kernel: Kernel,
    refs: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    params: Mapping[str, int],
    page_size: int,
    loops: Optional[Sequence[str]] = None,
) -> int:
    """Numeric TLB footprint in pages for concrete parameter values.

    Each non-contiguous column segment of a tile starts on its own page in
    the worst case, so the page count is ``prod(extents of dims >= 1)``
    multiplied by the pages each contiguous segment spans; when a whole
    array column is shorter than a page, adjacent columns share pages and
    the count is scaled down accordingly.
    """
    if loops is None:
        loops = loop_order(kernel)
    by_array: Dict[str, List[ArrayRef]] = {}
    for ref in refs:
        by_array.setdefault(ref.array, []).append(ref)
    total = 0
    for array, group in by_array.items():
        decl = kernel.array(array)
        element = decl.element_size
        dims = _numeric_group_extents(kernel, group, extents, params, loops)
        segment_bytes = dims[0] * element
        segments = 1
        for extent in dims[1:]:
            segments *= extent
        column_bytes = int(decl.shape[0].evaluate(params)) * element
        if column_bytes >= page_size:
            pages_per_segment = -(-segment_bytes // page_size) + 1
            pages = segments * pages_per_segment
        else:
            # Consecutive columns are page-contiguous; segments share pages.
            columns_per_page = max(1, page_size // column_bytes)
            pages = -(-segments // columns_per_page) + 1
        total += min(pages, -(-int(decl.size_expr().evaluate(params)) * element // page_size) + 1)
    return total


def _numeric_group_extents(
    kernel: Kernel,
    group: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    params: Mapping[str, int],
    loops: Sequence[str],
) -> List[int]:
    symbolic = group_footprint_dims(kernel, group, extents, loops)
    return [max(1, int(dim.evaluate(params))) for dim in symbolic]


def group_footprint_dims(
    kernel: Kernel,
    group: Sequence[ArrayRef],
    extents: Mapping[str, ExprLike],
    loops: Optional[Sequence[str]] = None,
) -> List[Expr]:
    """Per-dimension union extents of same-array references (symbolic).

    Raises ``ValueError`` unless every reference is affine in ``loops``
    with the same coefficients and constant offsets from the first one.
    """
    if loops is None:
        loops = loop_order(kernel)
    found = [affine_subscripts(ref, loops) for ref in group]
    for ref, sub in zip(group, found):
        if sub is None:
            raise ValueError(f"{ref}: non-affine subscripts, no footprint model")
    matrix, rest = found[0]
    # Spread per dimension = max minus min constant offset across the group
    # (relative deltas to the base reference; the base itself contributes 0).
    lows = [0] * len(matrix)
    highs = [0] * len(matrix)
    for other_matrix, other_rest in found[1:]:
        if other_matrix != matrix:
            raise ValueError("group_footprint_dims: non-uniform group")
        for dim, (a, b) in enumerate(zip(rest, other_rest)):
            diff = b.distance(a)
            if diff is None:
                raise ValueError("group_footprint_dims: symbolic offsets")
            lows[dim] = min(lows[dim], diff)
            highs[dim] = max(highs[dim], diff)
    dims: List[Expr] = []
    for row, low, high in zip(matrix, lows, highs):
        extent: Expr = Const(1)
        for coeff, var in zip(row, loops):
            if coeff == 0 or var not in extents:
                continue
            extent = extent + abs(coeff) * (as_expr(extents[var]) - 1)
        dims.append(extent + (high - low))
    return dims
