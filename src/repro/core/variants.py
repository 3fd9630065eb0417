"""Parameterized code variants (phase 1's output, phase 2's input).

A :class:`Variant` is a *recipe*: the loop order, unroll-and-jam loops,
tiled loops and copy candidates chosen by the model-driven analysis,
together with symbolic :class:`Constraint`\\ s on the parameter values
(``UI*UJ <= 32``, ``TJ*TK <= 2048`` — the paper's Table 4).  The actual
code transformations "that depend upon parameter values" run when the
empirical search instantiates the variant with concrete values
(:func:`instantiate`), as the paper prescribes (§3.2): once per recipe
shape with the tile sizes symbolic, then bound to each candidate's
values (:func:`instantiate_base`).  The simulator needs no binding: it
runs the shape with the sizes as symbols (:func:`simulation_shape`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.dependence import recipe_refusal
from repro.ir.expr import Expr, Var
from repro.ir.nest import ArrayRef, Kernel, Loop, Node
from repro.machines import MachineSpec
from repro.transforms import (
    CopyDim,
    TileSpec,
    TransformError,
    apply_copy,
    insert_prefetch,
    scalar_replace,
    tile_nest,
    unroll_and_jam,
)
from repro.transforms.padding import pad_arrays

__all__ = [
    "Constraint",
    "CopyPlan",
    "LevelPlan",
    "PrefetchSite",
    "Variant",
    "apply_prefetch",
    "clear_base_cache",
    "control_name",
    "instantiate",
    "instantiate_base",
    "simulation_shape",
    "tile_symbol",
]


@dataclass(frozen=True)
class Constraint:
    """``expr <= bound`` over optimization parameters (and problem sizes).

    ``hard`` constraints gate feasibility (a register tile larger than the
    register file is never worth running).  Soft constraints are model
    *predictions* — e.g. "the untiled operand still fits L2 at this
    problem size" — that rank variants but must not forbid running them:
    when data genuinely exceeds a level it simply streams, which the
    empirical measurement prices correctly.
    """

    expr: Expr
    bound: Expr
    label: str
    hard: bool = True

    def satisfied(self, values: Mapping[str, int]) -> bool:
        return int(self.expr.evaluate(values)) <= int(self.bound.evaluate(values))

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class CopyPlan:
    """Copy one array's tile into a contiguous temporary at a cache level."""

    array: str
    temp: str
    #: (array dimension, point loop indexing it), covering every dimension
    dims: Tuple[Tuple[int, str], ...]
    level: int  # 1-based cache level whose conflicts the copy removes


@dataclass(frozen=True)
class LevelPlan:
    """One row of the paper's Table 4: what a memory level retains."""

    level: str  # "Reg", "L1", "L2", ...
    loop: str  # loop carrying the reuse exploited at this level
    retained: Tuple[ArrayRef, ...]
    transform: str  # human-readable transform summary
    params: Tuple[str, ...]

    def describe(self) -> str:
        retained = ", ".join(str(r) for r in self.retained)
        params = ",".join(self.params) if self.params else "-"
        return f"{self.level:4s} {self.loop:3s} {self.transform:38s} {params}"


@dataclass(frozen=True)
class PrefetchSite:
    """A (array, loop) pair where the search may insert prefetches."""

    array: str
    loop: str


@dataclass(frozen=True)
class Variant:
    """A parameterized implementation candidate of one kernel."""

    name: str
    kernel_name: str
    point_order: Tuple[str, ...]
    control_order: Tuple[str, ...]  # tiled loop vars, outermost control first
    tiles: Tuple[Tuple[str, str], ...]  # (loop, tile parameter)
    unrolls: Tuple[Tuple[str, str], ...]  # (loop, unroll parameter)
    register_loop: str
    copies: Tuple[CopyPlan, ...]
    levels: Tuple[LevelPlan, ...]
    constraints: Tuple[Constraint, ...]

    # -- conveniences -----------------------------------------------------
    @property
    def tile_map(self) -> Dict[str, str]:
        return dict(self.tiles)

    @property
    def unroll_map(self) -> Dict[str, str]:
        return dict(self.unrolls)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p for _, p in self.tiles) + tuple(p for _, p in self.unrolls)

    def feasible(self, values: Mapping[str, int]) -> bool:
        """Check every *hard* constraint whose variables are all bound."""
        for constraint in self.constraints:
            if not constraint.hard:
                continue
            free = constraint.expr.free_vars() | constraint.bound.free_vars()
            if free - set(values):
                continue
            if not constraint.satisfied(values):
                return False
        return True

    def predicted_fit(self, values: Mapping[str, int]) -> bool:
        """Do the soft (model-prediction) constraints also hold?"""
        for constraint in self.constraints:
            if constraint.hard:
                continue
            free = constraint.expr.free_vars() | constraint.bound.free_vars()
            if free - set(values):
                continue
            if not constraint.satisfied(values):
                return False
        return True

    def describe(self) -> str:
        """Render in the style of the paper's Table 4."""
        lines = [f"variant {self.name} ({self.kernel_name})"]
        for level in self.levels:
            lines.append("  " + level.describe())
        for constraint in self.constraints:
            lines.append(f"  s.t. {constraint.label}")
        return "\n".join(lines)


def control_name(loop: str) -> str:
    """Controlling-loop variable for a tiled loop (``K`` -> ``KK``)."""
    return loop + loop


def tile_symbol(param: str) -> Var:
    """The reserved symbol a recipe shape holds for tile parameter
    ``param`` until a binding substitutes its size."""
    return Var("__T_" + param)


def instantiate_base(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec] = None,
) -> Kernel:
    """The prefetch-free prefix of :func:`instantiate`.

    Runs permute+tile → copy → unroll-and-jam → scalar replacement — every
    transform that depends on the variant recipe and parameter binding but
    *not* on prefetch placement or padding.  The pipeline runs once per
    recipe *shape* — kernel, recipe (the variant's transformation
    sequence, shared by the variants machines derive for it), unroll
    factors and copy pads (the machine enters only through the pads) —
    with every tile size the
    reserved symbol :func:`tile_symbol`.  Tile sizes appear only in loop
    bounds, control-loop steps and copy-buffer extents, so a binding
    substitutes its sizes into the loop headers and array declarations
    and shares every statement with the shape; the result equals the
    pipeline run with the integer sizes.  Shapes live in a bounded,
    locked, process-local LRU (the serve daemon scores on threads; pool
    workers each grow their own).  The result is immutable (frozen IR
    dataclasses), so candidates that differ only in prefetch distance or
    pads apply their cheap suffixes to it (:func:`apply_prefetch`, then
    ``pad_arrays``).

    Raises ``TransformError`` for an unroll factor below 1 and
    ``ValueError`` for a tile size below 1, both before the shape is
    looked up, and ``TransformError`` when the recipe is illegal on
    ``kernel`` (:func:`recipe_refusal` on the source nest, with
    reassociation permitted — see :func:`instantiate`; a loop unrolled by
    1 is not jammed), so only legal shapes are kept.
    """
    shape, sizes = _shape_of(kernel, variant, values, machine)
    return _bind(shape, sizes)


def simulation_shape(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec] = None,
    prefetch: Optional[Mapping[PrefetchSite, int]] = None,
    pads: Optional[Mapping[str, int]] = None,
) -> Tuple[Kernel, Dict[str, int]]:
    """The recipe shape of a candidate with its prefetch placement
    inserted and its arrays padded, and the candidate's ``{tile symbol:
    size}`` bindings.

    Simulating the shape with the bindings as further symbols
    (``execute(..., bindings=...)``) gives the counters of the bound
    :func:`instantiate` padded by ``pad_arrays``.  The placed shape is
    memoized per shape and placement, and padding rewrites declarations
    only, so every tile binding simulates the same loop objects and the
    executor compiles them once.  Refuses what :func:`instantiate_base`
    refuses.
    """
    shape, sizes = _shape_of(kernel, variant, values, machine)
    placement = (
        _line_elems(machine),
        tuple((site, int(d)) for site, d in (prefetch or {}).items() if d and d > 0),
    )
    key = (id(shape), placement)
    with _SHAPE_LOCK:
        entry = _PLACED.get(key)
        if entry is not None:
            _PLACED.move_to_end(key)
    if entry is None:
        entry = (shape, apply_prefetch(shape, machine, dict(placement[1])))
        with _SHAPE_LOCK:
            entry = _PLACED.setdefault(key, entry)
            while len(_PLACED) > _PLACED_CAP:
                _PLACED.popitem(last=False)
    placed = entry[1]
    if pads:
        placed = pad_arrays(placed, pads)
    return placed, {tile_symbol(param).name: size for param, size in sizes.items()}


def _shape_of(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec],
) -> Tuple[Kernel, Dict[str, int]]:
    """The recipe shape of a binding through the LRU, and its tile sizes
    (tile parameter -> size)."""
    factors = tuple(int(values[param]) for _, param in variant.unrolls)
    for factor in factors:
        if factor < 1:
            raise TransformError(f"unroll factor must be >= 1, got {factor}")
    sizes = {param: int(values[param]) for _, param in variant.tiles}
    for size in sizes.values():
        if size < 1:
            raise ValueError(f"tile size must be >= 1, got {size}")
    tile_map = variant.tile_map
    pads = tuple(
        _conflict_pad(sizes[tile_map[min(plan.dims)[1]]], machine)
        for plan in variant.copies
    )
    # the transformation sequence, not the machine-specific variant: the
    # variants two machines derive for one recipe share its shape
    recipe = (
        variant.control_order,
        variant.point_order,
        variant.tiles,
        variant.unrolls,
        variant.register_loop,
        variant.copies,
    )
    key = (kernel, recipe, factors, pads)
    with _SHAPE_LOCK:
        shape = _SHAPE_CACHE.get(key)
        if shape is not None:
            _SHAPE_CACHE.move_to_end(key)
    if shape is None:
        shape = _build_shape(kernel, variant, factors, pads)
        with _SHAPE_LOCK:
            shape = _SHAPE_CACHE.setdefault(key, shape)
            _SHAPE_CACHE.move_to_end(key)
            while len(_SHAPE_CACHE) > _SHAPE_CAP:
                _SHAPE_CACHE.popitem(last=False)
    return shape, sizes


#: bound of the recipe-shape LRU of :func:`instantiate_base`
_SHAPE_CAP = 256
_SHAPE_CACHE: "OrderedDict[tuple, Kernel]" = OrderedDict()
_SHAPE_LOCK = threading.Lock()
#: bound of the LRU of placed shapes: a search simulates the bindings of
#: one placed shape in a row, so a few entries keep nearly all the reuse
_PLACED_CAP = 8
#: (``id(shape)``, prefetch placement) -> (the shape, placed shape);
#: holding the shape keeps its id from being reused while the entry lives
_PLACED: "OrderedDict[tuple, Tuple[Kernel, Kernel]]" = OrderedDict()


def _build_shape(
    kernel: Kernel,
    variant: Variant,
    factors: Tuple[int, ...],
    pads: Tuple[int, ...],
) -> Kernel:
    """The transform pipeline with every tile size symbolic; raises
    ``TransformError`` for a recipe :func:`recipe_refusal` refuses (a
    verdict that holds for every tile size)."""
    jams = [loop for (loop, _), factor in zip(variant.unrolls, factors) if factor > 1]
    refusal = recipe_refusal(kernel, variant.control_order, variant.point_order, jams, True)
    if refusal is not None:
        raise TransformError(f"{kernel.name} {variant.name}: {refusal}")
    tile_specs = [
        TileSpec(loop, control_name(loop), tile_symbol(param))
        for loop, param in variant.tiles
    ]
    result = tile_nest(
        kernel,
        tile_specs,
        control_order=[control_name(loop) for loop in variant.control_order],
        point_order=list(variant.point_order),
    )

    tile_map = variant.tile_map
    for plan, pad in zip(variant.copies, pads):
        dims = [
            CopyDim(dim, point_var, control_name(point_var), tile_symbol(tile_map[point_var]))
            for dim, point_var in plan.dims
        ]
        result = apply_copy(result, plan.array, plan.temp, dims, pad=pad)

    unrolls = dict(zip((loop for loop, _ in variant.unrolls), factors))
    for loop in reversed(variant.point_order):
        factor = unrolls.get(loop, 1)
        if factor > 1:
            result = unroll_and_jam(result, loop, factor)

    return scalar_replace(result, variant.register_loop)


def _bind(shape: Kernel, sizes: Mapping[str, int]) -> Kernel:
    """``shape`` with ``sizes`` (tile parameter -> size) substituted into
    every loop header and array shape.  Statements are shared, not
    copied, and a bound the shape shares between loops is bound once."""
    env = {tile_symbol(param).name: size for param, size in sizes.items()}
    bound: Dict[int, Expr] = {}

    def sub(expr: Expr) -> Expr:
        got = bound.get(id(expr))
        if got is None:
            got = bound[id(expr)] = expr.substitute(env)
        return got

    def bind(nodes: Tuple[Node, ...]) -> Tuple[Node, ...]:
        return tuple(
            Loop(
                node.var,
                sub(node.lower),
                sub(node.upper),
                node.step if isinstance(node.step, int) else node.step.evaluate(env),
                bind(node.body),
                node.role,
            )
            if isinstance(node, Loop)
            else node
            for node in nodes
        )

    arrays = tuple(
        replace(decl, shape=tuple(sub(extent) for extent in decl.shape))
        for decl in shape.arrays
    )
    return replace(shape, arrays=arrays, body=bind(shape.body))


def clear_base_cache() -> None:
    """Empty every process-wide memo a fresh ``repro tune`` starts
    without (benchmarks time searches cold): recipe shapes and their
    prefetch placements, the executor's compiled programs, the miss
    model's per-shape analyses, and the memoized linear forms and
    dependence solutions."""
    from repro.analysis.dependence import clear_memos
    from repro.analysis.missmodel import clear_shapes
    from repro.ir.expr import linear_form
    from repro.sim.executor import clear_compiled

    with _SHAPE_LOCK:
        _SHAPE_CACHE.clear()
        _PLACED.clear()
    clear_compiled()
    clear_shapes()
    clear_memos()
    linear_form.cache_clear()


def apply_prefetch(
    kernel: Kernel,
    machine: Optional[MachineSpec] = None,
    prefetch: Optional[Mapping[PrefetchSite, int]] = None,
) -> Kernel:
    """Insert the prefetch placement into an instantiated base kernel
    (the final step of :func:`instantiate`, split out so delta evaluation
    can re-run only this suffix on a shared base)."""
    line_elems = _line_elems(machine)
    result = kernel
    for site, distance in (prefetch or {}).items():
        if distance and distance > 0:
            result = insert_prefetch(
                result, site.array, int(distance), site.loop, line_elems=line_elems
            )
    return result


def _line_elems(machine: Optional[MachineSpec]) -> int:
    """Elements per L1 line, the prefetch grouping granularity."""
    return 4 if machine is None else max(1, machine.l1.line_size // 8)


def instantiate(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec] = None,
    prefetch: Optional[Mapping[PrefetchSite, int]] = None,
) -> Kernel:
    """Produce executable code for ``variant`` with concrete parameters.

    Pipeline order (each step's preconditions rely on the previous):
    permute+tile → copy → unroll-and-jam → scalar replacement → prefetch.
    Raises ``KeyError`` when a needed parameter is missing from ``values``
    and ``TransformError`` when the recipe is inapplicable.

    The recipe's legality is decided with reassociation permitted: the
    paper's evaluation compiles with ``roundoff=3`` (Table 3), i.e.
    floating-point sums may be reordered.  Tiled/interleaved reductions
    (e.g. blocking both filter loops of a convolution) are therefore
    allowed; results then match the original to rounding, not bitwise.

    Implemented as :func:`instantiate_base` + :func:`apply_prefetch`, the
    split the evaluation engine's delta path reuses.
    """
    return apply_prefetch(
        instantiate_base(kernel, variant, values, machine), machine, prefetch
    )


def _conflict_pad(size: int, machine: Optional[MachineSpec]) -> int:
    """Pad a copy buffer whose first copied dimension holds ``size``
    elements so its column stride avoids self-conflicts.

    The paper's constraint: the copy array's stride must not be a multiple
    of the previous level's cache-set span (``mod(Size, Capacity) != 0``).
    """
    if machine is None:
        return 0
    column_bytes = size * 8
    pad = 0
    for cache in machine.caches:
        span = cache.capacity // cache.associativity
        while column_bytes >= span and (column_bytes % span) == 0:
            pad += cache.line_size // 8
            column_bytes = (size + pad) * 8
    return pad


def prefetch_sites(kernel: Kernel, variant: Variant) -> List[PrefetchSite]:
    """Candidate prefetch sites for an *instantiated* variant's search.

    The register-reuse loop streams the per-iteration data (the paper
    prefetches ``A`` in v1 and the copy of ``B`` in v2 there), and each
    copy's innermost copy loop streams the copy source.
    """
    sites: List[PrefetchSite] = []
    copied = {plan.array: plan for plan in variant.copies}
    for decl in kernel.arrays:
        if decl.name in copied:
            plan = copied[decl.name]
            inner_dim = min(d for d, _ in plan.dims)
            point = dict(plan.dims)[inner_dim]
            sites.append(PrefetchSite(decl.name, "c" + point))
        else:
            sites.append(PrefetchSite(decl.name, variant.register_loop))
    for plan in variant.copies:
        sites.append(PrefetchSite(plan.temp, variant.register_loop))
    return sites
