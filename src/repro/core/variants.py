"""Parameterized code variants (phase 1's output, phase 2's input).

A :class:`Variant` is a *recipe*: the loop order, unroll-and-jam loops,
tiled loops and copy candidates chosen by the model-driven analysis,
together with symbolic :class:`Constraint`\\ s on the parameter values
(``UI*UJ <= 32``, ``TJ*TK <= 2048`` — the paper's Table 4).  The actual
code transformations "that depend upon parameter values" run when the
empirical search instantiates the variant with concrete values
(:func:`instantiate`), exactly as the paper prescribes (§3.2).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dependence import recipe_refusal
from repro.ir.expr import Expr, Var
from repro.ir.nest import ArrayRef, Kernel
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

__all__ = [
    "Constraint",
    "CopyPlan",
    "LevelPlan",
    "PrefetchSite",
    "Variant",
    "apply_prefetch",
    "cached_base",
    "clear_base_cache",
    "control_name",
    "instantiate",
    "instantiate_base",
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


def instantiate_base(
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec] = None,
) -> Kernel:
    """The prefetch-free prefix of :func:`instantiate`.

    Runs permute+tile → copy → unroll-and-jam → scalar replacement — every
    transform that depends on the variant recipe and parameter binding but
    *not* on prefetch placement or padding.  The result is immutable
    (frozen IR dataclasses), so candidates that differ only in prefetch
    distance or pads — same :func:`repro.eval.keys.trace_signature` — can
    share one base and apply their cheap suffixes independently
    (:func:`apply_prefetch`, then ``pad_arrays``).

    Raises ``TransformError`` when the recipe is illegal on ``kernel``
    (:func:`recipe_refusal` on the source nest, with reassociation
    permitted — see :func:`instantiate`; a loop unrolled by 1 is not
    jammed).
    """
    jams = [loop for loop, param in variant.unrolls if int(values[param]) > 1]
    refusal = recipe_refusal(kernel, variant.control_order, variant.point_order, jams, True)
    if refusal is not None:
        raise TransformError(f"{kernel.name} {variant.name}: {refusal}")
    tile_specs = [
        TileSpec(loop, control_name(loop), int(values[param]))
        for loop, param in variant.tiles
    ]
    result = tile_nest(
        kernel,
        tile_specs,
        control_order=[control_name(loop) for loop in variant.control_order],
        point_order=list(variant.point_order),
    )

    tile_map = variant.tile_map
    for plan in variant.copies:
        dims = []
        for dim, point_var in plan.dims:
            size = int(values[tile_map[point_var]])
            dims.append(CopyDim(dim, point_var, control_name(point_var), size))
        pad = _conflict_pad(dims, machine)
        result = apply_copy(result, plan.array, plan.temp, dims, pad=pad)

    for loop in reversed(variant.point_order):
        param = variant.unroll_map.get(loop)
        if param is None:
            continue
        factor = int(values[param])
        if factor > 1:
            result = unroll_and_jam(result, loop, factor)

    return scalar_replace(result, variant.register_loop)


#: process-local LRU of :func:`instantiate_base` results, keyed by trace
#: signature (:func:`repro.eval.keys.trace_signature`).  The model scores
#: and the engine builds through it, so a scored candidate that is then
#: simulated is transformed once, and candidates differing only in
#: prefetch distance or pads (the distance-ladder and padding stages of
#: the guided search) share one tile/copy/unroll/scalar-replace front end
#: and re-run only the cheap suffix.  IR nodes are frozen dataclasses, so
#: sharing is safe; the lock covers searches running on threads of one
#: process (the serve daemon's).  Pool workers each grow their own copy,
#: which is exactly what makes their repeat builds cheap.
_BASE_IR_CAP = 256
_BASE_IR_CACHE: "OrderedDict[str, Kernel]" = OrderedDict()
_BASE_IR_LOCK = threading.Lock()


def cached_base(
    signature: str,
    kernel: Kernel,
    variant: Variant,
    values: Mapping[str, int],
    machine: Optional[MachineSpec] = None,
) -> Kernel:
    """:func:`instantiate_base` through the shared LRU; ``signature``
    must be the binding's trace signature."""
    with _BASE_IR_LOCK:
        base = _BASE_IR_CACHE.get(signature)
        if base is not None:
            _BASE_IR_CACHE.move_to_end(signature)
            return base
    base = instantiate_base(kernel, variant, dict(values), machine)
    with _BASE_IR_LOCK:
        _BASE_IR_CACHE[signature] = base
        _BASE_IR_CACHE.move_to_end(signature)
        while len(_BASE_IR_CACHE) > _BASE_IR_CAP:
            _BASE_IR_CACHE.popitem(last=False)
    return base


def clear_base_cache() -> None:
    """Empty the shared base-IR LRU (benchmarks time searches cold)."""
    with _BASE_IR_LOCK:
        _BASE_IR_CACHE.clear()


def apply_prefetch(
    kernel: Kernel,
    machine: Optional[MachineSpec] = None,
    prefetch: Optional[Mapping[PrefetchSite, int]] = None,
) -> Kernel:
    """Insert the prefetch placement into an instantiated base kernel
    (the final step of :func:`instantiate`, split out so delta evaluation
    can re-run only this suffix on a shared base)."""
    line_elems = 4
    if machine is not None:
        line_elems = max(1, machine.l1.line_size // 8)
    result = kernel
    for site, distance in (prefetch or {}).items():
        if distance and distance > 0:
            result = insert_prefetch(
                result, site.array, int(distance), site.loop, line_elems=line_elems
            )
    return result


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


def _conflict_pad(dims: Sequence[CopyDim], machine: Optional[MachineSpec]) -> int:
    """Pad the copy buffer so its column stride avoids self-conflicts.

    The paper's constraint: the copy array's stride must not be a multiple
    of the previous level's cache-set span (``mod(Size, Capacity) != 0``).
    """
    if machine is None or not dims:
        return 0
    first = min(dims, key=lambda d: d.dim)
    column_bytes = first.tile_size * 8
    pad = 0
    for cache in machine.caches:
        span = cache.capacity // cache.associativity
        while column_bytes >= span and (column_bytes % span) == 0:
            pad += cache.line_size // 8
            column_bytes = (first.tile_size + pad) * 8
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
