"""Phase 1: derive parameterized variants (the paper's Figure 3).

The algorithm walks the memory hierarchy from registers up through the
cache levels.  At each level it selects the loop carrying the most
unexploited temporal reuse (``MostProfitableLoops``) and the references
that reuse would retain (``MostProfitableRefs``); ties produce multiple
variants.

* **Register level** — the selected loop moves innermost; every other
  loop is a candidate for unroll-and-jam with a symbolic unroll factor,
  constrained by the register-file footprint (``UI*UJ <= 32``).  Once a
  variant's loop order is fixed, a loop whose jam alone the recipe check
  (:func:`~repro.analysis.dependence.recipe_refusal`) refuses leaves the
  unroll set and the constraint: no binding unrolling it could build.
* **Cache levels** — the selected loop moves to the outermost remaining
  position; the loops indexing the retained references' data are tiled
  (symbolic tile sizes), constrained by the usable cache fraction
  ``(n-1)/n * capacity`` and by TLB reach.  Each tiling branch also emits
  a *copy* sub-variant (retained tile copied to a contiguous temporary)
  when every dimension of the retained array is tiled; and, at the last
  level, a *no-tiling* branch whose constraint involves the problem size
  (this is the paper's v1, "considered for small arrays").
* **Stepped loops** — tiling and unroll-and-jam need step-1 loops, so a
  nest with a stepped loop is refused outright (``ValueError``).
* **Pruning** — following §4.2, variants of high-rank (3-D-data) kernels
  that tile at two or more cache levels are pruned (cache and TLB
  conflicts for large arrays), and structurally identical variants are
  deduplicated.

For matrix multiply on the SGI this reproduces Table 4's v1 and v2; for
Jacobi it produces variants with different loop orders, as §4.2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dependence import recipe_refusal
from repro.analysis.footprint import footprint_elems
from repro.analysis.profitability import most_profitable_loops, most_profitable_refs
from repro.analysis.reuse import ReuseSummary, analyze_reuse
from repro.core.variants import Constraint, CopyPlan, LevelPlan, Variant
from repro.ir.expr import Const, Expr, Var, as_expr
from repro.ir.nest import ArrayRef, Kernel, Prefetch, array_refs, find_loop, loop_order
from repro.ir.nest import walk_loops, walk_statements
from repro.machines import MachineSpec

__all__ = ["derive_variants"]


@dataclass
class _Branch:
    """A partially derived variant."""

    register_loop: str = ""
    reg_retained: Tuple[ArrayRef, ...] = ()
    unrolls: Dict[str, str] = field(default_factory=dict)
    level_loops: List[str] = field(default_factory=list)  # L1's loop, L2's loop...
    tiles: Dict[str, str] = field(default_factory=dict)
    copies: List[CopyPlan] = field(default_factory=list)
    levels: List[LevelPlan] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    mapped: List[ArrayRef] = field(default_factory=list)

    def clone(self) -> "_Branch":
        return _Branch(
            register_loop=self.register_loop,
            reg_retained=self.reg_retained,
            unrolls=dict(self.unrolls),
            level_loops=list(self.level_loops),
            tiles=dict(self.tiles),
            copies=list(self.copies),
            levels=list(self.levels),
            constraints=list(self.constraints),
            mapped=list(self.mapped),
        )


def derive_variants(
    kernel: Kernel,
    machine: MachineSpec,
    max_variants: int = 12,
) -> List[Variant]:
    """Run the Figure 3 algorithm; returns variants in preference order.

    Raises ``ValueError`` for a nest with a stepped loop: tiling and
    unroll-and-jam need step-1 loops, so no variant of it could build.
    """
    for loop in walk_loops(kernel.body):
        if loop.step != 1:
            raise ValueError(
                f"{kernel.name}: loop {loop.var} has step {loop.step}; "
                "variants are derived for step-1 loops only"
            )
    summary = analyze_reuse(kernel, machine.l1.line_size)
    loops = loop_order(kernel)
    refs = _distinct_refs(kernel)

    branches: List[_Branch] = []
    for reg_loop in most_profitable_loops(kernel, summary, list(loops), refs):
        branch = _Branch(register_loop=reg_loop)
        branch.reg_retained = tuple(
            most_profitable_refs(kernel, summary, reg_loop, refs)
        )
        branch.mapped.extend(branch.reg_retained)
        branch.unrolls = {v: "U" + v for v in loops if v != reg_loop}
        constraint, plan = _register_plan(kernel, machine, branch, loops)
        branch.constraints.append(constraint)
        branch.levels.append(plan)
        branches.append(branch)

    for level in range(1, machine.num_cache_levels + 1):
        next_branches: List[_Branch] = []
        last_level = level == machine.num_cache_levels
        for branch in branches:
            used = {branch.register_loop, *branch.level_loops}
            remaining = [v for v in loops if v not in used]
            if not remaining:
                next_branches.append(branch)
                continue
            unmapped = [r for r in refs if r not in branch.mapped]
            candidates_refs = unmapped if unmapped else list(branch.reg_retained)
            for cand in most_profitable_loops(
                kernel, summary, remaining, candidates_refs
            ):
                retained = most_profitable_refs(kernel, summary, cand, candidates_refs)
                if not retained:
                    retained = [r for r in candidates_refs if cand not in r.free_vars()]
                if not retained:
                    continue
                next_branches.extend(
                    _expand_level(
                        kernel,
                        machine,
                        summary,
                        branch,
                        level,
                        cand,
                        retained,
                        loops,
                        last_level,
                    )
                )
        if next_branches:
            branches = next_branches

    variants = _assemble(kernel, machine, branches, loops)
    variants = _prune(kernel, variants)
    return variants[:max_variants]


# ---------------------------------------------------------------------------


def _distinct_refs(kernel: Kernel) -> List[ArrayRef]:
    seen: List[ArrayRef] = []
    for ref, _ in array_refs(kernel.body):
        if ref not in seen:
            seen.append(ref)
    return seen


def _register_plan(
    kernel: Kernel, machine: MachineSpec, branch: _Branch, loops: Tuple[str, ...]
) -> Tuple[Constraint, LevelPlan]:
    """The register level of ``branch``: the register-file constraint on
    its unroll factors and its Table 4 row."""
    unroll_loops = [v for v in loops if v in branch.unrolls]
    extents = {v: Var(branch.unrolls[v]) for v in unroll_loops}
    fp = footprint_elems(kernel, list(branch.reg_retained), extents, loops)
    label = f"{fp} <= {machine.fp_registers} (register file)"
    plan = LevelPlan(
        level="Reg",
        loop=branch.register_loop,
        retained=branch.reg_retained,
        transform=(
            "unroll-and-jam " + " and ".join(unroll_loops) if unroll_loops else "-"
        ),
        params=tuple(branch.unrolls[v] for v in unroll_loops),
    )
    return Constraint(fp, Const(machine.fp_registers), label), plan


def _drop_refused_jams(
    kernel: Kernel,
    machine: MachineSpec,
    branch: _Branch,
    loops: Tuple[str, ...],
    control_order: Tuple[str, ...],
    point_order: Tuple[str, ...],
) -> None:
    """Drop each unroll loop whose jam alone the recipe check refuses
    (with reassociation, as ``instantiate_base`` asks): every binding
    unrolling it by more than 1 would be refused.  Its parameter leaves
    the register-file constraint.  A recipe refused even without jams
    keeps its unrolls; nothing of it builds either way."""
    if recipe_refusal(kernel, control_order, point_order, (), True) is not None:
        return
    kept = {
        loop: param
        for loop, param in branch.unrolls.items()
        if recipe_refusal(kernel, control_order, point_order, (loop,), True) is None
    }
    if kept == branch.unrolls:
        return
    branch.unrolls = kept
    branch.constraints[0], branch.levels[0] = _register_plan(kernel, machine, branch, loops)


def _trip_count(kernel: Kernel, var: str) -> Expr:
    loop = find_loop(kernel.body, var)
    assert loop is not None
    return loop.upper - loop.lower + 1


def _expand_level(
    kernel: Kernel,
    machine: MachineSpec,
    summary: ReuseSummary,
    branch: _Branch,
    level: int,
    loop: str,
    retained: Sequence[ArrayRef],
    loops: Tuple[str, ...],
    last_level: bool,
) -> List[_Branch]:
    """Branch into tiled / tiled+copy / (last level) untiled variants."""
    cache = machine.cache(level)
    level_name = cache.name
    element = 8
    usable = cache.usable_fraction_capacity() // element
    tlb_elems = machine.tlb.reach // element

    tile_vars = sorted(
        {v for ref in retained for v in ref.free_vars() if v in loops and v != loop}
    )
    # A loop carrying stride-1 spatial reuse for *every* reference (Jacobi's
    # I) is also a candidate to leave untiled: Figure 2(b) keeps the layout
    # dimension whole, trading a problem-size-dependent footprint for long
    # contiguous runs (and for keeping rotating register promotion legal).
    spatial_everywhere = {
        v
        for v in tile_vars
        if all(info.has_spatial(v) for info in summary.refs)
    }
    tile_var_choices = [tile_vars]
    reduced = [v for v in tile_vars if v not in spatial_everywhere]
    if spatial_everywhere and reduced:
        tile_var_choices.append(reduced)

    out: List[_Branch] = []
    for chosen_vars in tile_var_choices:
        if not chosen_vars:
            continue
        tiled = branch.clone()
        tiled.level_loops.append(loop)
        for var in chosen_vars:
            if var not in tiled.tiles:
                tiled.tiles[var] = "T" + var
        extents: Dict[str, Expr] = {v: Var(tiled.tiles[v]) for v in chosen_vars}
        for var in tile_vars:
            if var not in chosen_vars:
                extents[var] = _trip_count(kernel, var)
        fp = footprint_elems(kernel, list(retained), extents, loops)
        tiled.constraints.append(
            Constraint(fp, Const(usable), f"{fp} <= {usable} ({level_name} usable)")
        )
        tiled.constraints.append(
            Constraint(fp, Const(tlb_elems), f"{fp} <= {tlb_elems} (TLB reach)")
        )
        tiled.mapped.extend(r for r in retained if r not in tiled.mapped)
        params = tuple(tiled.tiles[v] for v in chosen_vars)
        tiled.levels.append(
            LevelPlan(
                level=level_name,
                loop=loop,
                retained=tuple(retained),
                transform="tile " + " and ".join(chosen_vars),
                params=params,
            )
        )
        out.append(tiled)

        copy_plan = _copy_plan(kernel, retained, tiled.tiles, level)
        if copy_plan is not None:
            copied = tiled.clone()
            copied.copies.append(copy_plan)
            copied.levels[-1] = replace(
                copied.levels[-1],
                transform=(
                    "tile " + " and ".join(chosen_vars) + f", copy {copy_plan.array}"
                ),
            )
            out.append(copied)

    # --- untiled branch (the paper's v1 at L2) -----------------------------
    if last_level or not tile_vars:
        untiled = branch.clone()
        untiled.level_loops.append(loop)
        extents = {
            v: _trip_count(kernel, v)
            for ref in retained
            for v in ref.free_vars()
            if v in loops and v != loop
        }
        fp = footprint_elems(kernel, list(retained), extents, loops)
        untiled.constraints.append(
            Constraint(
                fp,
                Const(usable),
                f"{fp} <= {usable} ({level_name} usable, untiled; soft)",
                hard=False,
            )
        )
        untiled.mapped.extend(r for r in retained if r not in untiled.mapped)
        untiled.levels.append(
            LevelPlan(
                level=level_name,
                loop=loop,
                retained=tuple(retained),
                transform="-",
                params=(),
            )
        )
        out.append(untiled)
    return out


def _copy_plan(
    kernel: Kernel,
    retained: Sequence[ArrayRef],
    tiles: Dict[str, str],
    level: int,
) -> Optional[CopyPlan]:
    """A copy candidate when the retained array is read-only and every
    reference to it, prefetch targets included, indexes each dimension by
    exactly a tiled point loop: copying redirects each reference into the
    tile window of every dimension, which an offset or a stride would
    leave.  (For Jacobi, where the I dimension is untiled, this returns
    None — the paper likewise rejects copying there as unprofitable.)"""
    arrays = {r.array for r in retained}
    if len(arrays) != 1:
        return None
    array = next(iter(arrays))
    indices = retained[0].indices
    if any(not isinstance(index, Var) or index.name not in tiles for index in indices):
        return None
    hints = [(s.ref, False) for s in walk_statements(kernel.body) if isinstance(s, Prefetch)]
    for ref, write in list(array_refs(kernel.body)) + hints:
        if ref.array == array and (write or ref.indices != indices):
            return None
    dims = tuple((d, index.name) for d, index in enumerate(indices))
    return CopyPlan(array=array, temp=_temp_name(kernel, level), dims=dims, level=level)


_TEMP_NAMES = ("P", "Q", "R", "S")


def _temp_name(kernel: Kernel, level: int) -> str:
    for name in _TEMP_NAMES:
        if not kernel.has_array(name):
            return name
    index = 0
    while kernel.has_array(f"CP{index}"):
        index += 1
    return f"CP{index}"


def _assemble(
    kernel: Kernel,
    machine: MachineSpec,
    branches: List[_Branch],
    loops: Tuple[str, ...],
) -> List[Variant]:
    variants: List[Variant] = []
    for number, branch in enumerate(branches, start=1):
        # Point order: cache-level loops from L1 outermost inward, then any
        # unassigned loops (original order), register loop innermost.
        placed = list(branch.level_loops)
        middle = [v for v in loops if v not in placed and v != branch.register_loop]
        point_order = tuple(placed + middle + [branch.register_loop])
        # Control loops follow the original loop order (the paper's TLB
        # heuristic: consecutive tiles in data-layout order).
        control_order = tuple(v for v in loops if v in branch.tiles)
        _drop_refused_jams(kernel, machine, branch, loops, control_order, point_order)
        # Temp names must be unique within a variant.
        copies = []
        taken = {decl.name for decl in kernel.arrays}
        for plan in branch.copies:
            temp = plan.temp
            suffix = 0
            while temp in taken:
                suffix += 1
                temp = _TEMP_NAMES[suffix % len(_TEMP_NAMES)] + (
                    str(suffix // len(_TEMP_NAMES)) if suffix >= len(_TEMP_NAMES) else ""
                )
            taken.add(temp)
            copies.append(replace(plan, temp=temp))
        variants.append(
            Variant(
                name=f"v{number}",
                kernel_name=kernel.name,
                point_order=point_order,
                control_order=control_order,
                tiles=tuple(sorted(branch.tiles.items())),
                unrolls=tuple(sorted(branch.unrolls.items())),
                register_loop=branch.register_loop,
                copies=tuple(copies),
                levels=tuple(branch.levels),
                constraints=tuple(branch.constraints),
            )
        )
    return variants


def _prune(kernel: Kernel, variants: List[Variant]) -> List[Variant]:
    max_rank = max((decl.rank for decl in kernel.arrays), default=1)
    pruned: List[Variant] = []
    seen_keys: Set[Tuple] = set()
    for variant in variants:
        tiled_cache_levels = sum(
            1 for level in variant.levels if level.level != "Reg" and level.params
        )
        if max_rank >= 3 and tiled_cache_levels > 1:
            continue  # §4.2: 2-level tiling of 3-D data thrashes cache/TLB
        key = (
            variant.point_order,
            variant.control_order,
            variant.tiles,
            variant.copies,
        )
        if key in seen_keys:
            continue
        seen_keys.add(key)
        pruned.append(variant)
    # Re-number in final order.
    return [replace(v, name=f"v{i}") for i, v in enumerate(pruned, start=1)]
