"""Native-compiler baseline (the paper's "Native").

Models what MIPSpro / Sun Workshop do at ``-O3`` for these loop nests,
*entirely model-driven* with zero empirical search:

* loop interchange to the model's best memory order (most spatial reuse
  innermost, most temporal reuse outermost);
* square cache tiling sized by the classic capacity model
  (working set of all arrays fits the L1), with **no copy optimization** —
  the paper attributes Native's wild fluctuation across problem sizes to
  exactly this (conflict misses at unlucky leading dimensions) and its
  large-size decay to TLB behaviour;
* unroll-and-jam of the outer loops by a fixed factor plus scalar
  replacement (software-pipelining-style register use).

Each step is taken only on step-1 loops the recipe check allows without
reassociating sums (a ``-O3`` compiler does not reorder them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.analysis.dependence import recipe_refusal
from repro.analysis.profitability import access_weights
from repro.analysis.reuse import analyze_reuse
from repro.ir.nest import Kernel, loop_order
from repro.machines import MachineSpec
from repro.sim import Counters, execute
from repro.transforms import TileSpec, permute, scalar_replace, tile_nest, unroll_and_jam
from repro.transforms.util import fresh_name, perfect_nest_loops

__all__ = ["NativeCompiler"]

_UNROLL = 4


@dataclass
class NativeCompiler:
    """Model-driven optimizer standing in for the platform compiler."""

    kernel: Kernel
    machine: MachineSpec

    @property
    def name(self) -> str:
        return "Native"

    @property
    def search_points(self) -> int:
        return 0  # purely model-driven

    def best_order(self) -> Tuple[str, ...]:
        """Memory order: spatial reuse innermost, temporal outermost."""
        summary = analyze_reuse(self.kernel, self.machine.l1.line_size)
        weights = access_weights(self.kernel)
        loops = loop_order(self.kernel)

        def spatial(loop: str) -> int:
            return sum(weights.get(r, 1) for r in summary.spatial_refs(loop))

        def temporal(loop: str) -> int:
            return sum(weights.get(r, 1) for r in summary.temporal_refs(loop))

        # Sort outer->inner by ascending spatial score (ties: descending
        # temporal, so reuse-carrying loops sit outside).
        ranked = sorted(loops, key=lambda l: (spatial(l), -temporal(l)))
        if recipe_refusal(self.kernel, (), ranked) is None:
            return tuple(ranked)
        return loops

    def tile_size(self) -> int:
        """Square tile so all arrays' tiles fit the L1 (no copy, so use the
        conservative usable fraction)."""
        arrays = max(1, len(self.kernel.arrays))
        elems = self.machine.l1.usable_fraction_capacity() // 8
        side = int(math.sqrt(max(1, elems // arrays)))
        return max(4, 1 << (side.bit_length() - 1))

    def compile(self) -> Kernel:
        """Produce the optimized kernel (deterministic)."""
        order = self.best_order()
        result = permute(self.kernel, order)
        stepped = {loop.var for loop in perfect_nest_loops(self.kernel) if loop.step != 1}
        if len(order) >= 2:
            inner_two = order[-2:]
            if not stepped and recipe_refusal(self.kernel, inner_two, order) is None:
                size = self.tile_size()
                taken = set(order) | {decl.name for decl in self.kernel.arrays}
                result = tile_nest(
                    result,
                    [TileSpec(var, fresh_name(var + var, taken), size) for var in inner_two],
                    point_order=list(order),
                )
            # Unroll-and-jam the loop just above the innermost, then promote.
            outer = order[-2]
            if outer not in stepped and not recipe_refusal(self.kernel, (), order, (outer,)):
                result = unroll_and_jam(result, outer, _UNROLL)
        return scalar_replace(result, order[-1])

    def measure(self, problem: Mapping[str, int]) -> Counters:
        return execute(self.compile(), problem, self.machine)
