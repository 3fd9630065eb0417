"""Memory layout: byte addresses for the simulated address space.

Arrays are laid out column-major (Fortran order, matching the IR) and
allocated sequentially with line-granularity alignment plus a staggered
gap between arrays.  The stagger models the paper's assumption (its
footnote 1) that the OS page-coloring algorithm maps consecutive regions
to non-colliding cache colors: without it, every base would be congruent
modulo the cache size and the arrays would conflict pathologically at
*all* sizes.  Conflict misses then arise from the arrays' *internal*
strides (e.g. power-of-two leading dimensions), which is exactly the
effect the paper's copy optimization targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.ir.nest import ArrayDecl, Kernel

__all__ = ["ArrayLayout", "MemoryLayout"]


@dataclass(frozen=True)
class ArrayLayout:
    """Placement of one array: base byte address, shape and strides."""

    name: str
    base: int
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]  # in elements, column-major
    element_size: int

    @property
    def size_bytes(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total * self.element_size

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    def linear_offset(self, indices: Tuple[int, ...]) -> int:
        """Element offset of 1-based ``indices`` (no bounds check)."""
        return sum((i - 1) * s for i, s in zip(indices, self.strides))


@dataclass
class MemoryLayout:
    """Address assignment for all of a kernel's arrays."""

    arrays: Dict[str, ArrayLayout]
    page_size: int

    @classmethod
    def build(
        cls,
        kernel: Kernel,
        params: Mapping[str, int],
        page_size: int = 4096,
        align: int = 128,
        stagger: int = 5,
    ) -> "MemoryLayout":
        """Allocate every declared array (temporaries included).

        Each base is aligned to ``align`` bytes; array ``i`` additionally
        starts ``i * stagger`` aligned units past the previous end, which
        decorrelates base addresses modulo the cache size (the page-coloring
        effect described in the module docstring).
        """
        arrays: Dict[str, ArrayLayout] = {}
        cursor = page_size  # keep address 0 unused
        for index, decl in enumerate(kernel.arrays):
            shape = tuple(int(dim.evaluate(params)) for dim in decl.shape)
            if any(extent < 1 for extent in shape):
                raise ValueError(f"array {decl.name}: non-positive extent {shape}")
            strides: List[int] = []
            stride = 1
            for extent in shape:
                strides.append(stride)
                stride *= extent
            base = _align(cursor, align) + (index + 1) * stagger * align
            layout = ArrayLayout(decl.name, base, shape, tuple(strides), decl.element_size)
            arrays[decl.name] = layout
            cursor = layout.end
        return cls(arrays, page_size)

    def __getitem__(self, name: str) -> ArrayLayout:
        return self.arrays[name]



def _align(value: int, alignment: int) -> int:
    return -(-value // alignment) * alignment
