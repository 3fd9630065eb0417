"""Array padding (inter/intra-array conflict removal).

The paper observes (§4.2) that ECO's Jacobi still fluctuates at
pathological sizes because copying was rejected, and that "manual
experiments show that array padding can be used to stabilize this
behavior".  This transform automates that: padding an array's leading
dimension(s) changes its column stride so power-of-two strides stop
mapping to a single cache set.

Padding only changes the *declaration* (and hence the memory layout the
executor builds); subscripts are untouched and the padded elements are
never accessed, so semantics are preserved by construction.  The guided
search exposes padding as an optional axis
(:attr:`repro.core.search.SearchConfig.search_padding`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.ir.nest import ArrayDecl, Kernel
from repro.transforms.util import TransformError

__all__ = ["pad_arrays"]


def pad_arrays(kernel: Kernel, pads: Mapping[str, int], dim: int = 0) -> Kernel:
    """Widen dimension ``dim`` of each array in ``pads`` by that many
    elements.  Zero pads are ignored; unknown arrays raise."""
    for name in pads:
        if not kernel.has_array(name):
            raise TransformError(f"pad_arrays: unknown array {name!r}")
    decls = []
    for decl in kernel.arrays:
        pad = int(pads.get(decl.name, 0))
        if pad < 0:
            raise TransformError(f"pad_arrays: negative pad for {decl.name}")
        if pad == 0:
            decls.append(decl)
            continue
        if dim >= decl.rank:
            raise TransformError(
                f"pad_arrays: array {decl.name} has no dimension {dim}"
            )
        shape = list(decl.shape)
        shape[dim] = shape[dim] + pad
        decls.append(replace(decl, shape=tuple(shape)))
    return replace(kernel, arrays=tuple(decls))

