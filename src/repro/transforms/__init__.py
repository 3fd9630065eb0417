"""Code transformations: permutation, tiling, unroll-and-jam, scalar
replacement, copy optimization and software prefetching.

Each transformation validates its structural preconditions (raising
:class:`~repro.transforms.util.TransformError`) and is otherwise
mechanical: dependence legality is decided once per recipe, on the source
nest, by :func:`~repro.analysis.dependence.recipe_refusal`.  Semantics
preservation of every transform is verified against the IR interpreter in
the test suite.
"""

from repro.transforms.copyopt import CopyDim, apply_copy
from repro.transforms.permute import permute
from repro.transforms.prefetch import insert_prefetch, prefetched_arrays, remove_prefetch
from repro.transforms.scalar_replace import scalar_replace
from repro.transforms.tile import TileSpec, tile_nest
from repro.transforms.unroll_jam import unroll_and_jam
from repro.transforms.util import TransformError

__all__ = [
    "TransformError",
    "permute",
    "TileSpec",
    "tile_nest",
    "unroll_and_jam",
    "scalar_replace",
    "CopyDim",
    "apply_copy",
    "insert_prefetch",
    "remove_prefetch",
    "prefetched_arrays",
]
