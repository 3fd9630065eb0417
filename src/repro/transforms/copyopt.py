"""Copy optimization: copy a data tile into a contiguous temporary.

The paper (§3.1.2) copies the tile of an array that is retained in cache
into a compiler-introduced temporary so that it occupies contiguous
memory, eliminating self-interference (conflict) misses — e.g. Figure
1(b)'s ``copy B[KK..KK+TK-1, JJ..JJ+TJ-1] to P``.

``apply_copy`` operates on an already-tiled kernel: for each tiled
dimension of the array it is told the point loop, the controlling loop
and the tile size; it

1. declares the temporary (tile-shaped, optionally padded in the first
   dimension to steer conflict behaviour, matching the paper's constraint
   that the copy array's size not be a multiple of the inner cache size);
2. inserts a copy-in loop nest at the top of the innermost involved
   controlling loop's body (fresh ``c``-prefixed loop variables, bounds
   cloned from the point loops so edge tiles copy exactly the valid
   region);
3. rewrites every reference to the array inside that controlling loop to
   index the temporary with tile-relative subscripts.

The array must be read-only in the kernel (copy-out of written tiles is
not needed for the paper's kernels and is not supported), and every
reference must index each copied dimension by exactly its point loop
variable: an offset or a stride would read outside the copied tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.expr import Expr, Var, as_expr
from repro.ir.nest import (
    ArrayDecl,
    ArrayRef,
    Assign,
    CBin,
    CExpr,
    CRead,
    Kernel,
    Loop,
    Node,
    Prefetch,
    Statement,
    find_loop,
    walk_loops,
    walk_statements,
)
from repro.transforms.util import TransformError, fresh_name, replace_loop

__all__ = ["CopyDim", "apply_copy"]


@dataclass(frozen=True)
class CopyDim:
    """One tiled dimension of the copied array."""

    dim: int  # dimension index of the array (0 = fastest varying)
    point_var: str  # point loop iterating this dimension within the tile
    control_var: str  # controlling loop of that point loop
    tile_size: Union[int, Expr]  # an int, or a symbol bound later


def apply_copy(
    kernel: Kernel,
    array: str,
    temp: str,
    dims: Sequence[CopyDim],
    pad: int = 0,
) -> Kernel:
    """Copy ``array``'s tile into ``temp`` and redirect references.

    ``pad`` extra elements widen the temporary's first copied dimension
    (allocation only) to displace power-of-two strides.
    """
    decl = kernel.array(array)
    if not dims:
        raise TransformError("apply_copy: no dimensions given")
    dim_by_index = {d.dim: d for d in dims}
    if len(dim_by_index) != len(dims):
        raise TransformError("apply_copy: duplicate dimension specs")
    for spec in dims:
        if not 0 <= spec.dim < decl.rank:
            raise TransformError(f"apply_copy: {array} has no dimension {spec.dim}")
    for stmt in walk_statements(kernel.body):
        if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
            if stmt.target.array == array:
                raise TransformError(f"apply_copy: {array} is written; copy-out unsupported")
    if kernel.has_array(temp):
        raise TransformError(f"apply_copy: temp name {temp!r} already declared")

    # The host is the innermost controlling loop among the involved ones.
    control_vars = [d.control_var for d in dims]
    host = _innermost_of(kernel, control_vars)

    # Clone the point loops' bounds for the copy loops and build the nest.
    point_loops = {}
    for spec in dims:
        loop = find_loop(kernel.body, spec.point_var)
        if loop is None:
            raise TransformError(f"apply_copy: no point loop {spec.point_var!r}")
        point_loops[spec.dim] = loop

    taken = {decl.name for decl in kernel.arrays}
    taken |= {loop.var for loop in walk_loops(kernel.body)}
    copy_vars: Dict[int, str] = {}
    for spec in dims:
        name = fresh_name("c" + spec.point_var, taken)
        taken.add(name)
        copy_vars[spec.dim] = name

    # Temp shape: tiled dims take the tile size (plus padding on the first
    # copied dim), untiled dims keep the original extent.
    first_copied = min(dim_by_index)
    shape: List[Expr] = []
    for d in range(decl.rank):
        if d in dim_by_index:
            extent = dim_by_index[d].tile_size
            if d == first_copied:
                extent += pad
            shape.append(as_expr(extent))
        else:
            shape.append(decl.shape[d])

    if len(dim_by_index) != decl.rank:
        raise TransformError(
            f"apply_copy: all {decl.rank} dimensions of {array} must be covered"
        )

    # Copy statement: temp[tile-relative indices] = array[absolute indices].
    src_indices: List[Expr] = []
    dst_indices: List[Expr] = []
    for d in range(decl.rank):
        spec = dim_by_index[d]
        cvar = Var(copy_vars[d])
        src_indices.append(cvar)
        dst_indices.append(cvar - Var(spec.control_var) + 1)
    copy_stmt: Node = Assign(
        ArrayRef(temp, tuple(dst_indices)), CRead(ArrayRef(array, tuple(src_indices)))
    )
    # Build the nest with dimension 0 (fastest varying, contiguous) as the
    # innermost copy loop, so the copy itself streams through memory.
    nest: Tuple[Node, ...] = (copy_stmt,)
    for d in sorted(dim_by_index):
        template = point_loops[d]
        nest = (Loop(copy_vars[d], template.lower, template.upper, 1, nest, "copy"),)

    def rewrite_host(loop: Loop) -> Tuple[Node, ...]:
        new_body = _redirect_refs(loop.body, array, temp, dim_by_index)
        return (loop.with_body(nest + new_body),)

    body = replace_loop(kernel.body, host, rewrite_host)
    out = kernel.with_body(body).with_array(ArrayDecl(temp, tuple(shape), decl.element_size, temp=True))
    _check_no_stray_refs(out, array, host)
    return out


def _innermost_of(kernel: Kernel, control_vars: Sequence[str]) -> str:
    depth: Dict[str, int] = {}

    def visit(nodes: Tuple[Node, ...], level: int) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                depth[node.var] = level
                visit(node.body, level + 1)

    visit(kernel.body, 0)
    missing = [v for v in control_vars if v not in depth]
    if missing:
        raise TransformError(f"apply_copy: controlling loops {missing} not found")
    return max(control_vars, key=lambda v: depth[v])


def _redirect_refs(
    nodes: Tuple[Node, ...],
    array: str,
    temp: str,
    dim_by_index: Dict[int, CopyDim],
) -> Tuple[Node, ...]:
    def map_ref(ref: ArrayRef) -> ArrayRef:
        if ref.array != array:
            return ref
        indices = []
        for d, index in enumerate(ref.indices):
            if d in dim_by_index:
                spec = dim_by_index[d]
                if index != Var(spec.point_var):
                    raise TransformError(f"apply_copy: {ref} leaves the copied tile")
                indices.append(index - Var(spec.control_var) + 1)
            else:
                indices.append(index)
        return ArrayRef(temp, tuple(indices))

    def map_cexpr(expr: CExpr) -> CExpr:
        if isinstance(expr, CRead):
            return CRead(map_ref(expr.ref))
        if isinstance(expr, CBin):
            return CBin(expr.op, map_cexpr(expr.left), map_cexpr(expr.right))
        return expr

    result: List[Node] = []
    for node in nodes:
        if isinstance(node, Loop):
            result.append(node.with_body(_redirect_refs(node.body, array, temp, dim_by_index)))
        elif isinstance(node, Prefetch):
            result.append(Prefetch(map_ref(node.ref)))
        elif isinstance(node, Assign):
            target = node.target
            if isinstance(target, ArrayRef):
                target = map_ref(target)
            result.append(Assign(target, map_cexpr(node.value)))
        else:
            result.append(node)
    return tuple(result)


def _check_no_stray_refs(kernel: Kernel, array: str, host: str) -> None:
    """All remaining refs to ``array`` must be inside copy loops."""

    def visit(nodes: Tuple[Node, ...], inside_copy: bool) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                visit(node.body, inside_copy or node.role == "copy")
            elif not inside_copy:
                refs = []
                if isinstance(node, Prefetch):
                    refs = [node.ref]
                elif isinstance(node, Assign):
                    refs = list(node.value.reads())
                    if isinstance(node.target, ArrayRef):
                        refs.append(node.target)
                for ref in refs:
                    if ref.array == array:
                        raise TransformError(
                            f"apply_copy: reference {ref} outside the copied "
                            f"tile region (host loop {host})"
                        )

    visit(kernel.body, False)
