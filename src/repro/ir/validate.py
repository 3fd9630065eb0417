"""Structural validation of kernels.

Transformations are expected to produce well-formed trees; ``validate_kernel``
is run when kernels are built and re-run by the test suite after every
transformation as a sanity net.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.ir.nest import (
    ArrayRef,
    Assign,
    Kernel,
    Loop,
    Node,
    Prefetch,
    Statement,
    scalars_read,
)

__all__ = ["ValidationError", "validate_kernel"]


class ValidationError(ValueError):
    """Raised when a kernel tree is structurally malformed."""


def validate_kernel(kernel: Kernel) -> None:
    """Check scoping, subscript arity and loop well-formedness.

    Raises :class:`ValidationError` on the first problem found.
    """
    declared_arrays = {decl.name for decl in kernel.arrays}
    if len(declared_arrays) != len(kernel.arrays):
        raise ValidationError(f"{kernel.name}: duplicate array declaration")
    bound: Set[str] = set(kernel.params)
    assigned_scalars: Set[str] = set(kernel.consts)
    _validate_nodes(kernel, kernel.body, bound, assigned_scalars, declared_arrays)


def _check_ref(
    kernel: Kernel, ref: ArrayRef, bound: Set[str], arrays: Set[str]
) -> None:
    if ref.array not in arrays:
        raise ValidationError(f"{kernel.name}: reference to undeclared array {ref.array!r}")
    decl = kernel.array(ref.array)
    if decl.rank != ref.rank:
        raise ValidationError(
            f"{kernel.name}: {ref} has {ref.rank} subscripts, "
            f"array declared with rank {decl.rank}"
        )
    loose = ref.free_vars() - bound
    if loose:
        raise ValidationError(f"{kernel.name}: {ref} uses unbound variables {sorted(loose)}")


def _validate_statement(
    kernel: Kernel,
    stmt: Statement,
    bound: Set[str],
    scalars: Set[str],
    arrays: Set[str],
) -> None:
    if isinstance(stmt, Prefetch):
        _check_ref(kernel, stmt.ref, bound, arrays)
        return
    if not isinstance(stmt, Assign):
        raise ValidationError(f"{kernel.name}: unknown statement {stmt!r}")
    for ref in stmt.value.reads():
        _check_ref(kernel, ref, bound, arrays)
    missing = scalars_read(stmt.value) - scalars
    if missing:
        raise ValidationError(
            f"{kernel.name}: scalars {sorted(missing)} read before assignment "
            f"in {stmt}"
        )
    if isinstance(stmt.target, ArrayRef):
        _check_ref(kernel, stmt.target, bound, arrays)
    else:
        scalars.add(stmt.target)


def _validate_nodes(
    kernel: Kernel,
    nodes: Tuple[Node, ...],
    bound: Set[str],
    scalars: Set[str],
    arrays: Set[str],
) -> None:
    for node in nodes:
        if isinstance(node, Loop):
            loose = (node.lower.free_vars() | node.upper.free_vars()) - bound
            if loose:
                raise ValidationError(
                    f"{kernel.name}: loop {node.var} bounds use unbound "
                    f"variables {sorted(loose)}"
                )
            if node.var in bound:
                raise ValidationError(
                    f"{kernel.name}: loop variable {node.var!r} shadows an "
                    f"enclosing binding"
                )
            bound.add(node.var)
            _validate_nodes(kernel, node.body, bound, scalars, arrays)
            bound.discard(node.var)
        else:
            _validate_statement(kernel, node, bound, scalars, arrays)
