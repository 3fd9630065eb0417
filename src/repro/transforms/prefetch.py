"""Software prefetch insertion (the paper's §3.2, prefetch search step).

``insert_prefetch(kernel, array, distance, var)`` adds ``PREFETCH``
statements for ``array`` at the top of every statements-only loop named
``var``: each group of references that differ only by a constant in the
fastest-varying dimension gets prefetches ``distance`` iterations ahead,
one per cache line the group spans (``line_elems`` elements apart), so a
register tile's column is covered without one prefetch per element.

Prefetches may run past the end of the array near loop edges; they are
hints, ignored by the interpreter, and the trace compiler drops
out-of-bounds prefetch addresses (non-faulting prefetch semantics).

``remove_prefetch`` strips prefetches of one array (or all), which the
empirical search uses when a prefetch experiment shows no benefit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.expr import Var, linear_form
from repro.ir.nest import ArrayRef, Kernel, Loop, Node, Prefetch, Statement, map_statements
from repro.transforms.util import TransformError, is_statement_body, replace_loop

__all__ = ["insert_prefetch", "remove_prefetch", "prefetched_arrays"]


def insert_prefetch(
    kernel: Kernel,
    array: str,
    distance: int,
    var: str,
    line_elems: int = 4,
) -> Kernel:
    """Prefetch ``array`` ``distance`` iterations ahead in ``var`` loops."""
    if distance < 1:
        raise TransformError(f"prefetch distance must be >= 1, got {distance}")
    if not kernel.has_array(array):
        raise TransformError(f"no array {array!r} to prefetch")

    touched = []

    def rewrite(loop: Loop) -> Tuple[Node, ...]:
        if not is_statement_body(loop):
            return (loop,)
        prefetches = _build_prefetches(loop, array, distance, line_elems)
        if prefetches:
            touched.append(loop.var)
            return (loop.with_body(tuple(prefetches) + loop.body),)
        return (loop,)

    body = replace_loop(kernel.body, var, rewrite)
    return kernel.with_body(body)


def _build_prefetches(
    loop: Loop, array: str, distance: int, line_elems: int
) -> List[Prefetch]:
    refs: List[ArrayRef] = []
    for stmt in loop.body:
        if isinstance(stmt, Prefetch):
            continue
        for ref in stmt.value.reads():
            if ref.array == array and ref not in refs:
                refs.append(ref)
        if isinstance(stmt.target, ArrayRef) and stmt.target.array == array:
            if stmt.target not in refs:
                refs.append(stmt.target)
    shift = {loop.var: Var(loop.var) + distance}
    # refs whose dimension-0 subscripts differ only by a constant share a
    # group, keyed by the non-constant terms and the other subscripts
    groups: Dict[Tuple, List[Tuple[int, ArrayRef]]] = {}
    for ref in refs:
        if loop.var not in ref.free_vars():
            continue  # invariant in the loop: nothing new to prefetch
        dim0 = linear_form(ref.indices[0])
        key = (dim0.terms,) + tuple(ref.indices[1:])
        groups.setdefault(key, []).append((dim0.const, ref))
    prefetches: List[Prefetch] = []
    for members in groups.values():
        members.sort(key=lambda pair: pair[0])
        low = members[0][0]
        high = members[-1][0]
        chosen = []
        offset = low
        while offset <= high:
            nearest = min(members, key=lambda pair: abs(pair[0] - offset))
            if nearest[1] not in chosen:
                chosen.append(nearest[1])
            offset += max(1, line_elems)
        if members[-1][1] not in chosen:
            chosen.append(members[-1][1])
        for ref in chosen:
            prefetches.append(Prefetch(ref.substitute(shift)))
    return prefetches


def remove_prefetch(kernel: Kernel, array: Optional[str] = None) -> Kernel:
    """Drop prefetch statements (of ``array``, or every array when None)."""

    def strip(stmt: Statement) -> Tuple[Node, ...]:
        if isinstance(stmt, Prefetch) and (array is None or stmt.ref.array == array):
            return ()
        return (stmt,)

    return kernel.with_body(map_statements(kernel.body, strip))


def prefetched_arrays(kernel: Kernel) -> List[str]:
    """Arrays with at least one prefetch statement, in first-seen order."""
    from repro.ir.nest import walk_statements

    found: List[str] = []
    for stmt in walk_statements(kernel.body):
        if isinstance(stmt, Prefetch) and stmt.ref.array not in found:
            found.append(stmt.ref.array)
    return found
