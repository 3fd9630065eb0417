"""Scalar replacement (register promotion), the paper's §3.1.2.

Applied to a register-reuse loop ``L`` (statements-only body), after
unroll-and-jam has exposed reuse:

* **Invariant promotion** — references whose subscripts do not involve
  ``L``'s index are promoted to scalars: loaded once before the loop,
  stored once after it if written.  Matrix multiply's register tile of
  ``C`` (the ``UI*UJ`` unrolled copies of ``C[I+a, J+b]``) becomes exactly
  the paper's "load C[...] into registers / ... / store C[...]".

* **Rotating promotion** — read-only references that walk the loop index
  through one dimension at small constant offsets (Jacobi's
  ``B[I-1,J,K] / B[I,J,K] / B[I+1,J,K]``) are promoted to a rotating set
  of scalars: the first planes are loaded before the loop, each iteration
  loads only the leading plane and ends with register-to-register rotation
  moves.  This reproduces Figure 2(b)'s "load B[1..2,...] into registers /
  load B[I+1,...] / compute".

Safety:

* arrays written inside the loop are only promoted when every pair of
  their references is either syntactically identical or provably disjoint
  (constant nonzero subscript difference in some dimension);
* invariant promotion is no-op-safe for empty loops (the prologue load
  happens before the epilogue store, so the stored value is unchanged);
* rotating promotion is only applied when the loop's bounds are plain
  (no ``min``/``max``/division — i.e. untiled, unfringed loops), since its
  prologue reads assume the first iteration executes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.expr import Add, Const, Expr, FloorDiv, LinearForm, Max, Min, Mod, Var, add, linear_form
from repro.ir.nest import (
    ArrayRef,
    Assign,
    CBin,
    CExpr,
    CRead,
    CVar,
    Kernel,
    Loop,
    Node,
    Prefetch,
    Statement,
    affine_subscripts,
)
from repro.transforms.util import is_statement_body, replace_loop

__all__ = ["scalar_replace"]


#: widest offset span a rotating group may cover (one scalar per offset)
MAX_ROTATION_SPAN = 4


def scalar_replace(kernel: Kernel, var: str) -> Kernel:
    """Promote register-reusable references in every ``var`` loop.

    Loops named ``var`` whose bodies contain nested loops are left alone.
    """
    counter = itertools.count()

    def rewrite(loop: Loop) -> Tuple[Node, ...]:
        if not is_statement_body(loop):
            return (loop,)
        return _replace_in_loop(loop, counter)

    return kernel.with_body(replace_loop(kernel.body, var, rewrite))


# ---------------------------------------------------------------------------


@dataclass
class _RefFacts:
    ref: ArrayRef
    read: bool = False
    written: bool = False


def _collect_refs(stmts: Sequence[Statement]) -> List[_RefFacts]:
    facts: Dict[ArrayRef, _RefFacts] = {}

    def fact(ref: ArrayRef) -> _RefFacts:
        if ref not in facts:
            facts[ref] = _RefFacts(ref)
        return facts[ref]

    for stmt in stmts:
        if isinstance(stmt, Prefetch):
            continue
        for ref in stmt.value.reads():
            fact(ref).read = True
        if isinstance(stmt.target, ArrayRef):
            fact(stmt.target).written = True
    return list(facts.values())


def _array_promotion_safe(array: str, facts: Sequence[_RefFacts]) -> bool:
    """Promotion of ``array``'s refs requires no possible aliasing when the
    array is written inside the loop: every two distinct references must
    sit a constant nonzero distance apart in some dimension."""
    mine = [f for f in facts if f.ref.array == array]
    if not any(f.written for f in mine):
        return True
    for i, f1 in enumerate(mine):
        for f2 in mine[i + 1 :]:
            if f1.ref == f2.ref:
                continue
            if not any(
                linear_form(a).distance(linear_form(b)) not in (None, 0)
                for a, b in zip(f1.ref.indices, f2.ref.indices)
            ):
                return False
    return True


def _plain_bounds(loop: Loop) -> bool:
    def plain(expr: Expr) -> bool:
        if isinstance(expr, (Min, Max, FloorDiv, Mod)):
            return False
        for attr in ("terms", "factors", "args"):
            parts = getattr(expr, attr, None)
            if parts is not None:
                return all(plain(p) for p in parts)
        return True

    return plain(loop.lower) and plain(loop.upper)


@dataclass
class _Rotation:
    array: str
    dim: int
    base_indices: Tuple[Expr, ...]  # indices with dim set to var + base rest
    base_rest: Expr  # the non-var part of the rotating dimension
    offsets_to_refs: Dict[int, ArrayRef]
    scalars: Dict[int, str]  # dense offset -> scalar name

    def template(self, var_expr: Expr, offset: int) -> ArrayRef:
        indices = list(self.base_indices)
        indices[self.dim] = var_expr + self.base_rest + offset
        return ArrayRef(self.array, tuple(indices))


def _rotation_key(
    ref: ArrayRef, var: str
) -> Optional[Tuple[int, Tuple[Expr, ...], LinearForm]]:
    """(dim, other-index tuple, remainder) when the ref walks ``var``
    through exactly one dimension with coefficient 1; the remainder is
    that dimension's ``var``-free part, whose constant is the ref's
    offset."""
    found = affine_subscripts(ref, (var,))
    if found is None:
        return None
    rows, rests = found
    carrying = [d for d, row in enumerate(rows) if row[0] != 0]
    if len(carrying) != 1 or rows[carrying[0]][0] != 1:
        return None
    dim = carrying[0]
    others = tuple(ix for d, ix in enumerate(ref.indices) if d != dim)
    return dim, others, rests[dim]


def _base_rest(index: Expr, var: str) -> Expr:
    """``index`` without its ``var`` term and its constant, in term order."""
    terms = index.terms if isinstance(index, Add) else (index,)
    return add(*(t for t in terms if not isinstance(t, Const) and t != Var(var)))


def _rewrite_reads(expr: CExpr, mapping: Dict[ArrayRef, str]) -> CExpr:
    if isinstance(expr, CRead):
        name = mapping.get(expr.ref)
        return CVar(name) if name is not None else expr
    if isinstance(expr, CBin):
        return CBin(
            expr.op,
            _rewrite_reads(expr.left, mapping),
            _rewrite_reads(expr.right, mapping),
        )
    return expr


def _replace_in_loop(loop: Loop, counter) -> Tuple[Node, ...]:
    stmts = [s for s in loop.body if isinstance(s, Statement)]
    facts = _collect_refs(stmts)
    arrays = {f.ref.array for f in facts}
    safe_arrays = {a for a in arrays if _array_promotion_safe(a, facts)}
    written_arrays = {f.ref.array for f in facts if f.written}

    mapping: Dict[ArrayRef, str] = {}
    prologue: List[Statement] = []
    epilogue: List[Statement] = []
    iter_loads: List[Statement] = []
    rotations: List[Statement] = []

    # --- invariant promotion -------------------------------------------
    for fact in facts:
        ref = fact.ref
        if ref.array not in safe_arrays:
            continue
        if loop.var in ref.free_vars():
            continue
        name = f"{ref.array.lower()}_{next(counter)}"
        mapping[ref] = name
        prologue.append(Assign(name, CRead(ref)))
        if fact.written:
            epilogue.append(Assign(ref, CVar(name)))

    # --- rotating promotion ---------------------------------------------
    if _plain_bounds(loop):
        groups: Dict[Tuple, List[Tuple[int, _RefFacts]]] = {}
        for fact in facts:
            ref = fact.ref
            if ref.array in written_arrays or ref.array not in safe_arrays:
                continue
            if fact.ref in mapping:
                continue
            key = _rotation_key(ref, loop.var)
            if key is None:
                continue
            dim, others, rest = key
            groups.setdefault((ref.array, dim, others, rest.terms), []).append(
                (rest.const, fact)
            )
        for (array, dim, _, _), members in groups.items():
            offsets = sorted({off for off, _ in members})
            if len(offsets) < 2:
                continue
            span = offsets[-1] - offsets[0]
            if span > MAX_ROTATION_SPAN:
                continue
            gid = next(counter)
            scalars = {
                off: f"{array.lower()}_rot{gid}_{off - offsets[0]}"
                for off in range(offsets[0], offsets[-1] + 1)
            }
            sample = members[0][1].ref
            base = _base_rest(sample.indices[dim], loop.var)
            rotation = _Rotation(array, dim, sample.indices, base, {}, scalars)
            var_expr = Var(loop.var)
            for off, fact in members:
                mapping[fact.ref] = scalars[off]
            for off in range(offsets[0], offsets[-1]):
                prologue.append(
                    Assign(scalars[off], CRead(rotation.template(loop.lower, off)))
                )
            iter_loads.append(
                Assign(
                    scalars[offsets[-1]],
                    CRead(rotation.template(var_expr, offsets[-1])),
                )
            )
            for off in range(offsets[0], offsets[-1]):
                rotations.append(Assign(scalars[off], CVar(scalars[off + 1])))

    # --- load CSE: a varying ref read several times per iteration (e.g.
    # A[I,K] feeding two unrolled J copies) is loaded into one register ----
    read_counts: Dict[ArrayRef, int] = {}
    for stmt in stmts:
        if isinstance(stmt, Prefetch):
            continue
        for ref in stmt.value.reads():
            read_counts[ref] = read_counts.get(ref, 0) + 1
    for fact in facts:
        ref = fact.ref
        if ref in mapping or ref.array not in safe_arrays:
            continue
        if fact.written or read_counts.get(ref, 0) < 2:
            continue
        name = f"{ref.array.lower()}_{next(counter)}"
        mapping[ref] = name
        iter_loads.append(Assign(name, CRead(ref)))

    if not mapping:
        return (loop,)

    new_stmts: List[Statement] = list(iter_loads)
    for stmt in stmts:
        if isinstance(stmt, Prefetch):
            new_stmts.append(stmt)
            continue
        value = _rewrite_reads(stmt.value, mapping)
        target = stmt.target
        if isinstance(target, ArrayRef) and target in mapping:
            target = mapping[target]
        new_stmts.append(Assign(target, value))
    new_stmts.extend(rotations)
    new_loop = loop.with_body(tuple(new_stmts))
    return tuple(prologue) + (new_loop,) + tuple(epilogue)
