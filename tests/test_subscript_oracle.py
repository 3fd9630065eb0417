"""The integer subscript form against the symbolic code it replaced.

Subscripts used to be decomposed with a symbolic ``affine_view`` (integer
coefficients over the requested variables plus an ``Expr`` remainder),
and "a constant distance apart" was decided by building ``a - b`` and
asking whether it folded to a ``Const``.  That code is kept below as the
oracle.  Dependences, reuse groups, group footprints, the scalar
replacement and prefetch output IR, and the simulator's per-access
``(const, coeffs)`` must all be equal (``==``) to the oracle's on:

* seeded ``instantiate_base`` candidates of every kernel on every machine
  (with the IR each build hands to scalar replacement);
* the original kernels;
* the generated nests of ``tests/sim/test_nest_fuzz.py``, seeds 0-39.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro.analysis.dependence import (
    Dependence,
    _solve_uniform,
    compute_dependences,
)
from repro.analysis.footprint import group_footprint_dims
from repro.analysis.reuse import _classify_group, analyze_reuse
from repro.core import variants as variants_mod
from repro.core.derive import derive_variants
from repro.core.variants import instantiate_base
from repro.frontend.parser import parse_kernel
from repro.ir.expr import Add, Const, Expr, Mul, Var, add, linear_form, mul
from repro.ir.nest import (
    ArrayRef,
    Assign,
    Kernel,
    Loop,
    Prefetch,
    array_refs,
    loop_order,
    walk_statements,
)
from repro.kernels import KERNELS, get_kernel
from repro.machines import MACHINES, get_machine
from repro.transforms.prefetch import insert_prefetch
from repro.transforms.scalar_replace import scalar_replace
from repro.transforms.util import TransformError

from tests.sim.test_nest_fuzz import generate_nest

# the modules, not the functions of the same names that
# ``repro.transforms`` re-exports
sr_mod = importlib.import_module("repro.transforms.scalar_replace")
prefetch_mod = importlib.import_module("repro.transforms.prefetch")

# -- the oracle: symbolic decomposition and subtract-and-check-Const --------


@dataclass(frozen=True)
class AffineView:
    coeffs: Tuple[Tuple[str, int], ...]
    rest: Expr

    def coefficient(self, var: str) -> int:
        return dict(self.coeffs).get(var, 0)


def affine_view(expr: Expr, variables: Sequence[str]) -> Optional[AffineView]:
    wanted = set(variables)
    coeffs: Dict[str, int] = {}
    rest_terms = []

    def visit(node: Expr, scale: int) -> bool:
        if isinstance(node, Const):
            rest_terms.append(Const(node.value * scale))
            return True
        if isinstance(node, Var):
            if node.name in wanted:
                coeffs[node.name] = coeffs.get(node.name, 0) + scale
            else:
                rest_terms.append(mul(scale, node))
            return True
        if isinstance(node, Add):
            return all(visit(term, scale) for term in node.terms)
        if isinstance(node, Mul):
            const = 1
            others = []
            for factor in node.factors:
                if isinstance(factor, Const):
                    const *= factor.value
                else:
                    others.append(factor)
            involved = [f for f in others if f.free_vars() & wanted]
            if not involved:
                rest_terms.append(mul(scale, node))
                return True
            if len(others) == 1 and isinstance(others[0], Var):
                name = others[0].name
                coeffs[name] = coeffs.get(name, 0) + scale * const
                return True
            return False
        if node.free_vars() & wanted:
            return False
        rest_terms.append(mul(scale, node))
        return True

    if not visit(expr, 1):
        return None
    coeff_items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
    return AffineView(coeff_items, add(*rest_terms) if rest_terms else Const(0))


def subscript_matrix(ref: ArrayRef, loops: Sequence[str]):
    rows: List[List[int]] = []
    rests: List[Expr] = []
    for index in ref.indices:
        view = affine_view(index, loops)
        if view is None:
            return None
        rows.append([view.coefficient(var) for var in loops])
        rests.append(view.rest)
    return rows, rests


def constant_deltas(rest1, rest2) -> Optional[List[int]]:
    deltas = []
    for a, b in zip(rest1, rest2):
        diff = a - b
        if not isinstance(diff, Const):
            return None
        deltas.append(diff.value)
    return deltas


def gcd_test_excludes(matrix1, rest1, matrix2, rest2) -> bool:
    from math import gcd

    for row1, row2, a, b in zip(matrix1, matrix2, rest1, rest2):
        diff = a - b
        if not isinstance(diff, Const):
            continue
        divisor = 0
        for c in list(row1) + [-c for c in row2]:
            divisor = gcd(divisor, abs(c))
        if divisor == 0:
            if diff.value != 0:
                return True
            continue
        if diff.value % divisor != 0:
            return True
    return False


def oracle_dependences(kernel: Kernel) -> List[Dependence]:
    loops = loop_order(kernel)
    accesses = [
        (stmt, ref, write)
        for stmt, node in enumerate(walk_statements(kernel.body))
        for ref, write in array_refs((node,))
    ]
    matrices = [subscript_matrix(ref, loops) for _, ref, _ in accesses]
    reads = {(stmt, ref) for stmt, ref, write in accesses if not write}
    free = (None,) * len(loops)
    deps: List[Dependence] = []
    for idx1, (_, ref1, w1) in enumerate(accesses):
        for idx2 in range(idx1, len(accesses)):
            _, ref2, w2 = accesses[idx2]
            if ref1.array != ref2.array or not (w1 or w2):
                continue
            sub1, sub2 = matrices[idx1], matrices[idx2]
            if sub1 is None or sub2 is None:
                vectors = [free, free]
            elif sub1[0] != sub2[0]:
                if gcd_test_excludes(sub1[0], sub1[1], sub2[0], sub2[1]):
                    continue
                vectors = [free, free]
            elif constant_deltas(sub1[1], sub2[1]) is None:
                vectors = [free, free]
            else:
                delta = constant_deltas(sub1[1], sub2[1])
                vectors = []
                for signed in (delta, [-d for d in delta]):
                    solved = _solve_uniform(sub1[0], signed, len(loops))
                    if solved is None:
                        vectors.append(None)
                        continue
                    entries, exact = solved
                    vectors.append(tuple(entries) if exact else free)
            for (src, snk), entries in zip(((idx1, idx2), (idx2, idx1)), vectors):
                if entries is None or (idx1 == idx2 and all(e == 0 for e in entries)):
                    continue
                (stmt1, source, write1), (stmt2, sink, write2) = accesses[src], accesses[snk]
                kind = "output" if write1 and write2 else "flow" if write1 else "anti"
                reduction = source == sink and stmt1 == stmt2 and (stmt1, source) in reads
                deps.append(
                    Dependence(source, sink, kind, loops, entries, (stmt1, stmt2), reduction)
                )
    seen = set()
    unique = []
    for dep in deps:
        key = (dep.source, dep.sink, dep.kind, dep.entries, dep.statements)
        if key not in seen:
            seen.add(key)
            unique.append(dep)
    return unique


def oracle_groups(kernel: Kernel, line_size: int):
    loops = loop_order(kernel)
    refs = list(dict.fromkeys(ref for ref, _ in array_refs(kernel.body)))
    matrices = {}
    for ref in refs:
        sub = subscript_matrix(ref, loops)
        if sub is not None:
            matrices[ref] = sub
    groups = []
    affine = list(matrices)
    for i, ref_a in enumerate(affine):
        for ref_b in affine[i + 1:]:
            if ref_a.array != ref_b.array:
                continue
            (matrix_a, rest_a), (matrix_b, rest_b) = matrices[ref_a], matrices[ref_b]
            if matrix_a != matrix_b:
                continue
            deltas = constant_deltas(rest_a, rest_b)
            if deltas is None:
                continue
            window = max(1, line_size // kernel.array(ref_a.array).element_size)
            group = _classify_group(matrix_a, deltas, loops, window, ref_a, ref_b)
            if group is not None:
                groups.append(group)
    return groups


def oracle_group_dims(kernel, group, extents, loops):
    subs = [subscript_matrix(ref, list(loops)) for ref in group]
    if any(sub is None for sub in subs):
        raise ValueError("non-affine")
    matrix, rest = subs[0]
    lows = [0] * len(matrix)
    highs = [0] * len(matrix)
    for other_matrix, other_rest in subs[1:]:
        if other_matrix != matrix:
            raise ValueError("non-uniform group")
        for dim, (a, b) in enumerate(zip(rest, other_rest)):
            diff = b - a
            if not isinstance(diff, Const):
                raise ValueError("symbolic offsets")
            lows[dim] = min(lows[dim], diff.value)
            highs[dim] = max(highs[dim], diff.value)
    dims = []
    for row, low, high in zip(matrix, lows, highs):
        extent: Expr = Const(1)
        for coeff, var in zip(row, loops):
            if coeff == 0 or var not in extents:
                continue
            extent = extent + abs(coeff) * (extents[var] - 1)
        dims.append(extent + (high - low))
    return dims


def additive_const(expr: Expr) -> int:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Add):
        return sum(t.value for t in expr.terms if isinstance(t, Const))
    return 0


def oracle_promotion_safe(array, facts) -> bool:
    mine = [f for f in facts if f.ref.array == array]
    if not any(f.written for f in mine):
        return True
    for i, f1 in enumerate(mine):
        for f2 in mine[i + 1:]:
            if f1.ref == f2.ref:
                continue
            if not any(
                isinstance(a - b, Const) and (a - b).value != 0
                for a, b in zip(f1.ref.indices, f2.ref.indices)
            ):
                return False
    return True


class SymbolicRest(NamedTuple):
    """The old rotation key's (base, offset): the base expression stands
    where the integer form keeps its terms, so the oracle groups by it."""

    terms: Expr
    const: int


def oracle_rotation_key(ref, var):
    views = [affine_view(ix, [var]) for ix in ref.indices]
    if any(v is None for v in views):
        return None
    carrying = [d for d, v in enumerate(views) if v.coefficient(var) != 0]
    if len(carrying) != 1 or views[carrying[0]].coefficient(var) != 1:
        return None
    dim = carrying[0]
    rest = views[dim].rest
    offset = additive_const(rest)
    others = tuple(ix for d, ix in enumerate(ref.indices) if d != dim)
    return dim, others, SymbolicRest(rest - offset, offset)


def oracle_base_rest(index, var):
    rest = affine_view(index, [var]).rest
    return rest - additive_const(rest)


def oracle_build_prefetches(loop: Loop, array: str, distance: int, line_elems: int):
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
    groups: Dict[Tuple, List[Tuple[int, ArrayRef]]] = {}
    for ref in refs:
        if loop.var not in ref.free_vars():
            continue
        offset = additive_const(ref.indices[0])
        key = (ref.indices[0] - offset,) + tuple(ref.indices[1:])
        groups.setdefault(key, []).append((offset, ref))
    prefetches = []
    for members in groups.values():
        members.sort(key=lambda pair: pair[0])
        low, high = members[0][0], members[-1][0]
        chosen = []
        offset = low
        while offset <= high:
            nearest = min(members, key=lambda pair: abs(pair[0] - offset))
            if nearest[1] not in chosen:
                chosen.append(nearest[1])
            offset += max(1, line_elems)
        if members[-1][1] not in chosen:
            chosen.append(members[-1][1])
        prefetches.extend(Prefetch(ref.substitute(shift)) for ref in chosen)
    return prefetches


def oracle_affine_index(index_expr):
    view = affine_view(index_expr, sorted(index_expr.free_vars()))
    if view is None or not isinstance(view.rest, Const):
        return None
    return view.rest.value, view.coeffs


# -- inputs --------------------------------------------------------------------


def _instantiated(seed=22, per_pair=3):
    """(label, IR handed to scalar replacement, register loop, base,
    machine) for seeded candidates of every kernel on every machine."""
    rng = random.Random(seed)
    handed = []

    def recording(kernel, var):
        handed.append((kernel, var))
        return scalar_replace(kernel, var)

    original = variants_mod.scalar_replace
    variants_mod.scalar_replace = recording
    try:
        for kname in sorted(KERNELS):
            kernel = get_kernel(kname)
            for mname in sorted(MACHINES):
                machine = get_machine(mname)
                variants = derive_variants(kernel, machine)
                built = 0
                for _ in range(4 * per_pair):
                    if built == per_pair:
                        break
                    variant = rng.choice(variants)
                    values = {p: rng.choice([4, 8, 16]) for _, p in variant.tiles}
                    values.update({p: rng.choice([1, 2, 4]) for _, p in variant.unrolls})
                    try:
                        base = instantiate_base(kernel, variant, values, machine)
                    except (TransformError, KeyError):
                        continue
                    built += 1
                    pre, var = handed[-1]
                    yield f"{kname}/{mname}/{variant.name}/{values}", pre, var, base, machine
    finally:
        variants_mod.scalar_replace = original


def _plain_kernels():
    """(label, kernel, innermost loop var) for the original kernels and the
    generated nests."""
    for kname in sorted(KERNELS):
        kernel = get_kernel(kname)
        yield kname, kernel, loop_order(kernel)[-1]
    for seed in range(40):
        kernel = parse_kernel(generate_nest(seed)[0])
        yield f"nest{seed}", kernel, loop_order(kernel)[-1]


@pytest.fixture(scope="module")
def inputs():
    """(label, kernel, register loop, line elements) for every input IR."""
    cases = []
    for label, pre, var, base, machine in _instantiated():
        line_elems = max(1, machine.l1.line_size // 8)
        cases.append((label + "/pre", pre, var, line_elems))
        cases.append((label + "/base", base, var, line_elems))
    for label, kernel, var in _plain_kernels():
        cases.append((label, kernel, var, 4))
    pairs = {tuple(label.split("/")[:2]) for label, *_ in cases if "/" in label}
    assert len(pairs) == len(KERNELS) * len(MACHINES)
    return cases


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


# -- the comparisons -------------------------------------------------------------


def test_dependences_match_oracle(inputs):
    for label, kernel, _, _ in inputs:
        assert compute_dependences(kernel) == oracle_dependences(kernel), label


def test_reuse_groups_match_oracle(inputs):
    for label, kernel, _, _ in inputs:
        for line_size in (32, 64):
            got = analyze_reuse(kernel, line_size).groups
            assert got == oracle_groups(kernel, line_size), (label, line_size)


def test_group_footprints_match_oracle(inputs):
    for label, kernel, _, _ in inputs:
        loops = loop_order(kernel)
        extents = {var: Var("T" + var) for var in loops}
        by_array: Dict[str, List[ArrayRef]] = {}
        for ref, _ in array_refs(kernel.body):
            by_array.setdefault(ref.array, [])
            if ref not in by_array[ref.array]:
                by_array[ref.array].append(ref)
        for group in by_array.values():
            for refs in (group, group[:1], group[::-1]):
                got = _outcome(group_footprint_dims, kernel, refs, extents, loops)
                want = _outcome(oracle_group_dims, kernel, refs, extents, loops)
                assert got == want, (label, [str(r) for r in refs])


def test_transform_output_matches_oracle(inputs, monkeypatch):
    """scalar_replace and insert_prefetch build the same IR as the
    symbolic decisions they replaced."""
    expected = []
    with monkeypatch.context() as patch:
        patch.setattr(sr_mod, "_array_promotion_safe", oracle_promotion_safe)
        patch.setattr(sr_mod, "_rotation_key", oracle_rotation_key)
        patch.setattr(sr_mod, "_base_rest", oracle_base_rest)
        patch.setattr(prefetch_mod, "_build_prefetches", oracle_build_prefetches)
        for label, kernel, var, line_elems in inputs:
            expected.append(_transformed(kernel, var, line_elems))
    for (label, kernel, var, line_elems), want in zip(inputs, expected):
        assert _transformed(kernel, var, line_elems) == want, label
    rotating = [
        replaced for replaced, _ in expected
        if any(isinstance(stmt, Assign) and "_rot" in str(stmt.target)
               for stmt in walk_statements(replaced.body))
    ]
    assert rotating, "no input exercises rotating promotion"


def _transformed(kernel, var, line_elems):
    replaced = scalar_replace(kernel, var)
    prefetched = [
        insert_prefetch(replaced, decl.name, 2, var, line_elems=line_elems)
        for decl in kernel.arrays
    ]
    return replaced, prefetched


def test_executor_index_forms_match_oracle(inputs):
    """The (const, ((var, coeff), ...)) the simulator emits addresses
    from, or None where it refuses to fuse."""
    checked = 0
    for label, kernel, var, line_elems in inputs:
        replaced, prefetched = _transformed(kernel, var, line_elems)
        for tree in [kernel, replaced] + prefetched:
            for stmt in walk_statements(tree.body):
                refs = [stmt.ref] if isinstance(stmt, Prefetch) else list(stmt.value.reads())
                if isinstance(getattr(stmt, "target", None), ArrayRef):
                    refs.append(stmt.target)
                for ref in refs:
                    for index in ref.indices:
                        form = linear_form(index)
                        got = None
                        if form.affine:
                            got = (form.const, tuple((a.name, c) for a, c in form.terms))
                        assert got == oracle_affine_index(index), (label, str(index))
                        checked += 1
    assert checked > 1000
