"""Data dependence analysis for affine loop nests.

The analysis computes, for every pair of references to the same array (at
least one a write), a *dependence vector* over the enclosing loops: each
entry is either a fixed integer distance or ``None`` meaning the distance
is unconstrained along that loop (a "free" entry; it prints as ``*``).

For uniformly generated pairs (identical subscript coefficients) the
subscript equations ``A·d = delta`` are solved exactly over the rationals;
determined components must be integers for a dependence to exist, and
nullspace directions become free entries.  Non-uniform pairs fall back to a
per-dimension GCD test with a fully-free vector when inconclusive.

Legality predicates (:func:`permutation_legal`, :func:`tiling_legal`,
:func:`unroll_and_jam_legal`) reason exactly about free entries: a
dependence *instance* is any assignment of integers to the free entries
that makes the vector lexicographically positive in the original loop
order.  A zero vector is loop-independent: only unroll-and-jam, which
interleaves its copies statement by statement, must then check statement
order.  Their one caller is :func:`recipe_refusal`, which decides each
transformation recipe on the source nest, whose dependences it computes
once per kernel; the transforms themselves are mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.nest import ArrayRef, Assign, Kernel, Node, affine_subscripts, array_refs
from repro.ir.nest import find_loop, loop_order, scalars_read, walk_statements

__all__ = [
    "Dependence",
    "compute_dependences",
    "permutation_legal",
    "recipe_refusal",
    "tiling_legal",
    "unroll_and_jam_legal",
]

Entry = Optional[int]  # None = unconstrained distance along that loop


@dataclass(frozen=True)
class Dependence:
    """A dependence from ``source`` to ``sink`` over ``loops`` (outer→inner):
    the sink runs ``entries`` iterations after the source.  ``statements``
    are the two accesses' statements, numbered in textual order.

    ``reduction`` marks an accumulation inside one statement (it reads and
    writes the same subscript): reordering it only reassociates a sum,
    which the legality predicates may be told to permit — the paper's
    evaluation compiles with ``roundoff=3``, which grants exactly that.
    """

    source: ArrayRef
    sink: ArrayRef
    kind: str  # "flow", "anti", "output"
    loops: Tuple[str, ...]
    entries: Tuple[Entry, ...]
    statements: Tuple[int, int]
    reduction: bool = False

    def __str__(self) -> str:
        vec = ",".join("*" if e is None else str(e) for e in self.entries)
        return f"{self.kind} {self.source}->{self.sink} ({vec})"


def _solve_uniform(
    matrix: Sequence[Sequence[int]], delta: Sequence[int], nloops: int
) -> Optional[Tuple[List[Entry], bool]]:
    """Solve ``matrix · d = delta`` exactly.

    Returns ``(entries, exact)`` where ``entries`` has fixed integers for
    determined components and ``None`` for free ones.  ``exact`` is False
    when the nullspace couples several loops, in which case the free
    entries over-approximate the true solution set (conservative for the
    legality predicates, which only use free entries permissively when
    proving *illegality*... hence we treat inexact vectors as fully free).
    Returns ``None`` when the system has no solution (no dependence).

    Memoized: reuse analysis and the recipe check solve the same few
    systems over and over.  Each call gets its own ``entries`` list, so
    a caller mutating it cannot change a later answer.
    """
    solved = _solve_uniform_cached(
        tuple(tuple(row) for row in matrix), tuple(delta), nloops
    )
    if solved is None:
        return None
    entries, exact = solved
    return list(entries), exact


@lru_cache(maxsize=4096)
def _solve_uniform_cached(
    matrix: Tuple[Tuple[int, ...], ...], delta: Tuple[int, ...], nloops: int
) -> Optional[Tuple[Tuple[Entry, ...], bool]]:
    """:func:`_solve_uniform` on hashable inputs (the memoized core)."""
    rows = [[Fraction(c) for c in row] + [Fraction(d)] for row, d in zip(matrix, delta)]
    ncols = nloops
    pivot_of_col: Dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [v / pivot for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    # Inconsistent system => no dependence.
    for r in range(rank, len(rows)):
        if rows[r][ncols] != 0:
            return None
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    entries: List[Entry] = [None] * ncols
    coupled = False
    for col, prow in pivot_of_col.items():
        # The pivot variable equals rhs minus free-variable contributions.
        depends_on_free = any(rows[prow][fc] != 0 for fc in free_cols)
        if depends_on_free:
            entries[col] = None
            coupled = True
            continue
        value = rows[prow][ncols]
        if value.denominator != 1:
            return None  # rational-only solution: no integer dependence
        entries[col] = int(value)
    return tuple(entries), not coupled


def compute_dependences(kernel: Kernel) -> List[Dependence]:
    """All dependences among the kernel's array references, over the loops
    of :func:`~repro.ir.nest.loop_order`, each (source, sink, kind,
    distances) once.

    Meant for a source nest: :func:`recipe_refusal` decides a recipe's
    legality there, before any transform runs.  On transformed IR the
    first nest path may be a copy loop nest, which hides the point loops.
    """
    loops = loop_order(kernel)
    accesses = [
        (stmt, ref, write)
        for stmt, node in enumerate(walk_statements(kernel.body))
        for ref, write in array_refs((node,))
    ]
    # equal references share an id, so pairs compare and dedup as ints
    ids: Dict[ArrayRef, int] = {}
    ref_ids = [ids.setdefault(ref, len(ids)) for _, ref, _ in accesses]
    subscripts = [affine_subscripts(ref, loops) for ref in ids]
    # (statement, ref id) of each read: writing it there accumulates
    reads = {(stmt, ref_ids[i]) for i, (stmt, _, write) in enumerate(accesses) if not write}
    deps: List[Dependence] = []
    seen = set()
    for idx1, (_, ref1, w1) in enumerate(accesses):
        for idx2 in range(idx1, len(accesses)):
            _, ref2, w2 = accesses[idx2]
            if ref1.array != ref2.array or not (w1 or w2):
                continue
            vectors = _distance_vectors(
                subscripts[ref_ids[idx1]], subscripts[ref_ids[idx2]], len(loops)
            )
            for (src, snk), entries in zip(((idx1, idx2), (idx2, idx1)), vectors):
                if entries is None or (idx1 == idx2 and all(e == 0 for e in entries)):
                    continue  # none, or an access paired with itself
                (stmt1, source, w_src), (stmt2, sink, w_snk) = accesses[src], accesses[snk]
                kind = "output" if w_src and w_snk else "flow" if w_src else "anti"
                key = (ref_ids[src], stmt1, ref_ids[snk], stmt2, kind, entries)
                if key not in seen:
                    seen.add(key)
                    reduction = key[0] == key[2] and (stmt1, key[0]) in reads and stmt1 == stmt2
                    deps.append(
                        Dependence(source, sink, kind, loops, entries, (stmt1, stmt2), reduction)
                    )
    return deps


def _distance_vectors(sub1, sub2, nloops: int):
    """The distance vectors from the first reference to the second and from
    the second to the first (``None`` where no dependence runs that way),
    given their :func:`~repro.ir.nest.affine_subscripts`."""
    free = (None,) * nloops
    if sub1 is None or sub2 is None:
        return free, free
    (matrix1, rest1), (matrix2, rest2) = sub1, sub2
    distances = [a.distance(b) for a, b in zip(rest1, rest2)]
    if matrix1 != matrix2:
        if _gcd_test_excludes(matrix1, matrix2, distances):
            return None, None
        return free, free
    if None in distances:
        # A symbolic offset difference (e.g. N vs 1): sizes are positive
        # but unknown, so keep the dependence with unknown distances.
        return free, free
    vectors = []
    for signed in (distances, [-d for d in distances]):
        solved = _solve_uniform(matrix1, signed, nloops)
        # an inexact (coupled) solution over-approximates as fully free
        vectors.append(solved and (tuple(solved[0]) if solved[1] else free))
    return vectors


def _gcd_test_excludes(matrix1, matrix2, distances: Sequence[Optional[int]]) -> bool:
    """Per-dimension GCD test over the dimensions whose remainders are a
    constant distance apart; True when one of them can never be equal."""
    for row1, row2, diff in zip(matrix1, matrix2, distances):
        if diff is None:
            continue
        divisor = 0
        for c in list(row1) + [-c for c in row2]:
            divisor = gcd(divisor, abs(c))
        if divisor == 0:
            if diff != 0:
                return True
            continue
        if diff % divisor != 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Legality predicates
# ---------------------------------------------------------------------------


def _orig_positive_possible(
    entries: Sequence[Entry], assignment: Dict[int, int]
) -> bool:
    """Can the vector be lexicographically positive in the original order,
    given ``assignment`` pins some free entries, others remaining free?"""
    for idx, entry in enumerate(entries):
        value = assignment.get(idx, entry)
        if value is None:
            return True  # free: choose positive here
        if value > 0:
            return True
        if value < 0:
            return False
    return False  # all zero: loop-independent, not "positive"


def permutation_legal(
    deps: Sequence[Dependence],
    new_order: Sequence[str],
    allow_reassociation: bool = False,
) -> bool:
    """Is permuting the nest to ``new_order`` legal for all ``deps``?

    Illegal iff some dependence instance that is lexicographically positive
    in the original order becomes lexicographically negative in the new one.
    With ``allow_reassociation``, reduction dependences are waived (their
    reversal only reorders an accumulation).
    """
    for dep in deps:
        if allow_reassociation and dep.reduction:
            continue
        order_idx = [dep.loops.index(var) for var in new_order if var in dep.loops]
        if _permutation_violates(dep.entries, order_idx):
            return False
    return True


def _permutation_violates(entries: Sequence[Entry], new_order: Sequence[int]) -> bool:
    pinned: Dict[int, int] = {}
    for pos in new_order:
        entry = entries[pos]
        if entry is None:
            # Option: make this the first (negative) entry in the new order.
            trial = dict(pinned)
            trial[pos] = -1
            if _orig_positive_possible(entries, trial):
                return True
            pinned[pos] = 0  # otherwise it must be zero to look further
        elif entry > 0:
            return False  # first nonzero in new order is positive: safe
        elif entry < 0:
            return _orig_positive_possible(entries, pinned)
    return False


def tiling_legal(
    deps: Sequence[Dependence],
    band: Sequence[str],
    allow_reassociation: bool = False,
) -> bool:
    """Are the ``band`` loops fully permutable (hence tilable together)?

    Requires every dependence instance to have non-negative distance in
    every band loop.  With ``allow_reassociation``, reduction dependences
    are waived.
    """
    for dep in deps:
        if allow_reassociation and dep.reduction:
            continue
        for var in band:
            if var not in dep.loops:
                continue
            idx = dep.loops.index(var)
            entry = dep.entries[idx]
            if entry is not None and entry >= 0:
                continue
            if entry is not None:  # fixed negative
                if _orig_positive_possible(dep.entries, {}):
                    return False
                continue
            # Free entry: can it be negative in a lex-positive instance?
            if _orig_positive_possible(dep.entries, {idx: -1}):
                return False
    return True


def unroll_and_jam_legal(
    deps: Sequence[Dependence],
    loop: str,
    allow_reassociation: bool = False,
) -> bool:
    """Is unroll-and-jam of ``loop`` (jamming into all inner loops) legal?

    Illegal iff some dependence instance has zero distance in every loop
    outer to ``loop`` and positive distance in ``loop``, and either a
    lexicographically negative distance subvector over the inner loops, or
    a zero one with the sink's statement textually before the source's:
    the jammed copies run statement by statement, so either way the sink
    would run first.  With ``allow_reassociation``, reduction dependences
    are waived.
    """
    for dep in deps:
        if allow_reassociation and dep.reduction:
            continue
        if loop not in dep.loops:
            continue
        pos = dep.loops.index(loop)
        if any(entry not in (0, None) for entry in dep.entries[:pos]):
            continue  # carried by an outer loop
        entry = dep.entries[pos]
        if entry is not None and entry <= 0:
            continue
        inner = dep.entries[pos + 1 :]
        if _lex_negative_possible(inner):
            return False
        source, sink = dep.statements
        if sink < source and all(entry == 0 for entry in inner):
            return False
    return True


def _lex_negative_possible(entries: Sequence[Entry]) -> bool:
    for entry in entries:
        if entry is None or entry < 0:
            return True  # a free entry can be set negative
        if entry > 0:
            return False
    return False


# ---------------------------------------------------------------------------
# The recipe check
# ---------------------------------------------------------------------------


def recipe_refusal(
    kernel: Kernel,
    band: Sequence[str],
    point_order: Sequence[str],
    jams: Sequence[str] = (),
    allow_reassociation: bool = False,
) -> Optional[str]:
    """Why a recipe is illegal on its source nest ``kernel``, or None.

    The recipe tiles the ``band`` loops (controlling loops in that order,
    outermost first; none for a plain permutation), runs the point loops
    in ``point_order`` and unroll-and-jams each loop of ``jams``.  It is
    legal when the band is fully permutable, ``point_order`` reverses no
    dependence, and jamming each of ``jams`` in ``point_order`` reverses
    none and mixes no scalar temporaries (:func:`_mixes_scalars`).
    ``allow_reassociation`` waives reduction dependences.  The verdict
    holds for every tile size and unroll factor, and under copy
    optimization, which renames a read-only tile.

    A tile or an unrolled block may hold both ends of a dependence: within
    a tile the point order alone decides, and each jam is judged with the
    distances of the jammed loops outer to it set to 0.
    """
    deps = _source_dependences(kernel)
    if not tiling_legal(deps, band, allow_reassociation):
        return f"loops {sorted(band)} are not fully permutable"
    if not permutation_legal(deps, point_order, allow_reassociation):
        return f"loop order {tuple(point_order)} reverses a dependence"
    jammed = sorted(jams, key=list(point_order).index)
    for depth, loop in enumerate(jammed):
        judged = [_reordered(dep, point_order, jammed[:depth]) for dep in deps]
        if not unroll_and_jam_legal(judged, loop, allow_reassociation):
            return f"unroll-and-jam of {loop} reverses a dependence"
        found = find_loop(kernel.body, loop)
        if found is not None and _mixes_scalars(found.body, loop):
            return f"unroll-and-jam of {loop} would mix up the copies' scalar temporaries"
    return None


@lru_cache(maxsize=64)
def _source_dependences(kernel: Kernel) -> Tuple[Dependence, ...]:
    """:func:`compute_dependences` of a source nest, once per kernel."""
    return tuple(compute_dependences(kernel))


def clear_memos() -> None:
    """Empty the memoized uniform solutions and source dependences."""
    _solve_uniform_cached.cache_clear()
    _source_dependences.cache_clear()


def _reordered(dep: Dependence, order: Sequence[str], zeroed: Sequence[str]) -> Dependence:
    """``dep`` over the loops of ``order`` (its other loops dropped), with
    the distances along ``zeroed`` set to 0."""
    positions = [dep.loops.index(var) for var in order if var in dep.loops]
    return replace(
        dep,
        loops=tuple(dep.loops[p] for p in positions),
        entries=tuple(0 if dep.loops[p] in zeroed else dep.entries[p] for p in positions),
    )


def _mixes_scalars(body: Tuple[Node, ...], var: str) -> bool:
    """Whether jamming copies of ``body`` would let one copy read a scalar
    temporary that another copy wrote.

    The copies are interleaved statement by statement and scalars keep
    their names, which is safe only while every copy writes each scalar
    the same value before reading it.  That fails when a scalar is read
    before its first write in ``body`` (its value carries over from an
    earlier iteration) or is written from a reference that reads ``var``.
    A scalar computed from such a scalar needs no check of its own: the
    first one already refuses the jam.
    """
    assigns = [s for s in walk_statements(body) if isinstance(s, Assign)]
    unwritten = {s.target for s in assigns if isinstance(s.target, str)}
    for stmt in assigns:
        if unwritten & scalars_read(stmt.value):
            return True
        if isinstance(stmt.target, str):
            if any(var in ref.free_vars() for ref in stmt.value.reads()):
                return True
            unwritten.discard(stmt.target)
    return False
