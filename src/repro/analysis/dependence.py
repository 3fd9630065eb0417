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
order (the zero vector is a loop-independent dependence and never blocks
these transformations on single-statement bodies).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.nest import ArrayRef, Kernel, affine_subscripts, array_refs, loop_order

__all__ = [
    "Dependence",
    "compute_dependences",
    "permutation_legal",
    "tiling_legal",
    "unroll_and_jam_legal",
]

Entry = Optional[int]  # None = unconstrained distance along that loop


@dataclass(frozen=True)
class Dependence:
    """A dependence between two references, over ``loops`` (outer→inner).

    ``reduction`` marks a location accumulated across iterations (source
    and sink subscripts identical): reordering it only reassociates a sum,
    which the legality predicates may be told to permit — the paper's
    evaluation compiles with ``roundoff=3``, which grants exactly that.
    """

    source: ArrayRef
    sink: ArrayRef
    kind: str  # "flow", "anti", "output"
    loops: Tuple[str, ...]
    entries: Tuple[Entry, ...]
    reduction: bool = False

    def __str__(self) -> str:
        vec = ",".join("*" if e is None else str(e) for e in self.entries)
        return f"{self.kind} {self.source}->{self.sink} ({vec})"

    def entry(self, loop: str) -> Entry:
        return self.entries[self.loops.index(loop)]


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

    Memoized: reuse analysis and the transforms' legality checks solve the
    same few systems over and over.  Each call gets its own ``entries``
    list, so a caller mutating it cannot change a later answer.
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

    Any form of the kernel is accepted: the transforms check their own
    legality on the IR they are given, which is already tiled or copied
    when unroll-and-jam runs inside a variant build.
    """
    loops = loop_order(kernel)
    accesses = list(array_refs(kernel.body))
    # equal references share an id, so pairs compare and dedup as ints
    ids: Dict[ArrayRef, int] = {}
    ref_ids = [ids.setdefault(ref, len(ids)) for ref, _ in accesses]
    subscripts = [affine_subscripts(ref, loops) for ref in ids]
    free = (None,) * len(loops)
    deps: List[Dependence] = []
    seen = set()

    def record(idx1, idx2, kinds, entries: Tuple[Entry, ...], reduction=False) -> None:
        for kind in kinds:
            key = (ref_ids[idx1], ref_ids[idx2], kind, entries)
            if key not in seen:
                seen.add(key)
                deps.append(
                    Dependence(
                        accesses[idx1][0], accesses[idx2][0], kind, loops, entries,
                        reduction=reduction,
                    )
                )

    for idx1, (ref1, w1) in enumerate(accesses):
        for idx2 in range(idx1, len(accesses)):
            ref2, w2 = accesses[idx2]
            if ref1.array != ref2.array or not (w1 or w2):
                continue
            kinds = _dependence_kinds(w1, w2)
            sub1 = subscripts[ref_ids[idx1]]
            sub2 = subscripts[ref_ids[idx2]]
            if sub1 is None or sub2 is None:
                record(idx1, idx2, kinds, free)
                continue
            (matrix1, rest1), (matrix2, rest2) = sub1, sub2
            distances = [a.distance(b) for a, b in zip(rest1, rest2)]
            if matrix1 != matrix2:
                if not _gcd_test_excludes(matrix1, matrix2, distances):
                    record(idx1, idx2, kinds, free)
                continue
            if None in distances:
                # A symbolic offset difference (e.g. N vs 1): sizes are
                # positive but unknown, so keep the dependence with
                # unknown distances.
                record(idx1, idx2, kinds, free)
                continue
            for signed in (distances, [-d for d in distances]):
                solved = _solve_uniform(matrix1, signed, len(loops))
                if solved is None:
                    continue
                entries, exact = solved
                if not exact:
                    entries = [None] * len(loops)
                if idx1 == idx2 and all(e == 0 for e in entries):
                    continue  # an access paired with itself: not a dependence
                reduction = ref_ids[idx1] == ref_ids[idx2]
                record(idx1, idx2, kinds, tuple(entries), reduction)
                if all(d == 0 for d in distances):
                    break  # delta == -delta: one record suffices
    return deps


def _dependence_kinds(w1: bool, w2: bool) -> Tuple[str, ...]:
    """Dependence kinds for a reference pair.

    A read/write pair induces both a flow and an anti dependence (whichever
    access runs first plays source); kinds do not affect the legality
    predicates but are reported for diagnostics.
    """
    if w1 and w2:
        return ("output",)
    return ("flow", "anti")


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
    outer to ``loop``, positive distance in ``loop``, and a lexicographically
    negative distance subvector over the inner loops (jamming would reverse
    it).  With ``allow_reassociation``, reduction dependences are waived.
    """
    for dep in deps:
        if allow_reassociation and dep.reduction:
            continue
        if loop not in dep.loops:
            continue
        pos = dep.loops.index(loop)
        assignment: Dict[int, int] = {}
        feasible = True
        for outer in range(pos):
            entry = dep.entries[outer]
            if entry is None:
                assignment[outer] = 0
            elif entry != 0:
                feasible = False
                break
        if not feasible:
            continue
        entry = dep.entries[pos]
        if entry is None:
            assignment[pos] = 1
        elif entry <= 0:
            continue
        # Inner subvector: lexicographically negative possible?
        if _lex_negative_possible(dep.entries, range(pos + 1, len(dep.entries))):
            return False
    return True


def _lex_negative_possible(entries: Sequence[Entry], positions) -> bool:
    for pos in positions:
        entry = entries[pos]
        if entry is None:
            return True  # set it negative
        if entry < 0:
            return True
        if entry > 0:
            return False
    return False
