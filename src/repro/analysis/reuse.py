"""Reuse analysis in the style of Wolf & Lam (the paper's section 3.1.1).

For each array reference the analysis determines, per loop:

* **self-temporal** reuse — the reference touches the *same element* in
  successive iterations of the loop (its subscripts do not involve the
  loop index);
* **self-spatial** reuse — it touches the *same cache line* (the loop
  index appears only in the fastest-varying dimension with a small
  stride; arrays are column-major, so that is dimension 0);
* **group-temporal / group-spatial** reuse — a *uniformly generated*
  partner reference (identical subscript coefficients) touches the same
  element / line some fixed number of iterations later (Jacobi's
  ``B[I-1,J,K]`` / ``B[I+1,J,K]`` pair, carried by ``I`` at distance 2).

The per-loop reuse *amount* follows the paper exactly: ``R_l(r) = N_l``
for temporal reuse, ``CLS`` (line size in elements) for spatial reuse and
``1`` when the loop carries no reuse for ``r``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.dependence import _solve_uniform
from repro.ir.nest import ArrayRef, Kernel, Subscripts, affine_subscripts, array_refs, loop_order

__all__ = ["RefReuse", "GroupReuse", "ReuseSummary", "analyze_reuse"]

#: an insertion-ordered reference set (dict keys; values unused)
_Carried = Dict[ArrayRef, None]


@dataclass(frozen=True)
class RefReuse:
    """Self-reuse of one reference across the nest's loops."""

    ref: ArrayRef
    is_write: bool
    self_temporal: FrozenSet[str]
    self_spatial: FrozenSet[str]

    def has_temporal(self, loop: str) -> bool:
        return loop in self.self_temporal

    def has_spatial(self, loop: str) -> bool:
        return loop in self.self_spatial


@dataclass(frozen=True)
class GroupReuse:
    """Group reuse between two uniformly generated references.

    ``loop`` carries the reuse at iteration ``distance`` (>0); ``spatial``
    distinguishes same-line from same-element reuse.
    """

    ref_a: ArrayRef
    ref_b: ArrayRef
    loop: str
    distance: int
    spatial: bool


@dataclass
class ReuseSummary:
    """Aggregated reuse facts for a kernel on a given line size.

    The per-loop reference lists (self plus group reuse) are built once
    per loop and cached on the summary; ``refs`` and ``groups`` are not
    meant to change after construction.
    """

    loops: Tuple[str, ...]
    line_elems: int
    refs: List[RefReuse]
    groups: List[GroupReuse]
    _carried: Dict[str, Tuple[_Carried, _Carried]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def ref_reuse(self, ref: ArrayRef) -> RefReuse:
        for info in self.refs:
            if info.ref == ref:
                return info
        raise KeyError(f"no reuse info for {ref}")

    def carried(self, loop: str) -> Tuple[_Carried, _Carried]:
        """(temporal, spatial) references whose reuse ``loop`` carries,
        each an ordered set (self reuse first, then group partners) that
        callers must treat as read-only."""
        found = self._carried.get(loop)
        if found is None:
            found = (self._collect(loop, spatial=False),
                     self._collect(loop, spatial=True))
            self._carried[loop] = found
        return found

    def _collect(self, loop: str, spatial: bool) -> _Carried:
        found = {
            info.ref: None
            for info in self.refs
            if (info.has_spatial(loop) if spatial else info.has_temporal(loop))
        }
        for group in self.groups:
            if group.loop == loop and group.spatial == spatial:
                found.setdefault(group.ref_a)
                found.setdefault(group.ref_b)
        return found

    def temporal_refs(self, loop: str) -> List[ArrayRef]:
        """References with temporal reuse (self or group) carried by ``loop``."""
        return list(self.carried(loop)[0])

    def spatial_refs(self, loop: str) -> List[ArrayRef]:
        return list(self.carried(loop)[1])


def analyze_reuse(kernel: Kernel, line_size: int = 32) -> ReuseSummary:
    """Compute the reuse summary of (the original form of) ``kernel``.

    ``line_size`` is in bytes; it is divided by each array's element size
    to obtain the spatial-reuse window.
    """
    loops = loop_order(kernel)
    seen: Dict[ArrayRef, bool] = {}
    for ref, is_write in array_refs(kernel.body):
        seen[ref] = seen.get(ref, False) or is_write

    ref_infos: List[RefReuse] = []
    subscripts: Dict[ArrayRef, Subscripts] = {}
    for ref, is_write in seen.items():
        sub = affine_subscripts(ref, loops)
        if sub is None:
            ref_infos.append(RefReuse(ref, is_write, frozenset(), frozenset()))
            continue
        subscripts[ref] = sub
        matrix, _ = sub
        element = kernel.array(ref.array).element_size
        window = max(1, line_size // element)
        temporal = set()
        spatial = set()
        for col, var in enumerate(loops):
            column = [row[col] for row in matrix]
            if all(c == 0 for c in column):
                temporal.add(var)
            elif (
                all(c == 0 for c in column[1:])
                and abs(column[0]) * element < line_size
                and window > 1
            ):
                spatial.add(var)
        ref_infos.append(RefReuse(ref, is_write, frozenset(temporal), frozenset(spatial)))

    groups = _group_reuse(kernel, loops, subscripts, line_size)
    line_elems = max(1, line_size // 8)
    return ReuseSummary(loops, line_elems, ref_infos, groups)


def _group_reuse(
    kernel: Kernel,
    loops: Tuple[str, ...],
    subscripts: Dict[ArrayRef, Subscripts],
    line_size: int,
) -> List[GroupReuse]:
    groups: List[GroupReuse] = []
    for ref_a, ref_b in itertools.combinations(subscripts, 2):
        if ref_a.array != ref_b.array:
            continue
        matrix_a, rest_a = subscripts[ref_a]
        matrix_b, rest_b = subscripts[ref_b]
        if matrix_a != matrix_b:
            continue
        deltas = [a.distance(b) for a, b in zip(rest_a, rest_b)]
        if None in deltas:
            continue
        element = kernel.array(ref_a.array).element_size
        window = max(1, line_size // element)
        group = _classify_group(matrix_a, deltas, loops, window, ref_a, ref_b)
        if group is not None:
            groups.append(group)
    return groups


def _classify_group(
    matrix: Sequence[Sequence[int]],
    deltas: List[int],
    loops: Tuple[str, ...],
    window: int,
    ref_a: ArrayRef,
    ref_b: ArrayRef,
) -> Optional[GroupReuse]:
    """Find a loop carrying group reuse for a uniformly generated pair."""
    solved = _solve_uniform(matrix, deltas, len(loops))
    if solved is not None:
        entries, exact = solved
        if exact:
            support = [i for i, e in enumerate(entries) if e is None or e != 0]
            nonzero = [i for i, e in enumerate(entries) if e not in (None, 0)]
            if len(nonzero) == 1 and all(
                entries[i] == 0 for i in range(len(entries)) if i != nonzero[0] and entries[i] is not None
            ):
                idx = nonzero[0]
                return GroupReuse(
                    ref_a, ref_b, loops[idx], abs(entries[idx]), spatial=False
                )
            if not nonzero and support:
                # Same element for d = 0; any free loop trivially carries it.
                idx = support[0]
                return GroupReuse(ref_a, ref_b, loops[idx], 0, spatial=False)
    # Group-spatial: ignore the fastest dimension, require the residual
    # offset to stay within one line.
    if len(matrix) > 1:
        solved = _solve_uniform(matrix[1:], deltas[1:], len(loops))
        if solved is not None:
            entries, exact = solved
            if exact:
                nonzero = [i for i, e in enumerate(entries) if e not in (None, 0)]
                if len(nonzero) == 1:
                    idx = nonzero[0]
                    residual = deltas[0] - sum(
                        matrix[0][i] * (entries[i] or 0) for i in range(len(loops))
                    )
                    if abs(residual) < window:
                        return GroupReuse(
                            ref_a, ref_b, loops[idx], abs(entries[idx]), spatial=True
                        )
    return None
