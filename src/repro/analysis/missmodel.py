"""Static (analytical) cache-miss estimation.

The paper's premise (§1) is that "the search space is difficult to model
analytically since performance can vary dramatically with problem size
and optimization parameters".  This module provides the classic static
estimator the premise refers to — compulsory plus capacity misses from
reuse/footprint analysis, fully ignoring conflicts, alignment and
interference — so the claim can be *quantified*: the experiment suite
compares these predictions against simulated counters and shows exactly
where the model holds (smooth capacity regimes) and where it breaks
(conflict pathologies at power-of-two sizes, TLB cliffs).

The model, per cache level, for a perfect nest::

    misses(r) = iterations / product(R_l(r) for loops l inside the reuse
                boundary of r at this level)

where ``R_l(r)`` is the paper's reuse amount (trip count for temporal
reuse, line size in elements for spatial reuse, 1 otherwise) and the
*reuse boundary* is the outermost loop whose reuse the level can actually
retain — the deepest loop whose data footprint fits the level's capacity.

The search scores many bindings of one variant, and a binding's tile
sizes change only loop bounds.  So the estimate splits into a
**per-shape** part — the reuse analysis and each reference's subscript
matrix, a function of the loop order, the ordered accesses, the element
sizes and the L1 line size — computed once per shape and kept in a
bounded, locked LRU, and a **per-binding** part that is integer
arithmetic over the trip counts.  Like the paper's closed-form models,
a binding then costs next to nothing beside running it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.reuse import analyze_reuse
from repro.ir.nest import ArrayRef, Assign, Kernel, Loop, Node, affine_subscripts
from repro.machines import CacheSpec, MachineSpec

__all__ = ["MissEstimate", "estimate_misses"]


@dataclass(frozen=True)
class MissEstimate:
    """Predicted misses per cache level for one kernel execution."""

    per_level: Tuple[int, ...]
    per_ref: Mapping[str, Tuple[int, ...]]

    @property
    def l1(self) -> int:
        return self.per_level[0]

    @property
    def l2(self) -> int:
        return self.per_level[1] if len(self.per_level) > 1 else 0


def estimate_misses(
    kernel: Kernel,
    params: Mapping[str, int],
    machine: MachineSpec,
) -> MissEstimate:
    """Compulsory+capacity miss prediction for the *original* kernel.

    The work splits in two.  The **per-shape** part — reuse analysis and
    each reference's subscript matrix — depends only on the nest's loop
    order, its ordered accesses, the arrays' element sizes and the L1
    line size, which a variant's tile sizes leave alone; it runs once per
    shape and is kept in a bounded LRU (:data:`_SHAPE_CAP`).  The
    **per-binding** part is integer arithmetic: the trip counts, the
    footprint over every innermost loop prefix of each distinct
    subscript matrix (shared by all cache levels), and
    :func:`_ref_misses` per level for each distinct ``(matrix, element
    size, reuse)`` class of references.  Raises ``ValueError`` for a
    reference whose subscripts are not affine in the nest's loops.
    """
    path, refs, writes = _nest(kernel)
    loops = tuple(loop.var for loop in path)
    shape = _shape(kernel, loops, refs, writes, machine.l1.line_size)
    trip_counts = _trip_counts(path, params)
    if shape.non_affine is not None:
        raise ValueError(f"{shape.non_affine}: non-affine subscripts, no footprint model")
    total_iterations = 1
    for trips in trip_counts:
        total_iterations *= max(1, trips)
    inner_trips = tuple(reversed(trip_counts))
    footprints = [_prefix_footprints(columns, inner_trips) for columns in shape.matrices]
    profiles = [
        _RefProfile(
            element=element,
            footprints=footprints[matrix],
            reuse=reuse,
            trips=inner_trips,
            touched=footprints[matrix][-1] if footprints[matrix] else 1,
        )
        for matrix, element, reuse in shape.classes
    ]
    levels = [
        [_ref_misses(profile, total_iterations, cache) for profile in profiles]
        for cache in machine.caches
    ]
    return MissEstimate(
        per_level=tuple(
            sum(misses[cls] for _, classes in shape.names for cls in classes)
            for misses in levels
        ),
        per_ref={
            name: tuple(misses[cls] for misses in levels for cls in classes)
            for name, classes in shape.names
        },
    )


def _nest(kernel: Kernel) -> Tuple[List[Loop], Tuple[ArrayRef, ...], Tuple[bool, ...]]:
    """One walk of ``kernel``'s body: the loops along the first nest path
    (those of :func:`loop_order`, outermost first), and every access in
    :func:`array_refs` order as its reference and whether it writes."""
    path: List[Loop] = []
    refs: List[ArrayRef] = []
    writes: List[bool] = []

    def visit(nodes: Tuple[Node, ...], on_path: bool) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                if on_path:
                    path.append(node)
                visit(node.body, on_path)
                on_path = False
            elif isinstance(node, Assign):
                for ref in node.value.reads():
                    refs.append(ref)
                    writes.append(False)
                if isinstance(node.target, ArrayRef):
                    refs.append(node.target)
                    writes.append(True)

    visit(kernel.body, True)
    return path, tuple(refs), tuple(writes)


@dataclass(frozen=True)
class _Shape:
    """What the miss model knows of a nest before its bounds are bound.

    ``matrices`` holds each distinct subscript matrix as its columns,
    innermost loop first, each column the absolute coefficient per array
    dimension.  ``classes`` holds each distinct ``(matrix index, element
    size, reuse kind per loop innermost first)``, a reuse kind being
    ``"temporal"``, ``"spatial"`` or ``None``.  ``names`` maps each
    distinct ``str`` of a reference to the classes of the references
    printing that way, in first-access order.  ``non_affine`` is the
    ``str`` of the first reference whose subscripts are not affine in
    the nest's loops (the shape then holds nothing else).
    """

    matrices: Tuple[Tuple[Tuple[int, ...], ...], ...]
    classes: Tuple[Tuple[int, int, Tuple[Optional[str], ...]], ...]
    names: Tuple[Tuple[str, Tuple[int, ...]], ...]
    non_affine: Optional[str]


class _ShapeKey:
    """A shape's LRU key, hashed once: a nest's accesses are many deep
    IR objects, and the LRU hashes its key on every lookup."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ShapeKey) and self.parts == other.parts


#: bound of the per-shape LRU.  A search scores a few variants at a few
#: unroll factors, each a shape; the tile sizes it tries share them.
_SHAPE_CAP = 256
_SHAPES: Dict[_ShapeKey, _Shape] = {}
_SHAPES_LOCK = threading.Lock()


def _shape(
    kernel: Kernel,
    loops: Tuple[str, ...],
    refs: Tuple[ArrayRef, ...],
    writes: Tuple[bool, ...],
    line_size: int,
) -> _Shape:
    """The per-shape part through the LRU.  The key holds everything it
    reads: the loop order, the accesses, the element sizes and the L1
    line size."""
    elements = tuple((decl.name, decl.element_size) for decl in kernel.arrays)
    key = _ShapeKey((loops, refs, writes, elements, line_size))
    with _SHAPES_LOCK:
        # pop and re-insert into a plain dict (insertion-ordered, oldest
        # first): one deep key comparison, where an OrderedDict's get +
        # move_to_end makes two
        shape = _SHAPES.pop(key, None)
        if shape is not None:
            _SHAPES[key] = shape
            return shape
    shape = _analyze_shape(kernel, loops, refs, line_size)
    with _SHAPES_LOCK:
        _SHAPES.pop(key, None)
        _SHAPES[key] = shape
        while len(_SHAPES) > _SHAPE_CAP:
            del _SHAPES[next(iter(_SHAPES))]
    return shape


def clear_shapes() -> None:
    """Empty the per-shape LRU."""
    with _SHAPES_LOCK:
        _SHAPES.clear()


def _analyze_shape(
    kernel: Kernel, loops: Tuple[str, ...], refs: Tuple[ArrayRef, ...], line_size: int
) -> _Shape:
    """Reuse analysis and subscript matrices of one shape (the LRU's
    miss path)."""
    summary = analyze_reuse(kernel, line_size)
    carried = [summary.carried(var) for var in reversed(loops)]
    matrices: Dict[tuple, int] = {}
    classes: Dict[tuple, int] = {}
    names: Dict[str, List[int]] = {}
    for ref in dict.fromkeys(refs):
        found = affine_subscripts(ref, loops)
        if found is None:
            return _Shape((), (), (), str(ref))
        rows = found[0]
        columns = tuple(
            tuple(abs(row[col]) for row in rows) for col in reversed(range(len(loops)))
        )
        matrix = matrices.setdefault(columns, len(matrices))
        reuse = tuple(
            "temporal" if ref in temporal else "spatial" if ref in spatial else None
            for temporal, spatial in carried
        )
        cls = classes.setdefault(
            (matrix, kernel.array(ref.array).element_size, reuse), len(classes)
        )
        names.setdefault(str(ref), []).append(cls)
    return _Shape(
        matrices=tuple(matrices),
        classes=tuple(classes),
        names=tuple((name, tuple(of_name)) for name, of_name in names.items()),
        non_affine=None,
    )


def _prefix_footprints(
    columns: Tuple[Tuple[int, ...], ...], inner_trips: Tuple[int, ...]
) -> Tuple[int, ...]:
    """A reference's footprint in elements over each innermost loop
    prefix, from its matrix's columns (innermost first): entry ``k``
    covers the ``k + 1`` innermost loops.  Integer arithmetic equal to
    evaluating :func:`repro.analysis.footprint.ref_footprint_elems` with
    the trip counts as the extents, one prefix at a time."""
    if not columns:
        return ()
    dims = [1] * len(columns[0])
    out: List[int] = []
    for column, trips in zip(columns, inner_trips):
        span = trips - 1
        total = 1
        for row, coeff in enumerate(column):
            dims[row] += coeff * span
            total *= dims[row]
        out.append(total)
    return tuple(out)


@dataclass(frozen=True)
class _RefProfile:
    """The level-independent facts :func:`_ref_misses` needs of one ref.

    ``footprints[k]`` is the ref's footprint in elements over the ``k + 1``
    innermost loops; ``reuse[k]`` is what that loop carries for the ref
    (``"temporal"``, ``"spatial"`` or ``None``) and ``trips[k]`` its trip
    count; ``touched`` is the footprint over the whole nest.
    """

    element: int
    footprints: Tuple[int, ...]
    reuse: Tuple[Optional[str], ...]
    trips: Tuple[int, ...]
    touched: int


def _trip_counts(path: Sequence[Loop], params: Mapping[str, int]) -> Tuple[int, ...]:
    """Representative trip count per loop of ``path``, outermost first.

    Transformed nests reference enclosing control variables in their
    bounds (a tiled point loop runs ``II .. min(II+TI-1, N-1)``), so each
    loop is evaluated at the *first* iteration of its enclosing loops — a
    representative, boundary-free tile.  Untransformed nests have closed
    bounds, where this reduces to the plain per-loop trip count.
    """
    env: Dict[str, int] = dict(params)
    trips: List[int] = []
    for loop in path:
        trips.append(max(0, loop.trip_count(env)))
        env[loop.var] = int(loop.lower.evaluate(env))
    return tuple(trips)


def _ref_misses(profile: _RefProfile, total_iterations: int, cache: CacheSpec) -> int:
    """Misses of one reference at one level.

    Walk loops from innermost out, accumulating the reuse factor while the
    data needed to exploit that reuse still fits the cache; loops outside
    the fit boundary contribute no reuse (their reuse distance exceeds the
    capacity).
    """
    capacity_elems = max(1, cache.capacity // profile.element)
    line_elems = max(1, cache.line_size // profile.element)

    reuse_factor = 1.0
    for footprint, kind, trips in zip(profile.footprints, profile.reuse, profile.trips):
        # Footprint of everything this reference touches across the loops
        # seen so far; if it no longer fits, reuse carried by this and any
        # outer loop is lost.
        if footprint > capacity_elems:
            break
        if kind == "temporal":
            reuse_factor *= max(1, trips)
        elif kind == "spatial":
            reuse_factor *= line_elems
    misses = int(total_iterations / max(1.0, reuse_factor))
    # Never fewer than the compulsory misses (touch every line once).
    compulsory = max(1, profile.touched // line_elems)
    return max(misses, compulsory)
