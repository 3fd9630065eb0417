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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.footprint import prefix_footprints
from repro.analysis.reuse import ReuseSummary, analyze_reuse
from repro.ir.nest import ArrayRef, Kernel, array_refs, find_loop, loop_order
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

    Everything that does not depend on the cache level — each reference's
    footprint over every innermost loop prefix and its per-loop reuse
    kind — is computed once, as plain integers; each level then only
    walks those numbers against its capacity and line size.
    """
    loops = loop_order(kernel)
    summary = analyze_reuse(kernel, machine.l1.line_size)
    trip_counts = _trip_counts(kernel, loops, params)
    refs = list(dict.fromkeys(ref for ref, _ in array_refs(kernel.body)))
    total_iterations = 1
    for var in loops:
        total_iterations *= max(1, trip_counts[var])
    profiles = [_profile(kernel, summary, ref, loops, trip_counts) for ref in refs]

    per_level: List[int] = []
    per_ref: Dict[str, List[int]] = {}
    for cache in machine.caches:
        level_total = 0
        for ref, profile in zip(refs, profiles):
            misses = _ref_misses(profile, total_iterations, cache)
            level_total += misses
            per_ref.setdefault(str(ref), []).append(misses)
        per_level.append(level_total)
    return MissEstimate(
        per_level=tuple(per_level),
        per_ref={k: tuple(v) for k, v in per_ref.items()},
    )


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


def _profile(
    kernel: Kernel,
    summary: ReuseSummary,
    ref: ArrayRef,
    loops: Tuple[str, ...],
    trips: Mapping[str, int],
) -> _RefProfile:
    footprints = prefix_footprints(kernel, ref, trips, loops)
    reuse: List[Optional[str]] = []
    for var in reversed(loops):
        temporal, spatial = summary.carried(var)
        if ref in temporal:
            reuse.append("temporal")
        elif ref in spatial:
            reuse.append("spatial")
        else:
            reuse.append(None)
    return _RefProfile(
        element=kernel.array(ref.array).element_size,
        footprints=tuple(footprints),
        reuse=tuple(reuse),
        trips=tuple(trips[var] for var in reversed(loops)),
        touched=footprints[-1] if footprints else 1,
    )


def _trip_counts(
    kernel: Kernel, loops: Tuple[str, ...], params: Mapping[str, int]
) -> Dict[str, int]:
    """Representative trip count per loop, outermost first.

    Transformed nests reference enclosing control variables in their
    bounds (a tiled point loop runs ``II .. min(II+TI-1, N-1)``), so each
    loop is evaluated at the *first* iteration of its enclosing loops — a
    representative, boundary-free tile.  Untransformed nests have closed
    bounds, where this reduces to the plain per-loop trip count.
    """
    env: Dict[str, int] = dict(params)
    trips: Dict[str, int] = {}
    for var in loops:
        loop = find_loop(kernel.body, var)
        assert loop is not None
        trips[var] = max(0, loop.trip_count(env))
        env[var] = int(loop.lower.evaluate(env))
    return trips


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
