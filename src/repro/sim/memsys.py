"""Multi-level memory system with timing, prefetch and bandwidth.

The memory system consumes the address stream produced by the executor and
models:

* N levels of set-associative LRU cache (line fill times kept per line,
  so non-blocking prefetches hide latency exactly to the extent the
  prefetch distance allows) and a TLB, which is one more
  :class:`~repro.sim.cache.CacheState` whose lines are pages;
* memory bandwidth — every last-level miss occupies the memory bus for
  ``memory_cycles_per_line`` cycles and fills serialize, which is what
  bounds streaming kernels like Jacobi;
* an exact vectorized two-pass fast path (:mod:`repro.sim.fastpath`):
  pass 1 classifies a whole batch hit/miss in bulk numpy, with one
  set-associative LRU classifier run on the page stream (the TLB), on
  L1's stream and then on each deeper level's miss stream, and keeps
  every miss's resolution as arrays; pass 2
  replays only the timing-relevant events — misses, demand TLB misses,
  the first demand hit on an in-flight fill — sequentially for
  ``now``/``bus_free``/stall accounting.  A demand access whose
  immediately preceding event is a demand access to the same L1 line
  additionally collapses before classification (it is always an L1 and
  TLB hit with no LRU motion and no stall); any intervening prefetch
  breaks the pair, because a prefetch's insert can change the set's
  contents.

  Hit/miss/eviction/TLB counts are *exactly* those of
  per-access simulation — classification never consults time.  Timing is
  exact up to float reassociation of the intra-batch issue-time sum (see
  the fastpath module docstring for the argument); it never drifts
  across batches.

``MemorySystem(machine, reference=True)`` keeps the per-access scalar
replay as the differential baseline: ``access_vector`` then simply loops
over :meth:`MemorySystem.access`, the single scalar entry point.  The
parity suite (``tests/test_sim_parity.py``) pins the two paths against
each other.

Event kinds: 0 = load, 1 = store, 2 = prefetch.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.machines import CacheSpec, MachineSpec
from repro.sim import fastpath
from repro.sim.cache import CacheState

__all__ = [
    "KIND_LOAD",
    "KIND_STORE",
    "KIND_PREFETCH",
    "MemorySystem",
]

KIND_LOAD = 0
KIND_STORE = 1
KIND_PREFETCH = 2


class MemorySystem:
    """Simulation state for the full hierarchy of one machine."""

    def __init__(
        self,
        machine: MachineSpec,
        reference: bool = False,
    ) -> None:
        self.machine = machine
        #: replay batches per access through the scalar path (the
        #: pre-fastpath simulator, kept as the differential baseline)
        self.reference = reference
        self.caches = [CacheState(spec) for spec in machine.caches]
        # The TLB is modelled as a cache of pages: one "line" per page (the
        # value stored per page is unused).
        tlb = machine.tlb
        self.tlb = CacheState(
            CacheSpec("TLB", tlb.reach, tlb.page_size, tlb.associativity, 0)
        )
        self.now = 0.0
        self.bus_free = 0.0
        self.stall_cycles = 0.0
        self.tlb_stall_cycles = 0.0
        self._last_demand_line = -1
        #: throughput accounting (surfaced as sim.* metrics / bench)
        self.accesses = 0  # events received (scalar + vector)
        self.batches = 0  # access_vector calls
        self.collapsed = 0  # accesses classified in bulk, never replayed
        self.timing_events = 0  # pass-2 events sequentially replayed

    @property
    def tlb_hits(self) -> int:
        return self.tlb.hits

    @property
    def tlb_misses(self) -> int:
        return self.tlb.misses

    # -- bulk interface ----------------------------------------------------
    def advance(self, cycles: float) -> None:
        """Account non-memory issue time (loop overhead, fp work)."""
        self.now += cycles

    def access_vector(
        self,
        addresses: np.ndarray,
        kinds: np.ndarray,
        cycles_per_access,
    ) -> None:
        """Process an ordered event batch.

        ``cycles_per_access`` is each event's share of the issue time of
        its loop iteration (the CPU model computes it from the loop body's
        fp/memory balance) — a uniform float, or a float64 array carrying
        one issue charge per event (the fused executor path folds
        statement issue and loop overhead into it).
        """
        n = len(addresses)
        if n == 0:
            return
        self.batches += 1
        if not self.reference:
            self.accesses += n
            fastpath.process_batch(self, addresses, kinds, cycles_per_access)
            return
        # Reference: the scalar entry point, once per event.
        if isinstance(cycles_per_access, np.ndarray):
            for addr, kind, cpa in zip(
                addresses.tolist(), kinds.tolist(), cycles_per_access.tolist()
            ):
                self.access(addr, kind, cpa)
        else:
            for addr, kind in zip(addresses.tolist(), kinds.tolist()):
                self.access(addr, kind, cycles_per_access)

    def access(self, address: int, kind: int, cycles_per_access: float = 1.0) -> None:
        """Process one event — the single scalar entry point (used by the
        executor's statement path and by ``reference`` batch replay)."""
        self.accesses += 1
        l1 = self.caches[0]
        line = address >> l1.line_bits
        if kind != KIND_PREFETCH:
            if line == self._last_demand_line:
                l1.hits += 1
                self.tlb.hits += 1
                self.collapsed += 1
                self.now += cycles_per_access
                return
            self._last_demand_line = line
        else:
            # A prefetch breaks the collapse pair: its insert can evict
            # lines from the set, so the next demand hit must replay.
            self._last_demand_line = -1
        self._access_one(address, kind, cycles_per_access)

    # -- core simulation ----------------------------------------------------
    def _access_one(self, addr: int, kind: int, cycles_per_access: float) -> None:
        now = self.now + cycles_per_access
        prefetch = kind == KIND_PREFETCH
        if self.tlb.access(self.tlb.line_of(addr), 0.0) is None and not prefetch:
            # Demand TLB miss stalls for the table walk; a prefetch's walk
            # happens off the critical path.
            now += self.machine.tlb.miss_penalty
            self.tlb_stall_cycles += self.machine.tlb.miss_penalty
        l1 = self.caches[0]
        line = addr >> l1.line_bits
        pending = l1.lookup(line)
        if pending is not None:
            if not prefetch and pending > now:
                self.stall_cycles += pending - now
                now = pending
        else:
            fill = self._fill_from(addr, now, 1)
            fill += l1.spec.latency
            l1.insert(line, fill)
            if not prefetch:
                self.stall_cycles += fill - now
                now = fill
        self.now = now

    def _fill_from(self, addr: int, now: float, level: int) -> float:
        """Completion time of a fill serviced by cache ``level`` (0-based
        index into ``caches``; == len(caches) means main memory)."""
        if level >= len(self.caches):
            start = max(now, self.bus_free)
            self.bus_free = start + self.machine.memory_cycles_per_line
            return start + self.machine.memory_latency
        cache = self.caches[level]
        line = addr >> cache.line_bits
        pending = cache.lookup(line)
        if pending is not None:
            return max(now + cache.spec.latency, pending)
        fill = self._fill_from(addr, now + cache.spec.latency, level + 1)
        cache.insert(line, fill)
        return fill

    # -- results -------------------------------------------------------------
    def miss_counts(self) -> Tuple[int, ...]:
        return tuple(cache.misses for cache in self.caches)

    def hit_counts(self) -> Tuple[int, ...]:
        return tuple(cache.hits for cache in self.caches)

