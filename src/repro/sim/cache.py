"""Set-associative LRU cache state.

Lines are identified by their line number (address >> log2(line size));
the TLB is a ``CacheState`` whose lines are pages.
Each set is a Python dict used as an ordered map: iteration order is
insertion order, so the first key is the LRU line; a hit re-inserts the
key to make it MRU.  The value stored per line is its *fill completion
time* (cycles), which the memory system uses to model non-blocking
prefetch: a line can be present (a "hit") while its fill is still in
flight, in which case the demand access stalls only for the residue.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.machines import CacheSpec

__all__ = ["CacheState"]


class CacheState:
    """Mutable simulation state for one cache level."""

    __slots__ = (
        "spec",
        "line_bits",
        "set_mask",
        "sets",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.line_bits = spec.line_size.bit_length() - 1
        self.set_mask = spec.num_sets - 1
        self.sets: List[Dict[int, float]] = [dict() for _ in range(spec.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def line_of(self, address: int) -> int:
        return address >> self.line_bits

    def lookup(self, line: int) -> Optional[float]:
        """Look up ``line``; on a hit, make it MRU and return its recorded
        fill time; on a miss, count it and return None (no insertion —
        the caller computes the fill completion and calls :meth:`insert`)."""
        index = line & self.set_mask
        ways = self.sets[index]
        present = ways.pop(line, None)
        if present is not None:
            self.hits += 1
            ways[line] = present
            return present
        self.misses += 1
        return None

    def insert(self, line: int, fill_time: float) -> Optional[int]:
        """Insert ``line`` as MRU with its fill completion time, evicting
        the set's LRU line if the set is full.  Returns the evicted line
        (None when no eviction happened)."""
        index = line & self.set_mask
        ways = self.sets[index]
        evicted = None
        if line in ways:
            del ways[line]
        elif len(ways) >= self.spec.associativity:
            evicted = next(iter(ways))
            del ways[evicted]
            self.evictions += 1
        ways[line] = fill_time
        return evicted

    def access(self, line: int, fill_time: float) -> Optional[float]:
        """Combined lookup-then-insert-on-miss (the reference TLB access)."""
        present = self.lookup(line)
        if present is None:
            self.insert(line, fill_time)
        return present

    def probe(self, line: int) -> bool:
        """Check presence without updating LRU state or counters."""
        return line in self.sets[line & self.set_mask]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self.sets)
