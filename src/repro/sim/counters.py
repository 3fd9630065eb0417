"""Execution counters: the simulator's equivalent of the paper's PAPI data.

Table 1 of the paper reports Loads, L1 misses, L2 misses, TLB misses and
Cycles per version; :class:`Counters` carries those plus the breakdowns the
cost model produces (stall cycles, issue cycles, per-level hits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["Counters"]


@dataclass
class Counters:
    """Results of executing one kernel version on the simulated machine."""

    kernel: str
    machine: str
    params: Dict[str, int]
    clock_mhz: float

    # instruction counts
    loads: int = 0
    stores: int = 0
    prefetches: int = 0
    dropped_prefetches: int = 0
    flops: int = 0
    useful_flops: int = 0
    scalar_moves: int = 0
    loop_iterations: int = 0

    # memory behaviour
    cache_hits: Tuple[int, ...] = ()
    cache_misses: Tuple[int, ...] = ()
    tlb_hits: int = 0
    tlb_misses: int = 0

    # time
    cycles: float = 0.0
    stall_cycles: float = 0.0
    tlb_stall_cycles: float = 0.0

    # simulator throughput (host-side cost of producing this result;
    # sim_seconds is wall time and must stay out of reproducible output)
    sim_seconds: float = 0.0
    sim_accesses: int = 0
    sim_batches: int = 0
    sim_collapsed: int = 0
    sim_timing_events: int = 0

    @property
    def l1_misses(self) -> int:
        return self.cache_misses[0] if self.cache_misses else 0

    @property
    def l2_misses(self) -> int:
        return self.cache_misses[1] if len(self.cache_misses) > 1 else 0

    @property
    def memory_accesses(self) -> int:
        return self.loads + self.stores

    @property
    def loads_papi(self) -> int:
        """Load-instruction count the way PAPI reports it on the R10000:
        prefetch instructions graduate as loads, so the paper's prefetching
        versions show more Loads (mm5 vs mm4)."""
        return self.loads + self.prefetches

    @property
    def mflops(self) -> float:
        """Useful MFLOPS at the machine's clock (the paper's y-axis)."""
        if self.cycles <= 0:
            return 0.0
        return self.useful_flops * self.clock_mhz / self.cycles

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    def row(self) -> Dict[str, object]:
        """Flat dict for table/CSV reporting."""
        return {
            "kernel": self.kernel,
            "machine": self.machine,
            **{k: v for k, v in self.params.items()},
            "loads": self.loads_papi,
            "stores": self.stores,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "tlb_misses": self.tlb_misses,
            "cycles": int(self.cycles),
            "mflops": round(self.mflops, 1),
        }
