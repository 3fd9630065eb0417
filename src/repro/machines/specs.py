"""Machine descriptions for the simulated targets.

The paper evaluates on two real machines (its Table 2):

========================  =========  ==================  ====================  =====================  ====
Architecture              Clock      Registers           L1 cache              L2 cache               TLB
========================  =========  ==================  ====================  =====================  ====
SGI R10000 (Octane)       195 MHz    32 floating-point   32 KB 2-way data      1 MB 2-way unified     64
Sun UltraSparc IIe        500 MHz    32 floating-point   16 KB direct data     256 KB 4-way unified   64
========================  =========  ==================  ====================  =====================  ====

We reproduce both, plus ``*-mini`` variants with every capacity scaled down
(caches, TLB reach) so that trace-driven simulation of the full experiment
suite completes in seconds.  Proportional scaling preserves the qualitative
behaviour the paper studies (which level a footprint fits in, conflict-miss
pathologies at power-of-two strides, TLB-thrash onset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "CacheSpec",
    "TlbSpec",
    "MachineSpec",
    "SGI_R10K",
    "ULTRASPARC_IIE",
    "SGI_R10K_MINI",
    "ULTRASPARC_IIE_MINI",
    "MACHINES",
    "get_machine",
    "machine_from_dict",
]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheSpec:
    """One level of a set-associative cache with LRU replacement.

    Sizes are in bytes.  ``latency`` is the cycles this level takes to
    deliver a line to the level above it on a hit here: a miss at L1 that
    hits in L2 stalls for ``L2.latency``; an L2 miss additionally pays the
    machine's ``memory_latency`` (and competes for memory bandwidth).  L1's
    own ``latency`` applies only to in-flight fills (a demand access to a
    line whose fill is pending waits out the residue).
    """

    name: str
    capacity: int
    line_size: int
    associativity: int
    latency: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two: {self.line_size}")
        if self.capacity % (self.line_size * self.associativity) != 0:
            raise ValueError(
                f"{self.name}: capacity {self.capacity} is not divisible by "
                f"line_size*associativity = {self.line_size * self.associativity}"
            )
        if not _is_power_of_two(self.num_sets):
            raise ValueError(f"{self.name}: number of sets must be a power of two")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")

    @property
    def num_lines(self) -> int:
        return self.capacity // self.line_size

    @property
    def num_sets(self) -> int:
        return self.capacity // (self.line_size * self.associativity)

    @property
    def is_direct_mapped(self) -> bool:
        return self.associativity == 1

    def usable_fraction_capacity(self) -> int:
        """Capacity usable by a tile per the paper's conflict heuristic.

        The paper (section 3.1.1) bounds the footprint of a tile by the full
        capacity for a direct-mapped cache and ``(n-1)/n`` of the capacity of
        an n-way set-associative cache, to leave room for references that are
        not retained at this level.
        """
        if self.associativity == 1:
            return self.capacity
        return self.capacity * (self.associativity - 1) // self.associativity


@dataclass(frozen=True)
class TlbSpec:
    """Data TLB: ``entries`` page mappings of ``page_size`` bytes each."""

    entries: int
    page_size: int
    associativity: int
    miss_penalty: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.page_size):
            raise ValueError("page_size must be a power of two")
        if self.entries % self.associativity != 0:
            raise ValueError("entries must be divisible by associativity")
        if not _is_power_of_two(self.entries // self.associativity):
            raise ValueError("number of TLB sets must be a power of two")

    @property
    def reach(self) -> int:
        """Total bytes mapped by a full TLB."""
        return self.entries * self.page_size

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class MachineSpec:
    """A simulated target machine.

    The CPU cost model is a simple in-order-issue abstraction of an
    out-of-order superscalar: floating-point work and memory issue overlap
    (the issue time of a straight-line block is the max of its fp-pipe and
    memory-pipe occupancy), loop control adds ``loop_overhead`` cycles per
    executed iteration of every loop, and cache/TLB miss penalties stall the
    pipeline (unless hidden by prefetch, which the memory system models).
    """

    name: str
    clock_mhz: float
    fp_registers: int
    caches: Tuple[CacheSpec, ...]
    tlb: TlbSpec
    memory_latency: int
    #: cycles the memory bus is busy transferring one last-level line
    memory_cycles_per_line: int
    flops_per_cycle: float = 2.0
    loads_per_cycle: float = 1.0
    loop_overhead: float = 2.0
    #: FP registers the backend reserves for address arithmetic / pipeline use
    reserved_registers: int = 4
    #: extra memory ops per spilled value per use, see sim.cpu
    spill_cost: float = 2.0

    def __post_init__(self) -> None:
        if not self.caches:
            raise ValueError("machine must have at least one cache level")
        for inner, outer in zip(self.caches, self.caches[1:]):
            if outer.capacity < inner.capacity:
                raise ValueError("cache capacities must be non-decreasing")
            if outer.line_size < inner.line_size:
                raise ValueError("cache line sizes must be non-decreasing")

    @property
    def l1(self) -> CacheSpec:
        return self.caches[0]

    @property
    def last_level(self) -> CacheSpec:
        return self.caches[-1]

    @property
    def num_cache_levels(self) -> int:
        return len(self.caches)

    @property
    def peak_mflops(self) -> float:
        return self.clock_mhz * self.flops_per_cycle

    @property
    def usable_registers(self) -> int:
        return self.fp_registers - self.reserved_registers

    def cache(self, level: int) -> CacheSpec:
        """Return the cache at 1-based ``level`` (1 = L1)."""
        return self.caches[level - 1]

    def describe(self) -> str:
        """One-line description in the style of the paper's Table 2."""
        caches = ", ".join(
            f"{c.name} {c.capacity // 1024}KB {c.associativity}-way "
            f"{c.line_size}B lines"
            if c.capacity >= 1024
            else f"{c.name} {c.capacity}B {c.associativity}-way {c.line_size}B lines"
            for c in self.caches
        )
        return (
            f"{self.name}: {self.clock_mhz:g} MHz, {self.fp_registers} fp regs, "
            f"{caches}, TLB {self.tlb.entries} x {self.tlb.page_size}B pages"
        )


SGI_R10K = MachineSpec(
    name="sgi-r10k",
    clock_mhz=195.0,
    fp_registers=32,
    caches=(
        CacheSpec("L1", capacity=32 * 1024, line_size=32, associativity=2, latency=2),
        CacheSpec("L2", capacity=1024 * 1024, line_size=128, associativity=2, latency=10),
    ),
    tlb=TlbSpec(entries=64, page_size=4096, associativity=64, miss_penalty=70),
    memory_latency=60,
    memory_cycles_per_line=24,
    flops_per_cycle=2.0,
    loads_per_cycle=1.0,
)

ULTRASPARC_IIE = MachineSpec(
    name="ultrasparc-iie",
    clock_mhz=500.0,
    fp_registers=32,
    caches=(
        CacheSpec("L1", capacity=16 * 1024, line_size=32, associativity=1, latency=2),
        CacheSpec("L2", capacity=256 * 1024, line_size=64, associativity=4, latency=14),
    ),
    tlb=TlbSpec(entries=64, page_size=8192, associativity=64, miss_penalty=90),
    memory_latency=80,
    memory_cycles_per_line=40,
    flops_per_cycle=2.0,
    loads_per_cycle=1.0,
)

#: Scaled-down machines used by the default experiment configuration so that
#: trace-driven simulation of the whole evaluation runs in seconds.  Every
#: capacity (cache, TLB reach) is ~16x smaller; line sizes, latencies and
#: issue widths are unchanged, so miss costs and spatial reuse behave as on
#: the full machines, at 1/16th the problem sizes.
SGI_R10K_MINI = MachineSpec(
    name="sgi-r10k-mini",
    clock_mhz=195.0,
    fp_registers=32,
    caches=(
        CacheSpec("L1", capacity=2 * 1024, line_size=32, associativity=2, latency=2),
        CacheSpec("L2", capacity=64 * 1024, line_size=64, associativity=2, latency=10),
    ),
    tlb=TlbSpec(entries=16, page_size=2048, associativity=16, miss_penalty=70),
    memory_latency=60,
    memory_cycles_per_line=24,
    flops_per_cycle=2.0,
    loads_per_cycle=1.0,
)

ULTRASPARC_IIE_MINI = MachineSpec(
    name="ultrasparc-iie-mini",
    clock_mhz=500.0,
    fp_registers=32,
    caches=(
        CacheSpec("L1", capacity=1024, line_size=32, associativity=1, latency=2),
        CacheSpec("L2", capacity=16 * 1024, line_size=64, associativity=4, latency=14),
    ),
    tlb=TlbSpec(entries=16, page_size=2048, associativity=16, miss_penalty=90),
    memory_latency=80,
    memory_cycles_per_line=40,
    flops_per_cycle=2.0,
    loads_per_cycle=1.0,
)

MACHINES: Dict[str, MachineSpec] = {
    machine.name: machine
    for machine in (SGI_R10K, ULTRASPARC_IIE, SGI_R10K_MINI, ULTRASPARC_IIE_MINI)
}


def machine_from_dict(data: Dict) -> MachineSpec:
    """Rebuild a :class:`MachineSpec` from its ``dataclasses.asdict`` form.

    Inverse of :func:`repro.eval.keys.machine_fingerprint`, which is how
    specs travel over the wire (serve requests) and live in sealed
    records.  The dataclass validators re-run, so a hand-edited spec
    file gets the same sanity checks as the built-in machines.
    """
    fields = dict(data)
    caches = tuple(CacheSpec(**cache) for cache in fields.pop("caches"))
    tlb = TlbSpec(**fields.pop("tlb"))
    return MachineSpec(caches=caches, tlb=tlb, **fields)


def get_machine(name: str) -> MachineSpec:
    """Look up a machine by name, accepting the paper's shorthand.

    ``sgi`` and ``sun`` resolve to the mini (fast-simulation) machines used
    by the default experiment configuration.
    """
    aliases = {
        "sgi": "sgi-r10k-mini",
        "sun": "ultrasparc-iie-mini",
        "sgi-full": "sgi-r10k",
        "sun-full": "ultrasparc-iie",
    }
    key = aliases.get(name, name)
    try:
        return MACHINES[key]
    except KeyError:
        known = ", ".join(sorted(MACHINES))
        raise KeyError(f"unknown machine {name!r}; known: {known}") from None
