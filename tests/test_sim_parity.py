"""Differential parity: the vectorized two-pass simulator vs the scalar
reference.

``MemorySystem(reference=True)`` replays batches through the per-access
scalar path — the pre-fastpath simulator, kept for exactly this purpose.
The fast path's contract (see docs/simulator.md, "Fast path"):

* hit/miss/eviction/TLB **counts are byte-identical** — pass-1
  classification is a pure function of the ordered line sequence and
  never consults time;
* the full LRU state (per-set key order and pending-fill times) matches
  after every batch;
* **timing agrees up to float reassociation** of the intra-batch
  issue-time sum (the fast path accumulates per-event issue charges with
  a vectorized cumulative sum; the scalar path adds them one by one) and
  up to the executor's dropped-prefetch issue folding — both bounded well
  below ``CYCLES_RTOL`` on every workload here.

Two layers of evidence: randomized address-stream trials straight against
``MemorySystem`` (stressing run collapsing, set chains and prefetch
timing), and whole-kernel executions through ``execute()``
including the golden-search mm variant.  The registry machines all have
an L1 of at most two ways, exactly two cache levels and a one-set TLB,
so the randomized trials also rotate through synthetic hierarchies no
registry machine has: a single cache level, 4-, 8- and 16-way L1s,
three levels with growing line sizes, and multi-set TLBs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import parse_kernel
from repro.kernels import KERNELS
from repro.machines import MACHINES, CacheSpec, MachineSpec, TlbSpec
from repro.sim.executor import execute
from repro.sim.memsys import MemorySystem
from repro.transforms.prefetch import insert_prefetch
from repro.transforms.scalar_replace import scalar_replace
from repro.transforms.tile import TileSpec, tile_nest
from repro.transforms.unroll_jam import unroll_and_jam

#: relative timing tolerance: covers intra-batch issue reassociation
#: (~1e-12 per batch) and dropped-prefetch issue folding (observed up to
#: ~6.2e-4 on prefetching variants) with an order of magnitude to spare
CYCLES_RTOL = 2e-3

ALL_MACHINES = ("sgi-r10k", "ultrasparc-iie", "sgi-r10k-mini", "ultrasparc-iie-mini")


def _synthetic(name, caches, tlb=(16, 16)):
    """A toy hierarchy: ``caches`` are (capacity, line, ways, latency)."""
    return MachineSpec(
        name=name,
        clock_mhz=100.0,
        fp_registers=32,
        caches=tuple(
            CacheSpec(f"L{i + 1}", capacity=c, line_size=ln, associativity=a, latency=lat)
            for i, (c, ln, a, lat) in enumerate(caches)
        ),
        tlb=TlbSpec(entries=tlb[0], page_size=2048, associativity=tlb[1], miss_penalty=50),
        memory_latency=70,
        memory_cycles_per_line=30,
    )


#: hierarchies outside the registry's shape (L1 <= 2 ways, two levels,
#: one-set TLB); their rotation length (7) is coprime with the trial's
#: style (5) and issue-charge (2) periods
SYNTHETIC_MACHINES = (
    _synthetic("one-level", [(1024, 32, 2, 2)]),
    _synthetic("l1-4way", [(2048, 32, 4, 2), (16384, 64, 4, 12)]),
    _synthetic("l1-8way", [(2048, 32, 8, 2), (32768, 64, 2, 10)]),
    _synthetic(
        "three-level",
        [(1024, 16, 2, 2), (4096, 32, 4, 8), (32768, 64, 8, 20)],
    ),
    _synthetic("tlb-4set", [(2048, 32, 2, 2), (65536, 64, 2, 10)], tlb=(16, 4)),
    _synthetic(
        "three-level-dm",
        [(512, 32, 1, 1), (4096, 32, 2, 6), (16384, 128, 16, 16)],
        tlb=(8, 4),
    ),
    _synthetic("one-level-16way", [(1024, 32, 16, 3)], tlb=(32, 8)),
)

#: trials 0-23 rotate the registry machines (six each, every trace style);
#: trials from 24 on rotate the synthetic ones (five each, every style)
REGISTRY_TRIALS = 6 * len(ALL_MACHINES)
SYNTHETIC_TRIALS = 5 * len(SYNTHETIC_MACHINES)


def _trial_machine(trial: int) -> MachineSpec:
    if trial < REGISTRY_TRIALS:
        return MACHINES[ALL_MACHINES[trial % len(ALL_MACHINES)]]
    return SYNTHETIC_MACHINES[(trial - REGISTRY_TRIALS) % len(SYNTHETIC_MACHINES)]


def _assert_state_parity(ref: MemorySystem, fast: MemorySystem) -> None:
    """Counts byte-identical, LRU state identical, timing bounded."""
    assert fast.hit_counts() == ref.hit_counts()
    assert fast.miss_counts() == ref.miss_counts()
    assert (fast.tlb_hits, fast.tlb_misses) == (ref.tlb_hits, ref.tlb_misses)
    levels = [(f"L{i + 1}", rc, fc) for i, (rc, fc) in enumerate(zip(ref.caches, fast.caches))]
    for name, rc, fc in levels + [("TLB", ref.tlb, fast.tlb)]:
        assert fc.evictions == rc.evictions, f"{name} evictions"
        for rset, fset in zip(rc.sets, fc.sets):
            assert list(fset.keys()) == list(rset.keys()), f"{name} LRU order"
            for line in rset:
                assert fset[line] == pytest.approx(rset[line], rel=1e-9, abs=1e-6)
    for attr in ("now", "stall_cycles", "tlb_stall_cycles", "bus_free"):
        r, f = getattr(ref, attr), getattr(fast, attr)
        assert f == pytest.approx(r, rel=1e-9, abs=1e-6), attr


def _trace(rng: np.ndarray, style: int, n: int) -> np.ndarray:
    base = int(rng.integers(0, 1 << 22))
    if style == 0:  # unit/strided streams (the common kernel shape)
        addr = base + np.arange(n) * int(rng.integers(4, 64))
    elif style == 1:  # random reuse over a small working set
        addr = base + rng.integers(0, 2000, n) * 8
    elif style == 2:  # same-line runs (collapse fodder)
        addr = base + np.repeat(np.arange(n // 4 + 1) * 32, 4)[:n]
    elif style == 3:  # periodic conflict misses
        addr = base + (np.arange(n) % int(rng.integers(8, 300))) * 128
    else:  # uniform random over a large footprint (TLB churn)
        addr = base + rng.integers(0, 1 << 20, n)
    return addr.astype(np.int64)


class TestRandomTraceParity:
    """Seeded random event batches straight against MemorySystem."""

    @pytest.mark.parametrize("trial", range(REGISTRY_TRIALS + SYNTHETIC_TRIALS))
    def test_randomized_batches_match_reference(self, trial):
        rng = np.random.default_rng(1000 + trial)
        machine = _trial_machine(trial)
        ref = MemorySystem(machine, reference=True)
        fast = MemorySystem(machine)
        for _ in range(int(rng.integers(3, 7))):
            n = int(rng.integers(50, 2500))
            addr = _trace(rng, trial % 5, n)
            kind = rng.choice([0, 0, 0, 1, 2], n).astype(np.int8)
            if trial % 2:  # per-event issue charges (the fused-loop shape)
                cpa = rng.uniform(0.1, 2.0, n)
            else:  # uniform scalar charge
                cpa = float(rng.uniform(0.2, 1.5))
            ref.access_vector(addr, kind, cpa)
            fast.access_vector(addr, kind, cpa)
            # parity after *every* batch: errors cannot hide by cancelling
            _assert_state_parity(ref, fast)

    def test_fastpath_actually_collapses_and_batches(self):
        """Guard against the fast path silently degrading to scalar."""
        machine = MACHINES["sgi-r10k-mini"]
        fast = MemorySystem(machine)
        addr = (np.repeat(np.arange(512) * 32, 4)).astype(np.int64)
        fast.access_vector(addr, np.zeros(len(addr), dtype=np.int8), 0.5)
        assert fast.batches == 1
        assert fast.accesses == len(addr)
        assert fast.collapsed > len(addr) // 2


def _golden_mm(uaj_i: int = 8, uaj_j: int = 2):
    """The tiled+unrolled+prefetching mm shape the guided search converges
    to (tests/test_search_golden.py) — the highest-value parity workload."""
    mm = KERNELS["mm"]()
    t = tile_nest(
        mm,
        [TileSpec("I", "II", 8), TileSpec("K", "KK", 12)],
        control_order=["II", "KK"],
        point_order=["I", "J", "K"],
    )
    t = unroll_and_jam(t, "I", uaj_i)
    t = unroll_and_jam(t, "J", uaj_j)
    t = scalar_replace(t, "K")
    t = insert_prefetch(t, "A", 2, "K", line_elems=4)
    t = insert_prefetch(t, "B", 2, "K", line_elems=4)
    return t


def _kernel_cases():
    for name in ("mm", "jacobi", "matvec", "stencil2d", "conv2d"):
        params = {"N": 32} if name != "conv2d" else {"N": 32, "F": 5}
        yield f"{name}-plain", KERNELS[name](), params
    yield "mm-golden", _golden_mm(), {"N": 48}
    yield "mm-golden-4x2", _golden_mm(4, 2), {"N": 48}
    jacobi = unroll_and_jam(KERNELS["jacobi"](), "J", 4)
    yield "jacobi-uaj", jacobi, {"N": 48}
    # a non-affine subscript: the nest does not fuse, so its statement
    # runs on the scalar path and its inner loop once per trip
    yield "product-subscript", parse_kernel(_PRODUCT_SUBSCRIPT), {"N": 24}


_PRODUCT_SUBSCRIPT = """kernel product(N):
    array A[N * N], B[N, N], C[N]
    do I = 1, N:
        C[I] = C[I] + B[I, 1]
        do J = 1, N:
            B[I, J] = B[I, J] + A[I * J]
"""


_CASES = list(_kernel_cases())


class TestKernelExecutionParity:
    """Whole executions: fast path vs ``execute(..., reference=True)``."""

    @pytest.mark.parametrize(
        "label,machine_name",
        [
            (label, machine)
            for label, _, _ in _CASES
            for machine in ("sgi-r10k-mini", "ultrasparc-iie-mini")
        ],
    )
    def test_counters_identical_cycles_bounded(self, label, machine_name):
        kernel, params = next(
            (k, p) for case_label, k, p in _CASES if case_label == label
        )
        machine = MACHINES[machine_name]
        ref = execute(kernel, params, machine, reference=True)
        fast = execute(kernel, params, machine)
        for attr in (
            "loads",
            "stores",
            "prefetches",
            "dropped_prefetches",
            "flops",
            "loop_iterations",
            "cache_hits",
            "cache_misses",
            "tlb_hits",
            "tlb_misses",
        ):
            assert getattr(fast, attr) == getattr(ref, attr), attr
        assert fast.cycles == pytest.approx(ref.cycles, rel=CYCLES_RTOL)
        assert fast.stall_cycles == pytest.approx(
            ref.stall_cycles, rel=CYCLES_RTOL, abs=1.0
        )

    @pytest.mark.parametrize("machine_name", ["sgi-r10k", "ultrasparc-iie"])
    def test_golden_variant_on_full_machines(self, machine_name):
        """The full (non-mini) hierarchies: bigger caches, different
        associativities, same contract."""
        machine = MACHINES[machine_name]
        kernel = _golden_mm()
        ref = execute(kernel, {"N": 48}, machine, reference=True)
        fast = execute(kernel, {"N": 48}, machine)
        assert fast.cache_hits == ref.cache_hits
        assert fast.cache_misses == ref.cache_misses
        assert (fast.tlb_hits, fast.tlb_misses) == (ref.tlb_hits, ref.tlb_misses)
        assert fast.cycles == pytest.approx(ref.cycles, rel=CYCLES_RTOL)

    def test_reference_flag_reaches_memsys(self):
        """The baseline really is the scalar path, not fastpath again."""
        machine = MACHINES["sgi-r10k-mini"]
        ref = execute(KERNELS["mm"](), {"N": 16}, machine, reference=True)
        fast = execute(KERNELS["mm"](), {"N": 16}, machine)
        # the scalar path replays every event, so no pass-2 event stats
        assert ref.sim_timing_events == 0
        assert fast.sim_timing_events > 0
        assert fast.sim_batches > 0
