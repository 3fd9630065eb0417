"""Property-based tests for the cache and memory-system models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import CacheSpec, MachineSpec, TlbSpec
from repro.sim.cache import CacheState
from repro.sim.memsys import KIND_LOAD, KIND_PREFETCH, KIND_STORE, MemorySystem


def _machine():
    return MachineSpec(
        name="toy",
        clock_mhz=100.0,
        fp_registers=32,
        caches=(
            CacheSpec("L1", capacity=512, line_size=32, associativity=2, latency=2),
            CacheSpec("L2", capacity=2048, line_size=32, associativity=2, latency=10),
        ),
        tlb=TlbSpec(entries=4, page_size=1024, associativity=4, miss_penalty=30),
        memory_latency=50,
        memory_cycles_per_line=20,
    )


lines = st.lists(st.integers(0, 63), min_size=1, max_size=300)


@given(lines)
@settings(max_examples=100)
def test_cache_hits_plus_misses_equals_accesses(sequence):
    cache = CacheState(CacheSpec("T", 256, 32, 2, 2))
    for line in sequence:
        cache.access(line, 0.0)
    assert cache.hits + cache.misses == len(sequence)


@given(lines)
@settings(max_examples=100)
def test_cache_never_exceeds_capacity(sequence):
    spec = CacheSpec("T", 256, 32, 2, 2)
    cache = CacheState(spec)
    for line in sequence:
        cache.access(line, 0.0)
    assert cache.resident_lines() <= spec.num_lines
    for ways in cache.sets:
        assert len(ways) <= spec.associativity


@given(lines)
@settings(max_examples=100)
def test_lru_inclusion_property(sequence):
    """A larger (higher-associativity) cache never misses more than a
    smaller one on the same trace — the classic LRU inclusion property."""
    small = CacheState(CacheSpec("S", 256, 32, 2, 2))
    big = CacheState(CacheSpec("B", 512, 32, 4, 2))
    for line in sequence:
        small.access(line, 0.0)
        big.access(line, 0.0)
    assert big.misses <= small.misses


@given(lines)
@settings(max_examples=100)
def test_repeating_a_trace_cannot_miss_more(sequence):
    """Second pass over a trace misses no more than the first."""
    cache = CacheState(CacheSpec("T", 256, 32, 2, 2))
    for line in sequence:
        cache.access(line, 0.0)
    first = cache.misses
    cache.reset_counters()
    for line in sequence:
        cache.access(line, 0.0)
    assert cache.misses <= first


addresses = st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200)
kinds_strategy = st.lists(
    st.sampled_from([KIND_LOAD, KIND_STORE, KIND_PREFETCH]), min_size=1, max_size=200
)


@given(addresses, st.data())
@settings(max_examples=60)
def test_collapse_exactness_property(addrs, data):
    """Vectorized (collapsing) processing is exactly equivalent to
    one-at-a-time processing for any access/kind sequence."""
    kinds = data.draw(
        st.lists(
            st.sampled_from([KIND_LOAD, KIND_STORE, KIND_PREFETCH]),
            min_size=len(addrs),
            max_size=len(addrs),
        )
    )
    machine = _machine()
    vec = MemorySystem(machine)
    vec.access_vector(
        np.array(addrs, dtype=np.int64), np.array(kinds, dtype=np.int8), 1.0
    )
    ref = MemorySystem(machine)
    for a, k in zip(addrs, kinds):
        ref._access_one(a, k, 1.0)
    # Counts and LRU state are exact; the fast path charges issue time at
    # each access's own position, so timing matches up to float
    # reassociation of the issue-time sum.
    assert vec.miss_counts() == ref.miss_counts()
    assert vec.hit_counts() == ref.hit_counts()
    assert (vec.tlb_hits, vec.tlb_misses) == (ref.tlb_hits, ref.tlb_misses)
    for vc, rc in zip(vec.caches + [vec.tlb], ref.caches + [ref.tlb]):
        assert vc.evictions == rc.evictions
        for vset, rset in zip(vc.sets, rc.sets):
            assert list(vset) == list(rset)
    for attr in ("now", "stall_cycles", "tlb_stall_cycles", "bus_free"):
        assert getattr(vec, attr) == pytest.approx(
            getattr(ref, attr), rel=1e-9, abs=1e-6
        ), attr


@given(addresses)
@settings(max_examples=60)
def test_time_is_monotonic_and_bounded(addrs):
    machine = _machine()
    ms = MemorySystem(machine)
    last = 0.0
    # issue + TLB walk + both cache latencies + memory + a bandwidth queue
    # bound: no single load can cost more than this.
    worst_per_access = (
        1.0
        + machine.tlb.miss_penalty
        + machine.caches[0].latency
        + machine.caches[1].latency
        + machine.memory_latency
        + machine.memory_cycles_per_line
    )
    for a in addrs:
        ms.access(a, KIND_LOAD, 1.0)
        assert ms.now >= last
        last = ms.now
    assert ms.now <= len(addrs) * worst_per_access


@given(addresses)
@settings(max_examples=60)
def test_prefetch_never_slows_down_a_second_pass(addrs):
    """Prefetching a stream before demanding it never increases misses
    charged to the demand accesses' stalls."""
    machine = _machine()
    plain = MemorySystem(machine)
    for a in addrs:
        plain.access(a, KIND_LOAD, 1.0)
    plain_stall = plain.stall_cycles

    warmed = MemorySystem(machine)
    for a in addrs:
        warmed.access(a, KIND_PREFETCH, 1.0)
    warmed.advance(10_000)
    warmed.stall_cycles = 0.0
    for a in addrs:
        warmed.access(a, KIND_LOAD, 1.0)
    assert warmed.stall_cycles <= plain_stall + 1e-6


@st.composite
def _classifier_case(draw):
    """A cache shape, random initial residents per set and a line stream
    (lines drawn from a small pool so sets see reuse and conflicts)."""
    assoc = draw(st.integers(1, 64))
    num_sets = draw(st.sampled_from([1, 2, 4, 8]))
    pool = draw(st.integers(1, 4 * assoc * num_sets))
    stream = draw(st.lists(st.integers(0, pool), min_size=1, max_size=200))
    flags = draw(st.lists(st.booleans(), min_size=len(stream), max_size=len(stream)))
    initial = []
    for s in range(num_sets):
        tags = draw(st.lists(st.integers(0, pool), max_size=assoc, unique=True))
        initial.append([tag * num_sets + s for tag in tags])
    return assoc, num_sets, stream, flags, initial


@given(_classifier_case())
@settings(max_examples=300, deadline=None)
def test_lru_classifier_matches_cache_state(case):
    """``fastpath._classify`` against a ``CacheState.access`` loop: hits,
    misses, evictions, chain roots, first-flagged accesses and
    the final per-set LRU order (with fill times) are identical."""
    from repro.sim.fastpath import _classify, _store

    assoc, num_sets, stream, flags, initial = case
    spec = CacheSpec("T", capacity=32 * assoc * num_sets, line_size=32,
                     associativity=assoc, latency=1)
    ref, fast = CacheState(spec), CacheState(spec)
    for s, residents in enumerate(initial):
        for line in residents:  # unique fill times name the resident
            ref.sets[s][line] = fast.sets[s][line] = -1.0 - line

    root, first, init, _, final = _classify(
        np.array(stream, dtype=np.int64), fast, np.array(flags)
    )
    filled_at = {}  # line -> stream index of the miss that filled it
    flagged = set()  # lines with a flagged access since their fill
    for i, (line, flag) in enumerate(zip(stream, flags)):
        if ref.lookup(line) is None:
            ref.insert(line, float(i))
            filled_at[line] = i
            flagged.discard(line)
        if line in filled_at:
            assert root[i] == filled_at[line]
        else:
            assert root[i] < 0 and init[root[i]] == -1.0 - line
        assert first[i] == (flag and line not in flagged)
        if flag:
            flagged.add(line)
    assert (fast.hits, fast.misses, fast.evictions) == (ref.hits, ref.misses, ref.evictions)
    _store(fast, final, init, np.arange(len(stream), dtype=float))
    for rset, fset in zip(ref.sets, fast.sets):
        assert list(fset.items()) == list(rset.items())
