"""Simulator unit tests: cache replacement behaviour and counter totals.

The memory-hierarchy model is the foundation every experiment rests on,
so its primitives get direct tests: set-indexing, LRU replacement within
a set, the conflict-miss pathology on power-of-two strides that motivates
the paper's array padding, and the ``Counters`` arithmetic used in every
reported table.
"""

from __future__ import annotations

import pytest

from repro.kernels import matmul
from repro.machines import CacheSpec, get_machine
from repro.sim import execute
from repro.sim.cache import CacheState
from repro.sim.counters import Counters


def _state(capacity=1024, line_size=32, associativity=1, latency=2):
    return CacheState(CacheSpec("T", capacity, line_size, associativity, latency))


class TestCacheIndexing:
    def test_line_of_strips_offset_bits(self):
        state = _state(line_size=32)
        assert state.line_of(0) == 0
        assert state.line_of(31) == 0
        assert state.line_of(32) == 1
        assert state.line_of(8 * 32 + 7) == 8

    def test_lines_map_to_sets_modulo_num_sets(self):
        state = _state(capacity=1024, line_size=32, associativity=1)  # 32 sets
        assert state.spec.num_sets == 32
        state.access(0, 0.0)
        state.access(32, 0.0)  # same set, direct-mapped: evicts line 0
        assert not state.probe(0)
        assert state.probe(32)
        assert state.evictions == 1


class TestLRUReplacement:
    def test_lru_victim_within_a_set(self):
        state = _state(capacity=128, line_size=32, associativity=2)  # 2 sets
        a, b, c = 0, 2, 4  # even lines: all in set 0
        state.access(a, 0.0)
        state.access(b, 0.0)
        state.access(c, 0.0)  # set full -> evicts a (the LRU)
        assert not state.probe(a)
        assert state.probe(b) and state.probe(c)

    def test_hit_refreshes_recency(self):
        state = _state(capacity=128, line_size=32, associativity=2)
        a, b, c = 0, 2, 4
        state.access(a, 0.0)
        state.access(b, 0.0)
        state.access(a, 0.0)  # a becomes MRU, b is now LRU
        state.access(c, 0.0)
        assert state.probe(a) and state.probe(c)
        assert not state.probe(b)

    def test_probe_does_not_disturb_state_or_counters(self):
        state = _state(capacity=128, line_size=32, associativity=2)
        a, b, c = 0, 2, 4
        state.access(a, 0.0)
        state.access(b, 0.0)
        hits, misses = state.hits, state.misses
        assert state.probe(a)
        assert (state.hits, state.misses) == (hits, misses)
        state.access(c, 0.0)  # probe must not have made a MRU
        assert not state.probe(a)

    def test_counters_and_residency(self):
        state = _state(capacity=128, line_size=32, associativity=2)
        state.access(0, 0.0)
        state.access(0, 0.0)
        state.access(2, 0.0)
        assert (state.hits, state.misses) == (1, 2)
        assert state.resident_lines() == 2

    def test_lookup_returns_recorded_fill_time(self):
        state = _state()
        assert state.lookup(5) is None  # miss: caller inserts
        state.insert(5, 123.5)
        assert state.lookup(5) == 123.5


class TestConflictMisses:
    """The paper's §3.3 motivation: power-of-two strides alias to a single
    set and thrash, while a padded (odd) stride spreads across sets."""

    def test_power_of_two_stride_thrashes_direct_mapped(self):
        state = _state(capacity=1024, line_size=32, associativity=1)
        span = state.spec.num_sets  # line-stride equal to the set count
        lines = [i * span for i in range(4)]  # all alias to set 0
        for _ in range(8):
            for line in lines:
                state.access(line, 0.0)
        assert state.hits == 0  # every access a conflict miss
        assert state.misses == 8 * len(lines)

    def test_padded_stride_eliminates_the_conflicts(self):
        state = _state(capacity=1024, line_size=32, associativity=1)
        span = state.spec.num_sets + 1  # "padded": odd stride
        lines = [i * span for i in range(4)]  # distinct sets
        for _ in range(8):
            for line in lines:
                state.access(line, 0.0)
        assert state.misses == len(lines)  # cold misses only
        assert state.hits == 7 * len(lines)

    def test_associativity_absorbs_small_conflict_sets(self):
        direct = _state(capacity=1024, line_size=32, associativity=1)
        assoc = _state(capacity=2048, line_size=32, associativity=2)
        assert direct.spec.num_sets == assoc.spec.num_sets
        lines = [0, direct.spec.num_sets]  # two lines, one set
        for _ in range(8):
            for line in lines:
                direct.access(line, 0.0)
                assoc.access(line, 0.0)
        assert direct.hits == 0  # thrash
        assert assoc.misses == len(lines)  # both fit in the 2-way set
        assert assoc.hits == 7 * len(lines)


class TestCounters:
    def _counters(self, **overrides):
        base = dict(
            kernel="k",
            machine="m",
            params={"N": 8},
            clock_mhz=200.0,
            loads=100,
            stores=25,
            prefetches=10,
            flops=60,
            useful_flops=50,
            cache_hits=(90, 8),
            cache_misses=(20, 5),
            tlb_misses=3,
            cycles=1000.0,
        )
        base.update(overrides)
        return Counters(**base)

    def test_level_accessors_and_totals(self):
        c = self._counters()
        assert c.l1_misses == 20
        assert c.l2_misses == 5
        assert c.memory_accesses == 125
        assert c.loads_papi == 110  # prefetches graduate as loads (R10K/PAPI)

    def test_missing_levels_default_to_zero(self):
        c = self._counters(cache_hits=(), cache_misses=())
        assert c.l1_misses == 0 and c.l2_misses == 0

    def test_mflops_and_seconds(self):
        c = self._counters()
        assert c.mflops == pytest.approx(50 * 200.0 / 1000.0)
        assert c.seconds == pytest.approx(1000.0 / (200.0 * 1e6))
        assert self._counters(cycles=0.0).mflops == 0.0

    def test_row_reports_papi_style_loads(self):
        row = self._counters().row()
        assert row["loads"] == 110
        assert row["l1_misses"] == 20
        assert row["N"] == 8
        assert row["cycles"] == 1000

    def test_executed_kernel_totals_are_consistent(self):
        """End to end: naive mm at N=6 does 2N^3 flops, 3N^3 loads, N^3
        stores, and its per-level cache accounting balances."""
        n = 6
        counters = execute(matmul(), {"N": n}, get_machine("sgi"))
        assert counters.flops == 2 * n**3
        assert counters.useful_flops == 2 * n**3
        assert counters.loads == 3 * n**3
        assert counters.stores == n**3
        assert counters.prefetches == 0
        # every demand access is looked up in L1...
        assert counters.cache_hits[0] + counters.cache_misses[0] == (
            counters.memory_accesses
        )
        # ...and only L1 misses are looked up in L2
        assert counters.cache_hits[1] + counters.cache_misses[1] == (
            counters.cache_misses[0]
        )
        assert counters.cycles > 0 and counters.seconds > 0
