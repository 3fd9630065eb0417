"""Unit tests for the set-associative LRU cache model."""

import pytest

from repro.machines import CacheSpec
from repro.sim.cache import CacheState


def _cache(capacity=256, line=32, assoc=2, latency=2):
    return CacheState(CacheSpec("T", capacity, line, assoc, latency))


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert c.access(5, 0.0) is None
        assert c.access(5, 0.0) == 0.0
        assert (c.hits, c.misses) == (1, 1)

    def test_line_of(self):
        c = _cache(line=32)
        assert c.line_of(0) == 0
        assert c.line_of(31) == 0
        assert c.line_of(32) == 1

    def test_fill_time_preserved_on_hit(self):
        c = _cache()
        c.access(7, 123.0)
        assert c.access(7, 999.0) == 123.0

    def test_sets_are_independent(self):
        c = _cache(capacity=128, line=32, assoc=1)  # 4 sets
        c.access(0, 0.0)
        c.access(1, 0.0)
        assert c.access(0, 0.0) is not None
        assert c.access(1, 0.0) is not None


class TestLru:
    def test_lru_eviction_order(self):
        c = _cache(capacity=64, line=32, assoc=2)  # 1 set, 2 ways
        c.access(0, 0.0)
        c.access(1, 0.0)
        c.access(0, 0.0)  # 0 becomes MRU
        c.access(2, 0.0)  # evicts 1 (LRU)
        assert c.probe(0)
        assert not c.probe(1)
        assert c.probe(2)
        assert c.evictions == 1

    def test_direct_mapped_conflict(self):
        c = _cache(capacity=64, line=32, assoc=1)  # 2 sets
        # Lines 0 and 2 map to set 0; they evict each other.
        for _ in range(3):
            c.access(0, 0.0)
            c.access(2, 0.0)
        assert c.misses == 6
        assert c.hits == 0

    def test_associativity_absorbs_conflict(self):
        c = _cache(capacity=128, line=32, assoc=2)  # 2 sets, 2 ways
        for _ in range(3):
            c.access(0, 0.0)
            c.access(2, 0.0)
        assert c.misses == 2  # only cold misses
        assert c.hits == 4

    def test_capacity_miss_on_circular_scan(self):
        """Classic LRU pathology: scanning capacity+1 lines misses forever."""
        c = _cache(capacity=128, line=32, assoc=4)  # 1 set, 4 ways
        for _ in range(4):
            for line in range(5):
                c.access(line, 0.0)
        assert c.hits == 0

    def test_probe_does_not_disturb(self):
        c = _cache(capacity=64, line=32, assoc=2)
        c.access(0, 0.0)
        c.access(1, 0.0)
        c.probe(0)  # must NOT refresh line 0
        c.access(2, 0.0)  # evicts 0, the true LRU
        assert not c.probe(0)

    def test_resident_lines(self):
        c = _cache()
        c.access(1, 0.0)
        c.access(2, 0.0)
        assert c.resident_lines() == 2

    def test_insert_existing_updates_time(self):
        c = _cache()
        c.insert(3, 5.0)
        c.insert(3, 9.0)
        assert c.lookup(3) == 9.0
        assert c.resident_lines() == 1
