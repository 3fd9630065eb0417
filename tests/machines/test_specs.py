"""Machine description tests."""

import pytest

from repro.machines import (
    MACHINES,
    SGI_R10K,
    SGI_R10K_MINI,
    ULTRASPARC_IIE,
    CacheSpec,
    MachineSpec,
    TlbSpec,
    get_machine,
)


class TestCacheSpec:
    def test_derived_quantities(self):
        cache = CacheSpec("L1", 32 * 1024, 32, 2, 2)
        assert cache.num_lines == 1024
        assert cache.num_sets == 512
        assert not cache.is_direct_mapped

    def test_usable_fraction(self):
        direct = CacheSpec("L1", 16 * 1024, 32, 1, 2)
        assert direct.usable_fraction_capacity() == 16 * 1024
        two_way = CacheSpec("L1", 32 * 1024, 32, 2, 2)
        assert two_way.usable_fraction_capacity() == 16 * 1024
        four_way = CacheSpec("L2", 256 * 1024, 64, 4, 10)
        assert four_way.usable_fraction_capacity() == 192 * 1024

    def test_invalid_line_size(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheSpec("L1", 1024, 24, 1, 2)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="divisible"):
            CacheSpec("L1", 1000, 32, 2, 2)

    def test_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            CacheSpec("L1", 1024, 32, 2, -1)


class TestTlbSpec:
    def test_reach(self):
        tlb = TlbSpec(64, 4096, 64, 70)
        assert tlb.reach == 256 * 1024
        assert tlb.num_sets == 1

    def test_bad_page_size(self):
        with pytest.raises(ValueError, match="power of two"):
            TlbSpec(64, 3000, 64, 70)


class TestMachineSpec:
    def test_paper_table2_values(self):
        """The full machines match the paper's Table 2."""
        assert SGI_R10K.clock_mhz == 195.0
        assert SGI_R10K.fp_registers == 32
        assert SGI_R10K.l1.capacity == 32 * 1024 and SGI_R10K.l1.associativity == 2
        assert SGI_R10K.caches[1].capacity == 1024 * 1024
        assert SGI_R10K.tlb.entries == 64

        assert ULTRASPARC_IIE.clock_mhz == 500.0
        assert ULTRASPARC_IIE.l1.is_direct_mapped
        assert ULTRASPARC_IIE.caches[1].capacity == 256 * 1024
        assert ULTRASPARC_IIE.caches[1].associativity == 4

    def test_peak_mflops(self):
        assert SGI_R10K.peak_mflops == 390.0
        assert ULTRASPARC_IIE.peak_mflops == 1000.0

    def test_mini_scaling_preserves_structure(self):
        assert SGI_R10K_MINI.l1.associativity == SGI_R10K.l1.associativity
        assert SGI_R10K_MINI.l1.line_size == SGI_R10K.l1.line_size
        assert SGI_R10K_MINI.l1.capacity < SGI_R10K.l1.capacity
        assert SGI_R10K_MINI.clock_mhz == SGI_R10K.clock_mhz

    def test_get_machine_aliases(self):
        assert get_machine("sgi").name == "sgi-r10k-mini"
        assert get_machine("sun").name == "ultrasparc-iie-mini"
        assert get_machine("sgi-full").name == "sgi-r10k"
        assert get_machine("sgi-r10k").name == "sgi-r10k"

    def test_unknown_machine(self):
        with pytest.raises(KeyError, match="unknown machine"):
            get_machine("pdp11")

    def test_describe_mentions_all_levels(self):
        text = SGI_R10K.describe()
        assert "L1" in text and "L2" in text and "TLB" in text

    def test_usable_registers(self):
        assert SGI_R10K.usable_registers == 28

    def test_cache_accessor_is_one_based(self):
        assert SGI_R10K.cache(1).name == "L1"
        assert SGI_R10K.cache(2).name == "L2"

    def test_all_registered_machines_valid(self):
        for machine in MACHINES.values():
            assert machine.peak_mflops > 0
            assert machine.num_cache_levels == 2
