"""White-box tests for GuidedSearch internals."""

import math

import pytest

from repro.core import GuidedSearch, SearchConfig, derive_variants
from repro.core.search import MAX_UNROLL, MIN_TILE
from repro.core.variants import PrefetchSite
from repro.ir import builder as B
from repro.ir.expr import Var
from repro.kernels import matmul, matvec
from repro.machines import get_machine

SGI = get_machine("sgi")


@pytest.fixture()
def search():
    return GuidedSearch(matmul(), SGI, {"N": 24})


@pytest.fixture(scope="module")
def variants():
    return derive_variants(matmul(), SGI)


class TestFavorDivisor:
    def test_exact_divisor_kept(self, search):
        assert search._favor_divisor(8, 4) == 8  # 24 % 8 == 0

    def test_nudges_to_nearby_divisor(self, search):
        # 11 is not a divisor of 24; 12 is one step up.
        assert search._favor_divisor(11, 4) == 12

    def test_no_divisor_nearby_unchanged(self, search):
        assert search._favor_divisor(17, 4) == 17

    def test_degenerate_values(self, search):
        assert search._favor_divisor(0, 4) == 0


class TestStageBudget:
    def test_register_stage_budget(self, search, variants):
        budget, _ = search._stage_budget(variants[0], ["UI", "UJ"])
        assert budget == SGI.fp_registers

    def test_cache_stage_budget_uses_tightest_constraint(self, search, variants):
        v = variants[0]
        tiles = [p for _, p in v.tiles]
        budget, _ = search._stage_budget(v, tiles)
        # L1-mini usable = 128 elements, tighter than the TLB's 4096.
        assert budget <= 128

    def test_unknown_params_fall_back_to_l1(self, search, variants):
        budget, _ = search._stage_budget(variants[0], ["ZZ"])
        assert budget == SGI.l1.usable_fraction_capacity() // 8


class TestClamp:
    def test_unrolls_capped(self, search, variants):
        out = search._clamp(variants[0], {"UI": 99, "UJ": 0, "TJ": 10_000, "TK": 3})
        assert out["UI"] == MAX_UNROLL
        assert out["UJ"] == 1
        assert out["TJ"] == 24  # capped at the problem size
        assert out["TK"] >= MIN_TILE


class TestPrefetchSiteFiltering:
    def test_ineffective_site_skipped(self, variants):
        search = GuidedSearch(matmul(), SGI, {"N": 16})
        v = variants[0]
        values = search.initial_values(v)
        # C is fully promoted to registers in the K loop: no prefetches.
        site = PrefetchSite("C", v.register_loop)
        assert not search._site_effective(v, values, {}, site)

    def test_effective_site_detected(self, variants):
        search = GuidedSearch(matmul(), SGI, {"N": 16})
        v = next(x for x in variants if not x.copies)
        values = search.initial_values(v)
        site = PrefetchSite("A", v.register_loop)
        assert search._site_effective(v, values, {}, site)


class TestAdjustAfterPrefetch:
    def test_no_prefetch_no_adjustment(self, variants):
        search = GuidedSearch(matmul(), SGI, {"N": 16})
        v = variants[0]
        values = search.initial_values(v)
        assert search.adjust_after_prefetch(v, values, {}) == values

    def test_untiled_register_loop_no_adjustment(self):
        from repro.kernels import jacobi

        jac = jacobi()
        variants = derive_variants(jac, SGI, max_variants=20)
        v = next(x for x in variants if x.register_loop not in dict(x.tiles))
        search = GuidedSearch(jac, SGI, {"N": 12})
        values = search.initial_values(v)
        site = PrefetchSite("B", v.register_loop)
        assert search.adjust_after_prefetch(v, values, {site: 2}) == values


class TestPadsInMeasureKey:
    def test_pads_distinguish_points(self, variants):
        search = GuidedSearch(matmul(), SGI, {"N": 16})
        v = variants[0]
        values = search.initial_values(v)
        a = search.measure(v, values)
        points = search.points
        b = search.measure(v, values, pads={"A": 4})
        assert search.points == points + 1  # distinct experiment
        assert math.isfinite(a) and math.isfinite(b)
