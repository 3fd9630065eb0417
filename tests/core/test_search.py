"""Guided-search tests (phase 2)."""

import dataclasses
import math

import pytest

from repro.core import EcoOptimizer, GuidedSearch, SearchConfig, derive_variants
from repro.kernels import matmul, matvec
from repro.machines import get_machine

MACHINE = get_machine("sgi")


@pytest.fixture(scope="module")
def mm_search():
    kernel = matmul()
    variants = derive_variants(kernel, MACHINE)
    search = GuidedSearch(kernel, MACHINE, {"N": 32}, SearchConfig(full_search_variants=2))
    result = search.run(variants)
    return search, result


class TestStages:
    def test_shared_parameter_merges_stages(self):
        kernel = matmul()
        variants = derive_variants(kernel, MACHINE, max_variants=20)
        v2like = next(
            v for v in variants
            if v.point_order == ("J", "I", "K") and len(dict(v.tiles)) == 3
        )
        search = GuidedSearch(kernel, MACHINE, {"N": 32})
        stages = search.stages(v2like)
        # Register stage (UI, UJ) and one merged cache stage (TK shared
        # between L1 and L2 pulls TI/TJ together).
        assert sorted(stages[0]) == ["UI", "UJ"]
        merged = [s for s in stages if "TK" in s]
        assert len(merged) == 1
        assert set(merged[0]) >= {"TI", "TK", "TJ"}

    def test_initial_values_respect_constraints(self):
        kernel = matmul()
        variants = derive_variants(kernel, MACHINE)
        search = GuidedSearch(kernel, MACHINE, {"N": 32})
        for v in variants:
            values = search.initial_values(v)
            assert v.feasible({**values, "N": 32}), (v.name, values)
            assert all(val >= 1 for val in values.values())

    def test_register_stage_fills_register_file(self):
        kernel = matmul()
        variants = derive_variants(kernel, MACHINE)
        search = GuidedSearch(kernel, MACHINE, {"N": 32})
        values = search.initial_values(variants[0])
        # UI*UJ should start at around 32 (register file size).
        assert 16 <= values["UI"] * values["UJ"] <= 32


class TestMeasurement:
    def test_measurement_memoized(self):
        kernel = matmul()
        variants = derive_variants(kernel, MACHINE)
        search = GuidedSearch(kernel, MACHINE, {"N": 16})
        v = variants[0]
        values = search.initial_values(v)
        first = search.measure(v, values)
        points = search.points
        second = search.measure(v, values)
        assert first == second
        assert search.points == points  # cached, not re-run

    def test_infeasible_point_is_inf(self):
        kernel = matmul()
        variants = derive_variants(kernel, MACHINE)
        search = GuidedSearch(kernel, MACHINE, {"N": 16})
        v = variants[0]
        values = {p: 512 for p in v.param_names}  # grossly over budget
        assert math.isinf(search.measure(v, values))


class TestSearchOutcome:
    def test_search_improves_on_initial_point(self, mm_search):
        search, result = mm_search
        initial = min(
            cycles for name, values, cycles in result.history[: result.variants_considered]
        )
        assert result.cycles <= initial

    def test_search_beats_naive(self, mm_search):
        from repro.sim import execute

        _, result = mm_search
        naive = execute(matmul(), {"N": 32}, MACHINE)
        assert result.cycles < naive.cycles / 2

    def test_result_is_feasible(self, mm_search):
        _, result = mm_search
        assert result.variant.feasible({**result.values, "N": 32})

    def test_points_counted(self, mm_search):
        search, result = mm_search
        assert result.points == search.points
        assert 10 <= result.points <= 200

    def test_prefetch_distances_positive(self, mm_search):
        _, result = mm_search
        assert all(d >= 1 for d in result.prefetch.values())

    def test_history_records_all_points(self, mm_search):
        search, result = mm_search
        assert len(result.history) == result.points


class TestEcoOptimizer:
    def test_matvec_end_to_end(self):
        eco = EcoOptimizer(matvec(), MACHINE, SearchConfig(full_search_variants=1))
        tuned = eco.optimize({"N": 48})
        from repro.sim import execute

        naive = execute(matvec(), {"N": 48}, MACHINE)
        measured = tuned.measure({"N": 48})
        assert measured.cycles <= naive.cycles
        assert "ECO tuned matvec" in tuned.describe()

    def test_variants_cached(self):
        eco = EcoOptimizer(matmul(), MACHINE)
        assert eco.variants is eco.variants

    def test_build_produces_valid_kernel(self):
        from repro.ir.validate import validate_kernel

        eco = EcoOptimizer(matvec(), MACHINE, SearchConfig(full_search_variants=1))
        tuned = eco.optimize({"N": 32})
        validate_kernel(tuned.build())


class TestSearchConfig:
    def test_only_policy_choices_are_settable(self):
        # the paper's step constants (linear rounds, prefetch ladder, tile
        # and unroll bounds, model margins) are module constants, not knobs
        names = tuple(f.name for f in dataclasses.fields(SearchConfig))
        assert names == (
            "full_search_variants",
            "search_padding",
            "prescreen",
            "ranker",
            "warm_seeds",
        )
