"""Model-driven baseline and annealing-search tests."""

import math

import pytest

from repro.baselines import AnnealingSearch, ModelDriven
from repro.kernels import jacobi, matmul, matvec
from repro.machines import get_machine
from repro.sim import execute

SGI = get_machine("sgi")


class TestModelDriven:
    def test_zero_experiments(self):
        assert ModelDriven(matmul(), SGI).search_points == 0

    def test_plan_is_feasible(self):
        md = ModelDriven(matmul(), SGI)
        variant, values, prefetch = md.plan({"N": 32})
        assert variant.feasible({**values, "N": 32})
        assert all(d >= 1 for d in prefetch.values())

    def test_beats_naive(self):
        md = ModelDriven(matmul(), SGI)
        naive = execute(matmul(), {"N": 32}, SGI)
        assert md.measure({"N": 32}).cycles < naive.cycles

    def test_small_size_prefers_predicted_fit_variant(self):
        """At small N the soft 'fits L2 untiled' prediction holds, so a
        v1-style (untiled-L2) variant can be chosen; at huge N it cannot."""
        md = ModelDriven(matmul(), SGI)
        variant_small, _, _ = md.plan({"N": 16})
        assert variant_small.predicted_fit({"N": 16, **{p: 4 for p in variant_small.param_names}})

    def test_works_on_jacobi_and_matvec(self):
        for kernel, n, in ((jacobi(), 12), (matvec(), 32)):
            md = ModelDriven(kernel, SGI)
            assert md.measure({"N": n}).cycles > 0

    def test_eco_not_worse_than_model_driven(self):
        """The paper's claim: search refines the models' answer."""
        from repro.core import EcoOptimizer, SearchConfig

        problem = {"N": 48}
        md_cycles = ModelDriven(matmul(), SGI).measure(problem).cycles
        eco = EcoOptimizer(
            matmul(), SGI, SearchConfig(full_search_variants=2)
        ).optimize(problem)
        assert eco.result.cycles <= md_cycles


class TestAnnealing:
    def test_budget_respected_and_deterministic(self):
        a = AnnealingSearch(matmul(), SGI, seed=5).run({"N": 24}, budget=15)
        b = AnnealingSearch(matmul(), SGI, seed=5).run({"N": 24}, budget=15)
        assert a.points == 15
        assert a.cycles == b.cycles

    def test_finds_finite_solution(self):
        result = AnnealingSearch(matmul(), SGI, seed=1).run({"N": 24}, budget=20)
        assert result.found_any
        assert math.isfinite(result.cycles)

    def test_annealing_improves_over_its_start(self):
        from repro.core import derive_variants

        search = AnnealingSearch(matmul(), SGI, seed=2)
        variants = derive_variants(matmul(), SGI)
        start = search._measure(search._initial_state(None, variants), {"N": 24})
        result = search.run({"N": 24}, budget=30)
        assert result.cycles <= start
