"""Golden test: the mm search on the R10K machine spec is pinned exactly.

The guided search is deterministic (model-ordered variants, fixed stage
order, no randomness), so its outcome on a fixed kernel/machine/problem
is a behavioural contract: any change to the cost model, the simulator,
the transforms or the search itself that shifts this result must be a
conscious decision, made by updating these numbers.

Captured from two independent runs of the seed implementation (identical
to the last bit).
"""

from __future__ import annotations

import pytest

from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine

GOLDEN_VALUES = {"TI": 8, "TK": 12, "UI": 8, "UJ": 2}
GOLDEN_PREFETCH = {("A", "K"): 2, ("B", "K"): 2}
GOLDEN_POINTS = 51
# 30774.4 before the demand-collapse fix: a demand hit following a
# prefetch now replays (the prefetch's insert can change the set), so
# such hits charge their real pending-fill stall instead of collapsing.
# Hit/miss/TLB counters are unchanged.
GOLDEN_CYCLES = 30236.800000003852
#: full/delta split of the golden simulations (a delta shares an earlier
#: simulation's base IR), and the same with the model prescreen on: the
#: model builds through the engine's base-IR cache, never its accounting
GOLDEN_SPLIT = (40, 11)
GOLDEN_PRESCREEN = {"simulations": 36, "full": 25, "delta": 11, "skips": 16}


@pytest.fixture(scope="module")
def tuned():
    machine = get_machine("sgi")  # the paper's SGI Octane R10K, scaled
    engine = EvalEngine(machine)
    optimizer = EcoOptimizer(
        matmul(), machine, SearchConfig(full_search_variants=2), engine=engine
    )
    result = optimizer.optimize({"N": 24}).result
    return result, engine


class TestMmSearchGolden:
    def test_winning_configuration(self, tuned):
        result, _ = tuned
        assert result.variant.name == "v9"
        assert result.values == GOLDEN_VALUES
        assert {(s.array, s.loop): d for s, d in result.prefetch.items()} == (
            GOLDEN_PREFETCH
        )
        assert result.pads == {}

    def test_search_cost_accounting(self, tuned):
        result, engine = tuned
        assert result.points == GOLDEN_POINTS
        assert result.stats["simulations"] == GOLDEN_POINTS
        assert engine.stats.simulations == GOLDEN_POINTS
        assert (engine.stats.full_sims, engine.stats.delta_sims) == GOLDEN_SPLIT
        assert result.machine_seconds == pytest.approx(0.0135, rel=1e-2)

    def test_best_cycles_and_counters(self, tuned):
        result, _ = tuned
        assert result.cycles == pytest.approx(GOLDEN_CYCLES, rel=1e-12)
        counters = result.counters
        assert counters.loads == 9792
        assert counters.l1_misses == 1129
        assert counters.l2_misses == 216
        assert counters.tlb_misses == 9

    def test_history_is_monotone_argmin(self, tuned):
        """The recorded best is genuinely the min over every visited point."""
        result, _ = tuned
        assert len(result.history) == GOLDEN_POINTS
        assert min(cycles for _, _, cycles in result.history) == result.cycles


def test_prescreen_search_split_and_winner():
    machine = get_machine("sgi")
    engine = EvalEngine(machine)
    optimizer = EcoOptimizer(
        matmul(), machine,
        SearchConfig(full_search_variants=2, prescreen=True), engine=engine,
    )
    result = optimizer.optimize({"N": 24}).result
    engine.close()
    assert result.values == GOLDEN_VALUES
    assert result.cycles == pytest.approx(GOLDEN_CYCLES, rel=1e-12)
    stats = engine.stats
    assert {
        "simulations": stats.simulations,
        "full": stats.full_sims,
        "delta": stats.delta_sims,
        "skips": stats.prescreen_skips,
    } == GOLDEN_PRESCREEN
