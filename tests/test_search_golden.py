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

import hashlib
import json

import pytest

from repro.analysis.learned import train_ranker
from repro.core import EcoOptimizer, SearchConfig
from repro.eval import EvalEngine
from repro.kernels import matmul
from repro.machines import get_machine
from repro.obs import Tracer, canonical
from repro.obs.corpus import flatten_trace

GOLDEN_VALUES = {"TI": 8, "TK": 12, "UI": 8, "UJ": 2}
GOLDEN_PREFETCH = {("A", "K"): 2, ("B", "K"): 2}
GOLDEN_POINTS = 51
# 30774.4 before the demand-collapse fix: a demand hit following a
# prefetch now replays (the prefetch's insert can change the set), so
# such hits charge their real pending-fill stall instead of collapsing.
# Hit/miss/TLB counters are unchanged.
GOLDEN_CYCLES = 30236.800000003852
#: full/delta split of the golden simulations (a delta differs from an
#: earlier simulation only in prefetch and pads), and the same with the
#: model prescreen on: the model builds through the engine's recipe
#: shapes, never its accounting
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


#: the golden search's full trajectory, pinned plain, with the prescreen
#: on, and with a learned ranker trained (seed 0) from the plain run's
#: trace: ``SearchResult.history`` length and sha256, the simulation/skip
#: counts, and the sha256 of the canonical trace.  The counts and winner
#: alone would survive a reordered climb; these would not.
GOLDEN_TRAJECTORIES = {
    "plain": {
        "history": (51, "213f134fe352adb8e55a51394bad1d4b0e499a8b0635aeb7472d1f47e5504eb5"),
        "counts": {"simulations": 51, "full": 40, "delta": 11,
                   "prescreen_skips": 0, "ranker_skips": 0},
        "trace": "9514bbde07ee09f0e6f5c2fed3638e3a6752b0144e873890379f0cae25aeaef3",
    },
    "prescreen": {
        "history": (36, "74a62a5d20989954e34f132e460ac6a32dba0df147c063aafa7d451f40bc9d4e"),
        "counts": {"simulations": 36, "full": 25, "delta": 11,
                   "prescreen_skips": 16, "ranker_skips": 0},
        "trace": "4523d8fc54df98aa17bd7695c75489fe8a58a420eb4462146a11cb970d85d705",
    },
    "ranker": {
        "history": (28, "85aa71b3007e072c3d75d5e609c994de6f5756bf626205e26e9a96763ec32df9"),
        "counts": {"simulations": 28, "full": 17, "delta": 11,
                   "prescreen_skips": 0, "ranker_skips": 25},
        "trace": "0e571d1dac6be4abdb7e1347a4d278c56113507da700b93003077283382a5d85",
    },
}


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _traced_golden_search(**config):
    machine = get_machine("sgi")
    tracer = Tracer(kernel="mm", machine="sgi", size=24)
    with EvalEngine(machine, tracer=tracer) as engine:
        result = EcoOptimizer(
            matmul(), machine,
            SearchConfig(full_search_variants=2, **config), engine=engine,
        ).optimize({"N": 24}).result
        stats = engine.stats
    return result, stats, tracer


@pytest.fixture(scope="module")
def trajectories():
    plain = _traced_golden_search()
    ranker = train_ranker(flatten_trace(plain[2].events()), "mm", "sgi", seed=0)
    return {
        "plain": plain,
        "prescreen": _traced_golden_search(prescreen=True),
        "ranker": _traced_golden_search(ranker=ranker),
    }


@pytest.mark.parametrize("mode", sorted(GOLDEN_TRAJECTORIES))
def test_search_trajectory_is_pinned(trajectories, mode):
    result, stats, tracer = trajectories[mode]
    golden = GOLDEN_TRAJECTORIES[mode]
    assert result.values == GOLDEN_VALUES
    assert (len(result.history), _sha256_json(result.history)) == golden["history"]
    assert {
        "simulations": stats.simulations,
        "full": stats.full_sims,
        "delta": stats.delta_sims,
        "prescreen_skips": stats.prescreen_skips,
        "ranker_skips": stats.ranker_skips,
    } == golden["counts"]
    assert _sha256_json(canonical(tracer.events())) == golden["trace"]


#: summed ``sim`` attrs of the plain golden search's eval events: one
#: fused batch per simulation, and fewer pass-2 timing events than
#: accesses.  The scalar reference (``execute(..., reference=True)``)
#: replays every access and records no batches, collapses or timing
#: events, so a fast path that silently falls back to it fails here.
GOLDEN_SIM_ACCOUNTING = {
    "accesses": 811_506,
    "batches": 51,
    "collapsed": 673_919,
    "timing_events": 67_699,
}


def test_simulator_accounting_is_pinned(trajectories):
    _, stats, tracer = trajectories["plain"]
    totals = dict.fromkeys(GOLDEN_SIM_ACCOUNTING, 0)
    for event in tracer.events():
        if event["type"] == "event" and event["name"] == "eval":
            for name, value in event["attrs"].get("sim", {}).items():
                totals[name] += value
    assert totals == GOLDEN_SIM_ACCOUNTING
    assert totals["batches"] == stats.simulations
    assert totals["timing_events"] < totals["accesses"]
