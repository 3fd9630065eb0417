"""Worker-supervision tests: retries, timeouts, pool care, chaos parity.

The contract under test (docs/robustness.md): supervision affects wall
time and accounting only, never results.  A search under injected
transient faults — raises, hangs, corrupted counters, killed workers —
must converge to the byte-identical best of a fault-free run, serially
and in parallel, and the recovery work must be visible in the stats.
"""

from __future__ import annotations

import math

import pytest

from repro.core import GuidedSearch, SearchConfig, derive_variants
from repro.eval import EvalEngine, EvalPolicy, EvalRequest
from repro.faults import FaultPlan, FaultSpec
from repro.kernels import matmul
from repro.machines import get_machine

SGI = get_machine("sgi")

#: every fault kind at once, gone after one retry (attempts=1), no real
#: sleeping so the suite stays fast
CHAOS = FaultPlan(
    specs=(
        FaultSpec("raise", 0.20),
        FaultSpec("corrupt", 0.10),
        FaultSpec("hang", 0.10),
        FaultSpec("kill", 0.05),
    ),
    seed=7,
    hang_seconds=0.0,
)


@pytest.fixture(scope="module")
def mm_variants():
    return derive_variants(matmul(), SGI)


def _requests(variants, n=12):
    kernel = matmul()
    helper = GuidedSearch(kernel, SGI, {"N": 16})
    reqs = []
    for variant in variants:
        values = helper.initial_values(variant)
        reqs.append(EvalRequest.build(kernel, variant, values, {"N": 16}))
        doubled = {k: 2 * v for k, v in values.items()}
        reqs.append(EvalRequest.build(kernel, variant, doubled, {"N": 16}))
        if len(reqs) >= n:
            break
    return reqs[:n]


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EvalPolicy(timeout_seconds=0)
        with pytest.raises(ValueError):
            EvalPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            EvalPolicy(max_pool_restarts=-1)

    def test_defaults_are_benign(self):
        policy = EvalPolicy()
        assert policy.timeout_seconds is None
        assert policy.max_retries == 2


class TestSerialChaos:
    def test_faulted_run_matches_clean(self, mm_variants):
        reqs = _requests(mm_variants)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        chaotic_engine = EvalEngine(SGI, fault_plan=CHAOS)
        chaotic = chaotic_engine.evaluate_batch(reqs)
        assert [(o.cycles, o.status) for o in chaotic] == [
            (o.cycles, o.status) for o in clean
        ]
        stats = chaotic_engine.stats
        assert stats.retries > 0  # the plan actually fired
        assert stats.transient_failures == 0  # ...and every retry recovered

    def test_hang_counts_as_timeout_serially(self, mm_variants):
        plan = FaultPlan(specs=(FaultSpec("hang", 1.0),), seed=0, hang_seconds=0.0)
        engine = EvalEngine(SGI, fault_plan=plan)
        outcome = engine.evaluate_batch(_requests(mm_variants, n=1))[0]
        assert outcome.status == "ok"  # retry succeeded
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 1

    def test_corrupt_results_are_caught_and_retried(self, mm_variants):
        plan = FaultPlan(specs=(FaultSpec("corrupt", 1.0),), seed=0)
        engine = EvalEngine(SGI, fault_plan=plan)
        clean = EvalEngine(SGI).evaluate_batch(_requests(mm_variants, n=3))
        chaotic = engine.evaluate_batch(_requests(mm_variants, n=3))
        assert [o.cycles for o in chaotic] == [o.cycles for o in clean]
        assert engine.stats.corrupt_results == 3
        assert engine.stats.retries == 3

    def test_exhausted_retries_become_transient_not_cached(self, mm_variants):
        # A fault that outlives the retry budget: attempts=5 > max_retries=1.
        plan = FaultPlan(specs=(FaultSpec("raise", 1.0, attempts=5),), seed=0)
        engine = EvalEngine(SGI, fault_plan=plan, policy=EvalPolicy(max_retries=1))
        reqs = _requests(mm_variants, n=1)
        outcome = engine.evaluate_batch(reqs)[0]
        assert outcome.status == "transient"
        assert not outcome.feasible
        assert engine.stats.transient_failures == 1
        # never cached: nothing in memory, so a revisit re-attempts
        assert engine.cache.get_memory(outcome.key) is None
        # ...and with the fault gone (attempt window passed after retries
        # bumped the counter high enough), the same engine can succeed later
        recovered = EvalEngine(SGI, fault_plan=None).evaluate_batch(reqs)[0]
        assert recovered.status == "ok"

    def test_retry_accounting_appears_in_metrics(self, mm_variants):
        plan = FaultPlan(specs=(FaultSpec("raise", 1.0),), seed=0)
        engine = EvalEngine(SGI, fault_plan=plan)
        engine.evaluate_batch(_requests(mm_variants, n=2))
        assert engine.metrics.counter("eval.retries").value == 2


class TestParallelChaos:
    def test_kill_faults_break_and_restart_the_pool(self, mm_variants):
        reqs = _requests(mm_variants)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        plan = FaultPlan(
            specs=(FaultSpec("kill", 0.25), FaultSpec("raise", 0.25)), seed=11
        )
        with EvalEngine(SGI, jobs=3, fault_plan=plan) as engine:
            chaotic = engine.evaluate_batch(reqs)
            assert [(o.cycles, o.status) for o in chaotic] == [
                (o.cycles, o.status) for o in clean
            ]
            assert engine.stats.pool_restarts > 0

    def test_pool_breaks_exhaust_into_serial_fallback(self, mm_variants):
        reqs = _requests(mm_variants)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        # Workers die persistently (attempts high), so the pool keeps
        # breaking until the engine degrades to serial — where the kill
        # fault raises WorkerKilled and the retry budget resolves it.
        plan = FaultPlan(specs=(FaultSpec("kill", 0.5, attempts=2),), seed=3)
        policy = EvalPolicy(max_retries=3, max_pool_restarts=1)
        with EvalEngine(SGI, jobs=2, fault_plan=plan, policy=policy) as engine:
            chaotic = engine.evaluate_batch(reqs)
            assert engine._serial_fallback
            assert [o.cycles for o in chaotic] == [o.cycles for o in clean]
            assert engine.metrics.counter("eval.serial_fallbacks").value == 1

    def test_real_timeout_abandons_hung_candidate(self, mm_variants):
        # One candidate hangs for much longer than the timeout, every
        # attempt (attempts high): supervision must abandon it (timeout),
        # exhaust its retries, and still finish the rest of the batch.
        reqs = _requests(mm_variants, n=4)
        plan = FaultPlan(
            specs=(FaultSpec("hang", 0.30, attempts=10),), seed=5, hang_seconds=30.0
        )
        keys = [EvalEngine(SGI)._key_of(r) for r in reqs]
        hung = [k for k in keys if plan.decide(k, 0) == "hang"]
        assert hung, "seed must hang at least one candidate for this test"
        policy = EvalPolicy(timeout_seconds=1.0, max_retries=1)
        with EvalEngine(SGI, jobs=2, fault_plan=plan, policy=policy) as engine:
            outcomes = engine.evaluate_batch(reqs)
            by_key = {o.key: o for o in outcomes}
            for key in keys:
                if key in hung:
                    assert by_key[key].status == "transient"
                else:
                    assert by_key[key].status == "ok"
            assert engine.stats.timeouts >= 1
            assert engine.stats.transient_failures == len(hung)


class TestGuidedSearchChaos:
    def test_search_under_chaos_matches_clean_serial(self):
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=2)
        clean = GuidedSearch(kernel, SGI, {"N": 16}, config).run(variants)
        engine = EvalEngine(SGI, fault_plan=CHAOS)
        chaotic = GuidedSearch(
            kernel, SGI, {"N": 16}, config, engine=engine
        ).run(variants)
        assert chaotic.variant.name == clean.variant.name
        assert chaotic.values == clean.values
        assert chaotic.prefetch == clean.prefetch
        assert chaotic.cycles == clean.cycles
        assert chaotic.history == clean.history
        assert engine.stats.retries > 0

    def test_search_under_chaos_matches_clean_parallel(self):
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=2)
        clean = GuidedSearch(kernel, SGI, {"N": 16}, config).run(variants)
        plan = FaultPlan(
            specs=(FaultSpec("kill", 0.15), FaultSpec("raise", 0.2)), seed=7
        )
        with EvalEngine(SGI, jobs=3, fault_plan=plan) as engine:
            chaotic = GuidedSearch(
                kernel, SGI, {"N": 16}, config, engine=engine
            ).run(variants)
            assert chaotic.variant.name == clean.variant.name
            assert chaotic.values == clean.values
            assert chaotic.cycles == clean.cycles

    def test_recovery_visible_in_trace_summary(self):
        # A traced chaos search must render its recovery work in the
        # summary, and a clean trace must not grow a supervision line.
        from repro.obs import Tracer, render_summary, supervision_totals

        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=1)

        def traced(fault_plan):
            tracer = Tracer()
            engine = EvalEngine(SGI, fault_plan=fault_plan, tracer=tracer)
            with tracer.span("search"):
                GuidedSearch(
                    kernel, SGI, {"N": 16}, config, engine=engine
                ).run(variants)
            tracer.snapshot_metrics(engine.metrics)
            return tracer.events()

        chaos_events = traced(CHAOS)
        recovery = supervision_totals(chaos_events)
        assert recovery.get("eval.retries", 0) > 0
        assert "supervision: " in render_summary(chaos_events)
        clean_events = traced(None)
        assert supervision_totals(clean_events) == {}
        assert "supervision" not in render_summary(clean_events)
