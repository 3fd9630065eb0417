"""Worker-supervision tests: pool restarts, timeouts, OOMs, chaos parity.

The contract under test (docs/robustness.md): a simulation is
deterministic, so the engine supervises only what the environment does
to an attempt.  A dead worker costs wall time only: the pool restarts,
its candidates run again, and past ``MAX_POOL_RESTARTS`` the engine runs
serially — a search under killed workers converges to the byte-identical
best of a fault-free run.  A timeout or a ``MemoryError`` makes its
candidate transient at once, never cached; every other error propagates.
The faults come from ``tests/chaos.py``, installed around the engine's
per-attempt ``_simulate`` call in this process and in pool workers.
"""

from __future__ import annotations

import pytest

from repro.core import GuidedSearch, SearchConfig, derive_variants
from repro.eval import EvalEngine, EvalRequest, ResultCache
from repro.eval import engine as engine_module
from repro.kernels import matmul
from repro.machines import get_machine
from tests.chaos import WorkerFaultPlan, worker_faults

SGI = get_machine("sgi")

#: a fifth of the candidates run out of memory on their first attempt
OOM = WorkerFaultPlan((("oom", 0.2),), seed=7)


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


def _raise_timeout(payload):
    """A simulation that raises its own TimeoutError (module-level, so a
    pool worker can unpickle it as the engine's ``_simulate``)."""
    raise TimeoutError("the simulation's own TimeoutError")


class TestPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EvalEngine(SGI, timeout=0)
        with pytest.raises(ValueError):
            EvalEngine(SGI, timeout=-1.0)

    def test_defaults_are_benign(self):
        assert EvalEngine(SGI).timeout is None
        assert engine_module.MAX_POOL_RESTARTS == 3


class TestSerialChaos:
    def test_faulted_run_matches_clean(self, mm_variants):
        # in-process a kill does nothing and a hang only sleeps, so a
        # serial run under both is the clean run, with nothing supervised
        reqs = _requests(mm_variants)
        plan = WorkerFaultPlan((("hang", 0.3), ("kill", 0.3)), seed=7)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        engine = EvalEngine(SGI)
        with worker_faults(plan):
            chaotic = engine.evaluate_batch(reqs)
        assert {plan.decide(o.key, 0) for o in chaotic} == {"hang", "kill", None}
        assert [(o.cycles, o.status) for o in chaotic] == [
            (o.cycles, o.status) for o in clean
        ]
        assert engine.stats.retries == engine.stats.transient_failures == 0

    def test_oom_is_transient_at_once_and_not_cached(self, mm_variants):
        plan = WorkerFaultPlan((("oom", 1.0),), seed=0)
        engine = EvalEngine(SGI)
        reqs = _requests(mm_variants, n=1)
        with worker_faults(plan):
            outcome = engine.evaluate_batch(reqs)[0]
        assert outcome.status == "transient"
        assert not outcome.feasible
        assert engine.stats.transient_failures == 1
        assert engine.stats.retries == 0  # not retried
        # never cached: nothing in memory, so a revisit re-attempts
        assert engine.cache.get_memory(outcome.key) is None
        recovered = engine.evaluate_batch(reqs)[0]
        assert (recovered.status, recovered.source) == ("ok", "sim")

    def test_transient_accounting_appears_in_metrics(self, mm_variants):
        plan = WorkerFaultPlan((("oom", 1.0),), seed=0)
        engine = EvalEngine(SGI)
        with worker_faults(plan):
            engine.evaluate_batch(_requests(mm_variants, n=2))
        assert engine.metrics.counter("eval.transient_failures").value == 2
        assert engine.metrics.counter("eval.retries").value == 0

    def test_other_errors_propagate(self, mm_variants, monkeypatch):
        # an OSError from a deterministic simulation is a bug, not weather
        def raise_oserror(payload):
            raise OSError("not a transient failure")

        monkeypatch.setattr(engine_module, "_simulate", raise_oserror)
        engine = EvalEngine(SGI)
        with pytest.raises(OSError, match="not a transient"):
            engine.evaluate_batch(_requests(mm_variants, n=1))
        assert engine.stats.transient_failures == 0


def _assert_pool_survives_kills(reqs, start_method=None):
    clean = EvalEngine(SGI).evaluate_batch(reqs)
    plan = WorkerFaultPlan((("kill", 0.25),), seed=11)
    with worker_faults(plan, start_method), EvalEngine(SGI, jobs=3) as engine:
        chaotic = engine.evaluate_batch(reqs)
        assert [(o.cycles, o.status) for o in chaotic] == [
            (o.cycles, o.status) for o in clean
        ]
        assert engine.stats.pool_restarts > 0


class TestParallelChaos:
    def test_kill_faults_break_and_restart_the_pool(self, mm_variants):
        _assert_pool_survives_kills(_requests(mm_variants))

    def test_kill_faults_restart_a_spawn_pool(self, mm_variants):
        # no spawned worker inherits this process's state: the faults
        # reach the workers through the pool initializer alone
        _assert_pool_survives_kills(_requests(mm_variants), "spawn")

    def test_pool_breaks_exhaust_into_serial_fallback(self, mm_variants, monkeypatch):
        reqs = _requests(mm_variants)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        # Workers die persistently (attempts high), so the pool keeps
        # breaking until the engine degrades to serial — where a kill
        # fault does nothing and every candidate simulates.
        plan = WorkerFaultPlan((("kill", 0.5),), seed=3, attempts=2)
        monkeypatch.setattr(engine_module, "MAX_POOL_RESTARTS", 1)
        with worker_faults(plan), EvalEngine(SGI, jobs=2) as engine:
            chaotic = engine.evaluate_batch(reqs)
            assert engine._serial_fallback
            assert [o.cycles for o in chaotic] == [o.cycles for o in clean]
            assert engine.metrics.counter("eval.serial_fallbacks").value == 1

    def test_oom_in_a_worker_is_transient(self, mm_variants):
        reqs = _requests(mm_variants)
        clean = EvalEngine(SGI).evaluate_batch(reqs)
        with worker_faults(OOM), EvalEngine(SGI, jobs=2) as engine:
            chaotic = engine.evaluate_batch(reqs)
            faulted = [OOM.decide(o.key, 0) == "oom" for o in chaotic]
            assert any(faulted) and not all(faulted)
            for outcome, before, oom in zip(chaotic, clean, faulted):
                if oom:
                    assert outcome.status == "transient"
                    assert engine.cache.get_memory(outcome.key) is None
                else:
                    assert (outcome.cycles, outcome.status) == (
                        before.cycles, before.status
                    )
            assert engine.stats.transient_failures == sum(faulted)
            assert engine.stats.pool_restarts == engine.stats.retries == 0

    def test_real_timeout_abandons_hung_candidate(self, mm_variants):
        # One candidate hangs for much longer than the timeout, every
        # attempt (attempts high): supervision must abandon it at once
        # (transient, never cached), kill its wedged worker, and still
        # finish the rest of the batch.
        reqs = _requests(mm_variants, n=4)
        plan = WorkerFaultPlan(
            (("hang", 0.30),), seed=5, attempts=10, hang_seconds=30.0
        )
        keys = [EvalEngine(SGI)._key_of(r) for r in reqs]
        hung = [k for k in keys if plan.decide(k, 0) == "hang"]
        assert hung, "seed must hang at least one candidate for this test"
        with worker_faults(plan) as pools, \
                EvalEngine(SGI, jobs=2, timeout=1.0) as engine:
            outcomes = engine.evaluate_batch(reqs)
            discarded = [worker for pool in pools if pool is not engine._pool
                         for worker in pool.workers]
            assert discarded, "the hung candidate's pool must be discarded"
            assert not any(worker.is_alive() for worker in discarded)
            by_key = {o.key: o for o in outcomes}
            for key in keys:
                if key in hung:
                    assert by_key[key].status == "transient"
                    assert engine.cache.get_memory(key) is None
                else:
                    assert by_key[key].status == "ok"
            assert engine.stats.timeouts >= 1
            assert engine.stats.transient_failures == len(hung)

    def test_timeout_error_from_a_worker_propagates(self, mm_variants, monkeypatch):
        # From Python 3.11 the simulation's own TimeoutError is the class
        # a timed-out wait raises; it must surface as the bug it is, not
        # be counted as a timeout.
        monkeypatch.setattr(engine_module, "_simulate", _raise_timeout)
        with EvalEngine(SGI, jobs=2, timeout=60.0) as engine:
            with pytest.raises(TimeoutError, match="simulation's own"):
                engine.evaluate_batch(_requests(mm_variants, n=2))
            assert engine.stats.timeouts == 0
            assert engine.metrics.counter("eval.pool_recycles").value == 0


class TestGuidedSearchChaos:
    def test_search_under_oom_faults_then_clean_rerun(self, tmp_path):
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=2)
        clean = GuidedSearch(kernel, SGI, {"N": 16}, config).run(variants)
        cache = ResultCache(tmp_path / "cache")
        engine = EvalEngine(SGI, cache=cache)
        outcomes = []
        evaluate_batch = engine.evaluate_batch

        def recording(requests):
            batch = evaluate_batch(requests)
            outcomes.extend(batch)
            return batch

        engine.evaluate_batch = recording
        with worker_faults(OOM):
            GuidedSearch(kernel, SGI, {"N": 16}, config, engine=engine).run(variants)
        faulted = [o for o in outcomes if OOM.decide(o.key, 0) == "oom"]
        assert faulted, "the plan must fault some candidate of the search"
        assert [o for o in outcomes if o.transient] == faulted
        for outcome in faulted:
            assert cache.get_memory(outcome.key) is None
            assert cache.get_disk(outcome.key) is None
        # run again over the same cache, the environment healthy
        rerun_engine = EvalEngine(SGI, cache=ResultCache(tmp_path / "cache"))
        rerun = GuidedSearch(
            kernel, SGI, {"N": 16}, config, engine=rerun_engine
        ).run(variants)
        assert rerun.variant.name == clean.variant.name
        assert rerun.values == clean.values
        assert rerun.prefetch == clean.prefetch
        assert rerun.cycles == clean.cycles
        assert rerun.history == clean.history
        assert rerun_engine.stats.disk_hits > 0

    def test_search_under_chaos_matches_clean_parallel(self):
        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=2)
        clean = GuidedSearch(kernel, SGI, {"N": 16}, config).run(variants)
        plan = WorkerFaultPlan((("kill", 0.15),), seed=7)
        with worker_faults(plan), EvalEngine(SGI, jobs=3) as engine:
            chaotic = GuidedSearch(
                kernel, SGI, {"N": 16}, config, engine=engine
            ).run(variants)
            assert chaotic.variant.name == clean.variant.name
            assert chaotic.values == clean.values
            assert chaotic.cycles == clean.cycles

    def test_recovery_visible_in_trace_summary(self):
        # A traced chaos search must render its supervision work in the
        # summary, and a clean trace must not grow a supervision line.
        from repro.obs import Tracer, render_summary, supervision_totals

        kernel = matmul()
        variants = derive_variants(kernel, SGI)
        config = SearchConfig(full_search_variants=1)

        def traced():
            tracer = Tracer()
            engine = EvalEngine(SGI, tracer=tracer)
            with tracer.span("search"):
                GuidedSearch(
                    kernel, SGI, {"N": 16}, config, engine=engine
                ).run(variants)
            tracer.snapshot_metrics(engine.metrics)
            return tracer.events()

        with worker_faults(OOM):
            chaos_events = traced()
        recovery = supervision_totals(chaos_events)
        assert recovery.get("eval.transient_failures", 0) > 0
        assert "supervision: " in render_summary(chaos_events)
        clean_events = traced()
        assert supervision_totals(clean_events) == {}
        assert "supervision" not in render_summary(clean_events)
