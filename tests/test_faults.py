"""Chaos-harness tests: plan determinism, attempt gating, what each fault
does, and the CI chaos scenarios at a smaller size.

The chaos tests (test_supervision.py, test_storage.py, the CI chaos job)
only mean something if the harness itself is trustworthy: the same plan
must fire the same faults at the same candidates every run, faults must
stop firing once a candidate has been attempted enough times (so a
re-dispatched candidate runs clean), and each fault must surface as a
failure the engine meets for real.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.core import GuidedSearch, derive_variants
from repro.eval import EvalEngine, EvalRequest
from repro.kernels import matmul
from repro.machines import get_machine
from tests.chaos import (
    WorkerFaultPlan,
    assert_tune_survives_storage_faults,
    assert_tune_survives_worker_faults,
    faulty_simulate,
    worker_faults,
)

SGI = get_machine("sgi")


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan((("explode", 0.1),))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan((("oom", 1.5),))
        with pytest.raises(ValueError):
            WorkerFaultPlan((("oom", -0.1),))

    def test_rejects_bad_attempts(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan((("oom", 0.1),), attempts=0)


class TestDecide:
    def test_deterministic(self):
        plan = WorkerFaultPlan((("oom", 0.5),), seed=3)
        keys = [f"cand-{i}" for i in range(200)]
        first = [plan.decide(k, 0) for k in keys]
        second = [plan.decide(k, 0) for k in keys]
        assert first == second
        assert any(d == "oom" for d in first)
        assert any(d is None for d in first)

    def test_seed_changes_selection(self):
        keys = [f"cand-{i}" for i in range(200)]
        a = [WorkerFaultPlan((("oom", 0.5),), seed=1).decide(k, 0) for k in keys]
        b = [WorkerFaultPlan((("oom", 0.5),), seed=2).decide(k, 0) for k in keys]
        assert a != b

    def test_rate_roughly_respected(self):
        plan = WorkerFaultPlan((("oom", 0.25),), seed=0)
        hits = sum(
            1 for i in range(1000) if plan.decide(f"k{i}", 0) == "oom"
        )
        assert 150 < hits < 350

    def test_attempt_gating_defaults_to_one(self):
        plan = WorkerFaultPlan((("oom", 1.0),), seed=0)
        assert plan.decide("key", 0) == "oom"
        assert plan.decide("key", 1) is None  # a re-dispatch runs clean

    def test_persistent_fault_fires_for_n_attempts(self):
        plan = WorkerFaultPlan((("oom", 1.0),), seed=0, attempts=3)
        assert [plan.decide("key", a) for a in range(4)] == [
            "oom", "oom", "oom", None,
        ]

    def test_cumulative_rates_partition_the_draw(self):
        plan = WorkerFaultPlan((("oom", 0.5), ("hang", 0.5)), seed=0)
        kinds = {plan.decide(f"k{i}", 0) for i in range(300)}
        assert kinds == {"oom", "hang"}  # total rate 1.0: every key faults


def _payload(attempt: int = 0):
    """The payload the engine passes ``_simulate`` for one candidate."""
    kernel = matmul()
    variant = derive_variants(kernel, SGI)[0]
    values = GuidedSearch(kernel, SGI, {"N": 16}).initial_values(variant)
    request = EvalRequest.build(kernel, variant, values, {"N": 16})
    engine = EvalEngine(SGI)
    key = engine._key_of(request)
    return (*engine._payload_of(request), key, attempt)


class TestApply:
    """Each fault surfaces as a failure the engine handles for real."""

    def _run(self, kind, attempt=0, hang_seconds=0.0):
        plan = WorkerFaultPlan(((kind, 1.0),), seed=0, hang_seconds=hang_seconds)
        with worker_faults(plan):
            return faulty_simulate(_payload(attempt))

    def _assert_clean(self, result):
        """``result`` is the fault-free simulation's (sim_seconds aside)."""
        status, cycles, counters = faulty_simulate(_payload())
        assert result[:2] == (status, cycles) == ("ok", counters.cycles)
        assert result[2].loads == counters.loads

    def test_oom_kind_raises_memory_error(self):
        with pytest.raises(MemoryError):
            self._run("oom")

    def test_hang_kind_only_sleeps(self):
        start = time.perf_counter()
        result = self._run("hang", hang_seconds=0.2)
        assert time.perf_counter() - start >= 0.2
        self._assert_clean(result)

    def test_kill_kind_is_a_no_op_in_process(self):
        # an exit here would end the test run; only a pool worker dies
        self._assert_clean(self._run("kill"))

    def test_no_fault_returns_none(self):
        # past its attempt window the plan draws no fault, and the
        # wrapper returns the real simulation's result
        assert WorkerFaultPlan((("oom", 1.0),)).decide("key", 5) is None
        status, cycles, counters = self._run("oom", attempt=5)
        assert status == "ok" and math.isfinite(cycles)
        assert cycles == counters.cycles


class TestCIScenarios:
    """The CI chaos job runs these at the golden size (N=24)."""

    def test_tune_survives_worker_faults(self):
        assert_tune_survives_worker_faults(size=16)

    def test_tune_survives_storage_faults(self, tmp_path):
        assert_tune_survives_storage_faults(tmp_path, size=16)
