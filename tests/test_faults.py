"""Chaos-harness tests: plan determinism, attempt gating, what each fault
does, and the CI chaos scenarios at a smaller size.

The chaos tests (test_supervision.py, test_storage.py, the CI chaos job)
only mean something if the harness itself is trustworthy: the same plan
must fire the same faults at the same candidates every run, faults must
stop firing once a candidate has been attempted enough times (so
retries converge), and each fault must surface as a failure the engine
meets for real.
"""

from __future__ import annotations

import math

import pytest

from repro.core import GuidedSearch, derive_variants
from repro.eval import EvalEngine, EvalRequest
from repro.eval.engine import _result_is_corrupt
from repro.kernels import matmul
from repro.machines import get_machine
from tests.chaos import (
    InjectedHang,
    InjectedTransientError,
    WorkerFaultPlan,
    WorkerKilled,
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
            WorkerFaultPlan((("raise", 1.5),))
        with pytest.raises(ValueError):
            WorkerFaultPlan((("raise", -0.1),))

    def test_rejects_bad_attempts(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan((("raise", 0.1),), attempts=0)


class TestDecide:
    def test_deterministic(self):
        plan = WorkerFaultPlan((("raise", 0.5),), seed=3)
        keys = [f"cand-{i}" for i in range(200)]
        first = [plan.decide(k, 0) for k in keys]
        second = [plan.decide(k, 0) for k in keys]
        assert first == second
        assert any(d == "raise" for d in first)
        assert any(d is None for d in first)

    def test_seed_changes_selection(self):
        keys = [f"cand-{i}" for i in range(200)]
        a = [WorkerFaultPlan((("raise", 0.5),), seed=1).decide(k, 0) for k in keys]
        b = [WorkerFaultPlan((("raise", 0.5),), seed=2).decide(k, 0) for k in keys]
        assert a != b

    def test_rate_roughly_respected(self):
        plan = WorkerFaultPlan((("raise", 0.25),), seed=0)
        hits = sum(
            1 for i in range(1000) if plan.decide(f"k{i}", 0) == "raise"
        )
        assert 150 < hits < 350

    def test_attempt_gating_defaults_to_one(self):
        plan = WorkerFaultPlan((("raise", 1.0),), seed=0)
        assert plan.decide("key", 0) == "raise"
        assert plan.decide("key", 1) is None  # the retry succeeds

    def test_persistent_fault_fires_for_n_attempts(self):
        plan = WorkerFaultPlan((("raise", 1.0),), seed=0, attempts=3)
        assert [plan.decide("key", a) for a in range(4)] == [
            "raise", "raise", "raise", None,
        ]

    def test_cumulative_rates_partition_the_draw(self):
        plan = WorkerFaultPlan((("raise", 0.5), ("hang", 0.5)), seed=0)
        kinds = {plan.decide(f"k{i}", 0) for i in range(300)}
        assert kinds == {"raise", "hang"}  # total rate 1.0: every key faults


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

    def _run(self, kind, attempt=0):
        plan = WorkerFaultPlan(((kind, 1.0),), seed=0)
        with worker_faults(plan):
            return faulty_simulate(_payload(attempt))

    def test_raise_kind(self):
        with pytest.raises(InjectedTransientError):
            self._run("raise")
        assert issubclass(InjectedTransientError, OSError)

    def test_hang_kind_raises_after_sleep(self):
        with pytest.raises(InjectedHang):
            self._run("hang")

    def test_kill_kind_serial_raises_instead_of_exiting(self):
        with pytest.raises(WorkerKilled):
            self._run("kill")

    def test_corrupt_kind_returned_to_caller(self):
        status, cycles, counters = self._run("corrupt")
        assert status == "ok"
        assert _result_is_corrupt(cycles, counters)

    def test_no_fault_returns_none(self):
        # past its attempt window the plan draws no fault, and the
        # wrapper returns the real simulation's result
        assert WorkerFaultPlan((("raise", 1.0),)).decide("key", 5) is None
        status, cycles, counters = self._run("raise", attempt=5)
        assert status == "ok" and math.isfinite(cycles)
        assert cycles == counters.cycles


class TestCIScenarios:
    """The CI chaos job runs these at the golden size (N=24)."""

    def test_tune_survives_worker_faults(self):
        assert_tune_survives_worker_faults(size=16)

    def test_tune_survives_storage_faults(self, tmp_path):
        assert_tune_survives_storage_faults(tmp_path, size=16)
