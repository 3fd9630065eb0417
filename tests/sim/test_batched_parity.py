"""``execute_batch`` is a per-candidate loop over ``execute``.

Its contract: one result per ``(kernel, params)`` task, in input order,
each equal to that candidate's own ``execute`` counters — counts, cycles
and stalls bitwise, since both run the same code on the same event
stream.  Only the host timing (``sim_seconds``) may differ.  ``execute``
against the scalar reference is pinned by ``tests/test_sim_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.machines import MACHINES
from repro.sim.executor import execute, execute_batch

from tests.test_sim_parity import ALL_MACHINES, _golden_mm, _kernel_cases

_CASES = list(_kernel_cases())


def _assert_per_candidate(tasks, batch, machine) -> None:
    assert len(batch) == len(tasks)
    for (kernel, params), got in zip(tasks, batch):
        want = execute(kernel, params, machine)
        got.sim_seconds = want.sim_seconds
        assert got == want


class TestExecuteBatchParity:
    """Whole kernels: execute_batch vs per-candidate execute (bitwise)."""

    @pytest.mark.parametrize("machine_name", ALL_MACHINES)
    def test_kernel_set_matches_execute_bitwise(self, machine_name):
        machine = MACHINES[machine_name]
        tasks = [(kernel, params) for _, kernel, params in _CASES]
        _assert_per_candidate(tasks, execute_batch(tasks, machine), machine)

    def test_prefetch_ladder_batch(self):
        """The delta-evaluation shape: one base, several prefetch
        distances, in one batch."""
        machine = MACHINES["sgi-r10k"]
        tasks = [(_golden_mm(), {"N": 48}), (_golden_mm(4, 2), {"N": 48})]
        _assert_per_candidate(tasks, execute_batch(tasks, machine), machine)

    def test_empty_batch(self):
        assert execute_batch([], MACHINES["sgi-r10k-mini"]) == []
