"""Machine simulator: the empirical-measurement substrate.

The paper runs candidate implementations on real hardware and reads PAPI
counters; this package provides the equivalent for the reproduction —
trace-driven simulation of set-associative caches, a TLB, non-blocking
prefetch with fill latency, memory bandwidth, and a superscalar issue cost
model.
"""

from repro.sim.cache import CacheState
from repro.sim.counters import Counters
from repro.sim.cpu import iteration_issue_cycles, spill_penalty
from repro.sim.executor import ExecutionError, execute, execute_batch
from repro.sim.memsys import (
    KIND_LOAD,
    KIND_PREFETCH,
    KIND_STORE,
    MemorySystem,
)
from repro.sim.trace import Trace, TraceRecorder, record_trace

__all__ = [
    "CacheState",
    "Counters",
    "MemorySystem",
    "KIND_LOAD",
    "KIND_STORE",
    "KIND_PREFETCH",
    "execute",
    "execute_batch",
    "ExecutionError",
    "Trace",
    "TraceRecorder",
    "record_trace",
    "iteration_issue_cycles",
    "spill_penalty",
]
