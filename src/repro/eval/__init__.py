"""Candidate-evaluation engine: caching + parallel execution + accounting.

Sits between the searches (``repro.core.search``, ``repro.baselines``)
and the simulator (``repro.sim``).  See :mod:`repro.eval.engine` for the
design notes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "cache": ("CachedResult", "ResultCache"),
    "engine": (
        "EvalEngine", "EvalOutcome", "EvalRequest", "EvalStats", "StageStats",
        "stats_delta",
    ),
    "keys": ("candidate_key", "machine_spec_hash", "trace_signature"),
})
