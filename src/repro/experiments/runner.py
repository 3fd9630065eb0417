"""Shared experiment plumbing: engines + cached tuning runs.

Tuning (ECO's guided search, mini-ATLAS's orthogonal search) is the
expensive step, and several experiments need the same tuned kernels
(Figure 4 measures them across sizes; §4.3 reports their search cost), so
tuned results are cached per (kernel, machine, tuning size) within the
process.

Underneath, every ECO search runs through one shared
:class:`~repro.eval.EvalEngine` per machine, so distinct experiments that
visit the same candidate point share its simulation, and the aggregate
cache-hit/simulation counts are available for reporting
(:func:`engine_stats`).  :func:`configure` sets the process-wide
parallelism (``jobs``) and the optional on-disk cache directory
(conventionally ``results/cache/``) used by every engine created after
the call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines import MiniAtlas
from repro.core import EcoOptimizer, SearchConfig, TunedKernel
from repro.eval import EvalEngine, ResultCache
from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

__all__ = [
    "configure",
    "engine_for",
    "engine_stats",
    "metrics",
    "tracer",
    "flush_trace",
    "tuned_eco",
    "tuned_atlas",
    "clear_cache",
]

_ECO_CACHE: Dict[Tuple[str, str, int], TunedKernel] = {}
_ATLAS_CACHE: Dict[Tuple[str, int], MiniAtlas] = {}
_ENGINES: Dict[str, EvalEngine] = {}
_JOBS: int = 1
_CACHE_DIR: Optional[str] = None
_TRACE_PATH: Optional[str] = None
_TRACER = NULL_TRACER
_METRICS = MetricsRegistry()
_TIMEOUT: Optional[float] = None


def configure(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    trace: Optional[str] = None,
    timeout: Optional[float] = None,
) -> None:
    """Set evaluation parallelism, the on-disk result-cache directory and
    (optionally) a trace output path.

    Applies to engines created afterwards; existing engines (and the
    tuned-kernel caches that used them) are dropped so the settings take
    effect uniformly.  With ``trace`` set, every engine shares one
    :class:`~repro.obs.Tracer`; call :func:`flush_trace` when the
    experiments are done to write the JSONL file.

    ``timeout`` bounds each pooled candidate attempt (see
    :class:`~repro.eval.EvalEngine`).  An interrupted run resumes by
    running again over the same ``cache_dir``: every candidate it
    already measured is a disk hit.
    """
    global _JOBS, _CACHE_DIR, _TRACE_PATH, _TRACER, _METRICS, _TIMEOUT
    _JOBS = max(1, int(jobs))
    _CACHE_DIR = cache_dir
    _TRACE_PATH = trace
    _TRACER = Tracer(source="experiments", jobs=_JOBS) if trace else NULL_TRACER
    _METRICS = MetricsRegistry()
    _TIMEOUT = timeout
    clear_cache()


def tracer():
    """The process-wide tracer experiments report into."""
    return _TRACER


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry experiments report into."""
    return _METRICS


def flush_trace() -> Optional[str]:
    """Write the shared trace (with a final metrics snapshot) to the
    configured path; returns the path, or None when tracing is off."""
    if _TRACE_PATH is None or not _TRACER.enabled:
        return None
    _TRACER.snapshot_metrics(_METRICS)
    _TRACER.dump(_TRACE_PATH)
    return _TRACE_PATH


def engine_for(machine_name: str) -> EvalEngine:
    """The process-wide evaluation engine for one machine."""
    machine = get_machine(machine_name)
    engine = _ENGINES.get(machine.name)
    if engine is None:
        engine = EvalEngine(
            machine,
            jobs=_JOBS,
            cache=ResultCache(_CACHE_DIR) if _CACHE_DIR else None,
            tracer=_TRACER,
            metrics=_METRICS,
            timeout=_TIMEOUT,
        )
        _ENGINES[machine.name] = engine
        _METRICS.gauge("runner.engines").set(len(_ENGINES))
    return engine


def engine_stats() -> List[Dict[str, object]]:
    """One accounting row per active engine (for reports / the CLI)."""
    rows: List[Dict[str, object]] = []
    for name in sorted(_ENGINES):
        stats = _ENGINES[name].stats
        rows.append(
            {
                "machine": name,
                "evaluations": stats.evaluations,
                "simulations": stats.simulations,
                "cache_hits": stats.cache_hits,
                "memory_hits": stats.memory_hits,
                "disk_hits": stats.disk_hits,
                "failures": stats.failures,
                "eval_wall_s": round(stats.wall_seconds, 1),
                "sim_s": round(stats.sim_seconds, 2),
                "acc_per_s": int(stats.sim_accesses_per_sec),
            }
        )
    return rows


def tuned_eco(kernel_name: str, machine_name: str, tuning_size: int) -> TunedKernel:
    """ECO-tune a kernel on a machine (cached)."""
    machine = get_machine(machine_name)
    key = (kernel_name, machine.name, tuning_size)
    if key not in _ECO_CACHE:
        optimizer = EcoOptimizer(
            get_kernel(kernel_name),
            machine,
            engine=engine_for(machine_name),
        )
        _ECO_CACHE[key] = optimizer.optimize({"N": tuning_size})
    return _ECO_CACHE[key]


def tuned_atlas(machine_name: str, tuning_size: int) -> MiniAtlas:
    """Tune mini-ATLAS's matmul on a machine (cached)."""
    machine = get_machine(machine_name)
    key = (machine.name, tuning_size)
    if key not in _ATLAS_CACHE:
        atlas = MiniAtlas(machine, engine=engine_for(machine_name))
        atlas.tune(tuning_size)
        _ATLAS_CACHE[key] = atlas
    return _ATLAS_CACHE[key]


def clear_cache() -> None:
    _ECO_CACHE.clear()
    _ATLAS_CACHE.clear()
    for engine in _ENGINES.values():
        engine.close()
    _ENGINES.clear()
