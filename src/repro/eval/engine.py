"""Candidate-evaluation engine: the layer between search and simulator.

Every empirical search in the repo (ECO's guided search, the random /
annealing / model-driven baselines, mini-ATLAS) ultimately performs the
same operation: *instantiate a variant at a parameter point and run it on
the simulated machine*.  :class:`EvalEngine` centralizes that operation
and adds what a bare ``execute()`` call cannot:

* **content-addressed caching** — results are keyed by
  :func:`repro.eval.keys.candidate_key`, so staged searches, re-runs and
  different search strategies never re-simulate an identical candidate;
  with a disk-backed :class:`~repro.eval.cache.ResultCache` the cache
  survives across processes and sessions;
* **parallel batch evaluation** — :meth:`EvalEngine.evaluate_batch` fans
  cache misses out over a ``ProcessPoolExecutor`` (``jobs > 1``) with
  results returned in input order, so parallel and serial runs are
  byte-identical; ``jobs = 1`` is a plain in-process loop;
* **measured accounting** — :class:`EvalStats` counts cache hits by
  layer, simulations actually run, failed instantiations, and wall time
  per named search stage, so search-cost claims are backed by numbers;
* **worker supervision** — candidate executions crash, hang and get
  killed on real machines, so simulation attempts run under an
  :class:`EvalPolicy`: transient failures (including a broken process
  pool) are retried a bounded number of times, per-candidate
  timeouts abandon hung workers, a broken pool is recreated (and, when it
  keeps breaking, the engine degrades gracefully to serial execution).
  Supervision affects wall time only, never results: a candidate's final
  outcome is the same at any job count and any fault history, as long as
  the failures are transient.

Failure taxonomy (the contract the cache and the searches rely on):

* **infeasible** — the candidate itself cannot be built or run
  (``TransformError``/``ValueError``): deterministic, a true property of
  the point, cached like any result (cycles = inf);
* **transient** — the *environment* failed (``MemoryError``, a killed
  worker, an injected fault, a timeout): retried up to
  ``EvalPolicy.max_retries``; if it never succeeds the outcome reports
  ``status="transient"`` with cycles = inf but is **never cached**, so a
  later run re-attempts it instead of inheriting a poisoned entry.

The simulation itself stays in :func:`repro.sim.execute`; the engine only
decides *whether* and *where* to run it.  Chaos tests drive the same code
paths deterministically through :class:`repro.faults.FaultPlan`.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.variants import (
    PrefetchSite,
    Variant,
    apply_prefetch,
    cached_base,
)
from repro.eval.cache import CachedResult, ResultCache
from repro.eval.keys import candidate_key, trace_signature
from repro.faults import (
    FaultPlan,
    InjectedHang,
    InjectedTransientError,
    WorkerKilled,
)
from repro.ir.nest import Kernel
from repro.machines import MachineSpec
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.sim import execute
from repro.sim.counters import Counters
from repro.transforms import TransformError
from repro.transforms.padding import pad_arrays

__all__ = [
    "EvalEngine",
    "EvalOutcome",
    "EvalPolicy",
    "EvalRequest",
    "EvalStats",
    "StageStats",
]


@dataclass(frozen=True)
class EvalRequest:
    """One candidate experiment: recipe + binding + problem size."""

    kernel: Kernel
    variant: Variant
    values: Tuple[Tuple[str, int], ...]
    prefetch: Tuple[Tuple[PrefetchSite, int], ...]
    pads: Tuple[Tuple[str, int], ...]
    problem: Tuple[Tuple[str, int], ...]

    @classmethod
    def build(
        cls,
        kernel: Kernel,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
        prefetch: Optional[Mapping[PrefetchSite, int]] = None,
        pads: Optional[Mapping[str, int]] = None,
    ) -> "EvalRequest":
        return cls(
            kernel=kernel,
            variant=variant,
            values=tuple(sorted((k, int(v)) for k, v in values.items())),
            prefetch=tuple(
                sorted(
                    ((s, int(d)) for s, d in (prefetch or {}).items()),
                    key=lambda item: (item[0].array, item[0].loop),
                )
            ),
            pads=tuple(sorted((k, int(v)) for k, v in (pads or {}).items() if v)),
            problem=tuple(sorted((k, int(v)) for k, v in problem.items())),
        )


@dataclass
class EvalOutcome:
    """Result of one evaluation, with its provenance."""

    key: str
    cycles: float
    counters: Optional[Counters]
    source: str  # "sim" | "memory" | "disk"
    #: "ok" (simulated fine), "infeasible" (the point cannot be built —
    #: deterministic, cacheable) or "transient" (the environment failed
    #: and retries ran out — never cached, safe to re-attempt later)
    status: str = "ok"

    @property
    def cached(self) -> bool:
        return self.source != "sim"

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.cycles)

    @property
    def transient(self) -> bool:
        return self.status == "transient"


@dataclass(frozen=True)
class EvalPolicy:
    """Supervision knobs for candidate execution (see docs/robustness.md).

    The defaults retry real transient failures a couple of times, at
    once, and never time out — i.e. behaviour is unchanged for healthy
    runs, but a ``BrokenProcessPool`` or an OOM-killed candidate no longer
    aborts a whole search.
    """

    #: wall-clock budget per candidate attempt (parallel execution only —
    #: a serial in-process simulation cannot be preempted); None = no limit
    timeout_seconds: Optional[float] = None
    #: extra attempts per candidate after the first, for transient
    #: failures (timeouts, killed workers, MemoryError, injected faults)
    max_retries: int = 2
    #: how many times the engine rebuilds a broken process pool before
    #: degrading to serial execution for the rest of its lifetime
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(f"timeout_seconds must be > 0, got {self.timeout_seconds}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )


@dataclass
class StageStats:
    """Per-stage accounting (one named phase of a search)."""

    wall_seconds: float = 0.0
    simulations: int = 0
    cache_hits: int = 0
    prescreen_skips: int = 0
    ranker_skips: int = 0
    #: delta split of ``simulations``: full builds vs candidates that
    #: reused a shared pre-prefetch base (``simulations == full_sims +
    #: delta_sims`` always)
    full_sims: int = 0
    delta_sims: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "wall_seconds": self.wall_seconds,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "prescreen_skips": self.prescreen_skips,
            "ranker_skips": self.ranker_skips,
            "full_sims": self.full_sims,
            "delta_sims": self.delta_sims,
        }


@dataclass
class EvalStats:
    """Counters surfaced to experiment reports and the CLI."""

    memory_hits: int = 0
    disk_hits: int = 0
    simulations: int = 0
    failures: int = 0  # simulations whose instantiation/transform failed
    batches: int = 0
    wall_seconds: float = 0.0
    #: supervision accounting (all zero on a healthy run)
    retries: int = 0  # extra simulation attempts after a transient failure
    timeouts: int = 0  # attempts abandoned for exceeding the time budget
    pool_restarts: int = 0  # process pools rebuilt after breaking
    transient_failures: int = 0  # candidates whose retries ran out
    corrupt_results: int = 0  # attempts whose result failed validation
    disk_write_failures: int = 0  # cache entries that failed to persist
    #: the subset of disk_write_failures caused by an out-of-space errno
    #: (ENOSPC/EDQUOT) — the one storage failure with a distinct remedy
    disk_write_failures_enospc: int = 0
    #: corrupt on-disk cache entries moved to <cache>/quarantine/ and
    #: re-counted as misses (see docs/robustness.md, "Storage integrity")
    cache_quarantined: int = 0
    #: candidates the model prescreen bounded strictly worse than the
    #: stage's running best, so their simulation was skipped entirely
    #: (deterministic: a pure function of the candidate and the model)
    prescreen_skips: int = 0
    #: candidates the learned batch ranker left out of a tiling round's
    #: simulated top-k + exploration sample (docs/search.md, "Learned
    #: ranking") — counted at consumption in driver order, so the count
    #: is identical at every job count
    ranker_skips: int = 0
    #: simulator throughput over the simulations actually run (cache hits
    #: cost no simulator time); sim_seconds is host wall time spent inside
    #: ``execute()``, sim_accesses the memory events those runs processed
    sim_seconds: float = 0.0
    sim_accesses: int = 0
    #: delta-evaluation split of ``simulations``: a *delta* simulation's
    #: trace signature (:func:`repro.eval.keys.trace_signature`) matched a
    #: previously consumed simulation, so its build shared that
    #: candidate's pre-prefetch instantiated base and re-ran only the
    #: prefetch/pad suffix.  Counted at consumption in driver order, so
    #: the split is identical at every job count and worker mode, and
    #: ``simulations == full_sims + delta_sims`` is an invariant.
    full_sims: int = 0
    delta_sims: int = 0
    stages: Dict[str, StageStats] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def evaluations(self) -> int:
        return self.cache_hits + self.simulations

    @property
    def sim_accesses_per_sec(self) -> float:
        if self.sim_seconds <= 0:
            return 0.0
        return self.sim_accesses / self.sim_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "cache_hits": self.cache_hits,
            "simulations": self.simulations,
            "failures": self.failures,
            "batches": self.batches,
            "wall_seconds": self.wall_seconds,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "transient_failures": self.transient_failures,
            "corrupt_results": self.corrupt_results,
            "disk_write_failures": self.disk_write_failures,
            "disk_write_failures_enospc": self.disk_write_failures_enospc,
            "cache_quarantined": self.cache_quarantined,
            "prescreen_skips": self.prescreen_skips,
            "ranker_skips": self.ranker_skips,
            "sim_seconds": self.sim_seconds,
            "sim_accesses": self.sim_accesses,
            "full_sims": self.full_sims,
            "delta_sims": self.delta_sims,
            "stages": {name: s.as_dict() for name, s in self.stages.items()},
        }


def stats_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """Per-search view of a (possibly shared) engine's cumulative stats.

    Robust to snapshots with differing shapes: top-level counters, stage
    names and per-stage keys are each diffed over the *union* of both
    snapshots (``after``'s order first, then anything only in ``before``),
    so keys or stages that appear on only one side — e.g. a stage first
    entered between the two snapshots, or a counter added to
    :class:`EvalStats` after the ``before`` snapshot was stored — are
    deltaed against zero instead of being dropped or raising.
    """
    out: Dict[str, object] = {}
    numeric = [k for k in after if k != "stages"]
    numeric += [k for k in before if k != "stages" and k not in after]
    for key in numeric:
        out[key] = after.get(key, 0) - before.get(key, 0)
    stages: Dict[str, Dict[str, float]] = {}
    before_stages = before.get("stages", {})
    after_stages = after.get("stages", {})
    names = list(after_stages) + [n for n in before_stages if n not in after_stages]
    for name in names:
        stage = after_stages.get(name, {})
        prior = before_stages.get(name, {})
        keys = list(stage) + [k for k in prior if k not in stage]
        delta = {k: stage.get(k, 0) - prior.get(k, 0) for k in keys}
        if any(delta.values()):
            stages[name] = delta
    out["stages"] = stages
    return out


def _build_candidate(
    kernel: Kernel,
    variant: Variant,
    values: Tuple,
    prefetch: Tuple,
    pads: Tuple,
    machine: MachineSpec,
    signature: str,
) -> Kernel:
    """Instantiate one candidate through the shared-base delta path.

    Identical in result to ``instantiate(...) [+ pad_arrays]`` — the base
    cache only skips re-running a pure function on equal inputs.  Raises
    exactly what those raise (``TransformError``/``ValueError`` for
    infeasible points, ``MemoryError`` under pressure).
    """
    base = cached_base(signature, kernel, variant, dict(values), machine)
    inst = apply_prefetch(base, machine, dict(prefetch))
    if pads:
        inst = pad_arrays(inst, dict(pads))
    return inst


def _simulate(payload: Tuple) -> Tuple[str, float, Optional[Counters]]:
    """Worker: instantiate + pad + execute one candidate attempt.

    Module-level so it pickles for ``ProcessPoolExecutor``; also the
    serial path, so both modes run literally the same code.  Returns
    ``(status, cycles, counters)`` with status ``"ok"``, ``"infeasible"``
    (the point cannot be built — a deterministic property, cacheable) or
    ``"transient"`` (the environment failed — retryable, never cached).
    Injected faults (:class:`repro.faults.FaultPlan`) fire here, inside
    the worker, so chaos tests exercise the real supervision paths.
    """
    (kernel, variant, values, prefetch, pads, problem, machine, signature,
     key, attempt, fault_plan, in_worker) = payload
    fault = None
    if fault_plan is not None:
        # may raise InjectedTransientError / InjectedHang / WorkerKilled,
        # or os._exit a pool worker; "corrupt" is applied after the run
        fault = fault_plan.apply(key, attempt, in_worker)
    try:
        inst = _build_candidate(
            kernel, variant, values, prefetch, pads, machine, signature
        )
        counters = execute(inst, dict(problem), machine)
    except (TransformError, ValueError):
        # The binding cannot be built (e.g. a copy that does not divide,
        # a zero tile size): a true property of the point.
        return ("infeasible", math.inf, None)
    except MemoryError:
        # Host-side resource exhaustion: environmental, not a property of
        # the candidate — must not be cached as infeasible (that would
        # poison the disk cache forever).
        return ("transient", math.inf, None)
    if fault == "corrupt":
        # A mangled measurement channel: cycles that cannot be right.
        # The engine's validation catches this and retries.
        return ("ok", -counters.cycles if counters.cycles else math.nan, counters)
    return ("ok", counters.cycles, counters)


#: exceptions that classify a simulation attempt as transient (retryable)
_TRANSIENT_ERRORS = (InjectedTransientError, WorkerKilled, MemoryError, OSError)


def _result_is_corrupt(cycles: float, counters: Optional[Counters]) -> bool:
    """Sanity-check a successful attempt: cycles must be a positive finite
    number consistent with the counters (inf belongs to infeasible points,
    which report themselves as such)."""
    if math.isnan(cycles) or cycles < 0 or math.isinf(cycles):
        return True
    return counters is not None and counters.cycles != cycles


@dataclass
class _Inflight:
    """Engine-side state of one unconsumed cache-miss candidate, by key.

    An entry is opened by :meth:`EvalEngine.speculate` or by the batch
    that consumes it, and removed when :meth:`EvalEngine.resolve`
    consumes it.  Speculated work that no batch consumed stays *parked*
    here — never published to the result cache — so a later batch of the
    same key adopts it without re-simulating and without a cache hit
    appearing where a ``-j 1`` run would have simulated.
    """

    key: str
    #: what a simulation attempt runs on
    payload: Tuple
    #: attempts run in-process at consumption (jobs == 1, serial
    #: fallback, or a batch with a single miss); cleared on dispatch
    deferred: bool = True
    future: Optional[Future] = None
    #: pool generation the future was submitted on (stale-break detection)
    generation: int = 0
    #: attempts so far — gates the deterministic fault plan
    attempt: int = 0
    #: failures charged against ``policy.max_retries``
    strikes: int = 0
    #: already counted in ``pipeline.speculative_parked``
    parked: bool = False


#: one consumed candidate: (request, outcome, full/delta kind, wall)
_Record = Tuple[EvalRequest, EvalOutcome, Optional[str], float]


class EvalEngine:
    """Cached, optionally parallel evaluation of candidates on one machine."""

    def __init__(
        self,
        machine: MachineSpec,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        policy: Optional[EvalPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        pool=None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.machine = machine
        self.jobs = jobs
        self.cache = cache if cache is not None else ResultCache()
        self.stats = EvalStats()
        #: span tracer shared by the searches running on this engine; the
        #: no-op default makes instrumentation free when tracing is off
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: metrics registry (always on — plain arithmetic, nothing to
        #: disable); searches and the runner report into the same one
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: retry/timeout/pool-restart supervision (see docs/robustness.md)
        self.policy = policy if policy is not None else EvalPolicy()
        #: optional chaos harness: deterministic injected failures
        self.fault_plan = fault_plan
        #: externally owned worker pool (e.g. the serve daemon's shared
        #: :class:`repro.serve.broker.SharedWorkerPool`): the engine
        #: submits to it but never shuts it down — its lifetime, recycling
        #: and fair-share scheduling belong to the owner
        self._external_pool = pool
        self._pool: Optional[ProcessPoolExecutor] = None
        self._stage: Optional[StageStats] = None
        #: set once the pool broke more than the policy tolerates — the
        #: engine then runs serially for the rest of its lifetime
        self._serial_fallback = False
        self._disk_failures_seen = 0
        self._disk_enospc_seen = 0
        self._quarantined_seen = 0
        #: unconsumed cache-miss candidates (in flight or parked), by key
        self._inflight: Dict[str, _Inflight] = {}
        #: bumped on every pool teardown (break or recycle): futures from
        #: an older generation observing BrokenProcessPool are collateral
        #: of an already-counted break, not a new one
        self._pool_generation = 0
        self._max_inflight = 0
        #: trace signatures whose base build has been consumed — the
        #: engine-side (deterministic, consumption-ordered) view of the
        #: delta-evaluation split; worker-side caches affect wall time
        #: only, this set is what full_sims/delta_sims report
        self._seen_signatures: Set[str] = set()

    # -- public API -----------------------------------------------------
    def evaluate(
        self,
        kernel: Kernel,
        variant: Variant,
        values: Mapping[str, int],
        problem: Mapping[str, int],
        prefetch: Optional[Mapping[PrefetchSite, int]] = None,
        pads: Optional[Mapping[str, int]] = None,
    ) -> EvalOutcome:
        """Evaluate a single candidate (cache-first, serial)."""
        request = EvalRequest.build(kernel, variant, values, problem, prefetch, pads)
        return self.evaluate_batch([request])[0]

    def evaluate_batch(self, requests: Sequence[EvalRequest]) -> List[EvalOutcome]:
        """Evaluate candidates, returning outcomes in input order.

        Identical candidates within the batch are consumed (and so
        simulated and recorded) once, in first-occurrence order.  A key
        with speculated work in flight adopts it; the other cache misses
        run on the process pool when ``jobs > 1`` and the batch has more
        than one, else serially in-process at consumption.
        """
        start = time.perf_counter()
        self.stats.batches += 1
        keys = [self._key_of(req) for req in requests]
        unique: Dict[str, EvalRequest] = {}
        for req, key in zip(requests, keys):
            unique.setdefault(key, req)
        if self.jobs > 1:
            misses = [
                key for key in unique
                if key not in self._inflight and key not in self.cache
            ]
            if len(misses) > 1:
                for key in misses:
                    self._dispatch(self._open(unique[key], key))
        records = [self.resolve(req, key) for key, req in unique.items()]
        self._sync_disk_failures()
        self._record(records, len(requests))
        self.stats.wall_seconds += time.perf_counter() - start
        outcomes = {key: record[1] for key, record in zip(unique, records)}
        return [outcomes[key] for key in keys]

    # -- speculation ----------------------------------------------------
    # speculate() starts likely-upcoming candidates early; a later batch
    # of the same key adopts the running work.  ALL observable accounting
    # — cache hits, simulations, cache writes, metrics, trace events —
    # happens when resolve() consumes a key, in the caller's
    # (deterministic) decision order, so a speculating search at -j N
    # produces records that are byte-identical to -j 1.  Speculated work
    # nobody consumes is dropped or parked engine-side, never published
    # to the cache.

    @property
    def can_overlap(self) -> bool:
        """Whether speculated work can run alongside its caller: a worker
        pool (``jobs > 1``, no serial fallback) on a multi-CPU host.
        :meth:`speculate` is a no-op otherwise."""
        return (
            self.jobs > 1
            and not self._serial_fallback
            and (os.cpu_count() or 1) > 1
        )

    def speculate(self, requests: Iterable[EvalRequest]) -> None:
        """Start candidates a later batch will probably consume.

        Does nothing — without iterating ``requests`` — unless the engine
        can overlap work (:attr:`can_overlap`).  Keys already in flight
        or in the result cache are skipped; the cache probe does not
        promote disk entries to memory, so consumption counts memory and
        disk hits exactly as a ``-j 1`` run does.
        """
        if not self.can_overlap:
            return
        for request in requests:
            start = time.perf_counter()
            key = self._key_of(request)
            if key not in self._inflight and key not in self.cache:
                self._dispatch(self._open(request, key))
                self.metrics.counter("pipeline.speculative_submits").inc()
            self.stats.wall_seconds += time.perf_counter() - start

    def drop_speculation(self) -> None:
        """Discard every unconsumed candidate (the speculated frontier
        went stale).  Unstarted work is cancelled, so a later batch re-runs
        it from attempt 0 exactly as ``-j 1`` would; running or finished
        work is parked — invisible to every accounting surface — for a
        later batch of the same key (its eventual result is what
        consumption would compute: the fault plan is deterministic in
        ``(key, attempt)``)."""
        for key, entry in list(self._inflight.items()):
            future = entry.future
            if future is not None and not future.cancel():
                if not entry.parked:
                    entry.parked = True
                    self.metrics.counter("pipeline.speculative_parked").inc()
                continue
            del self._inflight[key]
            if future is not None:
                self._note_inflight()

    def resolve(self, request: EvalRequest, key: str) -> _Record:
        """Consume one candidate of a batch: a result-cache hit, else its
        in-flight entry settled (running any deferred or retried work);
        count it and cache it.

        This is the engine's one accounting path.  It returns the
        candidate's ``(request, outcome, full/delta kind, wall)`` record;
        :meth:`evaluate_batch` writes the metrics and trace events of the
        whole batch once it is consumed, in input order.
        """
        start = time.perf_counter()
        kind: Optional[str] = None
        hit, source = self.cache.get_memory(key), "memory"
        if hit is None:
            hit, source = self.cache.get_disk(key), "disk"
        if hit is not None:
            self._inflight.pop(key, None)
            self._count_hit(source)
            status = "infeasible" if math.isinf(hit.cycles) else "ok"
            outcome = EvalOutcome(key, hit.cycles, hit.counters, source, status)
        else:
            entry = self._inflight.get(key) or self._open(request, key)
            status, cycles, counters = self._settle(entry)
            del self._inflight[key]
            kind = self._account_sim(entry.payload[7], counters)
            if counters is not None:
                self.stats.sim_seconds += counters.sim_seconds
                self.stats.sim_accesses += counters.sim_accesses
            if status == "transient":
                # Environmental failure that outlived its retries:
                # report it, but never cache it (a cached transient
                # would poison every future run with a false inf).
                self.stats.transient_failures += 1
            else:
                if counters is None:
                    self.stats.failures += 1
                self.cache.put(key, CachedResult(cycles, counters))
            outcome = EvalOutcome(key, cycles, counters, "sim", status)
        return (request, outcome, kind, time.perf_counter() - start)

    def note_prescreen_skip(
        self,
        variant_name: str,
        values: Mapping[str, int],
        score: float,
        bound: float,
    ) -> None:
        """Record a candidate whose simulation the model prescreen skipped
        (deterministic — part of the canonical trace at every ``-j``)."""
        self._note_skip(
            "prescreen_skips", "prescreen_skip", variant_name, values,
            score=score, bound=bound,
        )

    def note_ranker_skip(
        self,
        variant_name: str,
        values: Mapping[str, int],
        predicted: float,
        rank: int,
    ) -> None:
        """Record a candidate the learned batch ranker skipped: it ranked
        ``rank``-th in its tiling round (1-based, by predicted
        log-cycles) and fell outside the simulated top-k + exploration
        sample.  Counted at consumption in driver order — deterministic,
        part of the canonical trace at every ``-j``."""
        self._note_skip(
            "ranker_skips", "ranker_skip", variant_name, values,
            predicted=predicted, rank=rank,
        )

    def _note_skip(
        self,
        counter: str,
        event: str,
        variant_name: str,
        values: Mapping[str, int],
        **attrs,
    ) -> None:
        """Count one model-skipped candidate in the engine and stage
        stats (field ``counter``) and the ``eval.<counter>`` metric, and
        trace it as an ``event`` with the model's ``attrs``."""
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self._stage is not None:
            setattr(self._stage, counter, getattr(self._stage, counter) + 1)
        self.metrics.counter(f"eval.{counter}").inc()
        if self.tracer.enabled:
            self.tracer.event(
                event, variant=variant_name, values=dict(values), **attrs
            )

    def _record(self, records: Sequence[_Record], batch_size: int) -> None:
        """Metrics + trace events for one consumed batch, in order.

        Emission happens in the calling process after the results are
        gathered, so the event stream is identical at any job count.
        """
        metrics = self.metrics
        metrics.counter("eval.batches").inc()
        metrics.histogram("eval.batch_size").observe(batch_size)
        for _, outcome, _, _ in records:
            self._outcome_metrics(outcome)
        if self.stats.evaluations:
            metrics.gauge("eval.hit_ratio").set(
                round(self.stats.cache_hits / self.stats.evaluations, 6)
            )
        if self.tracer.enabled:
            for request, outcome, kind, wall in records:
                self._outcome_event(request, outcome, kind=kind, wall=wall)

    def _outcome_metrics(self, outcome: EvalOutcome) -> None:
        metrics = self.metrics
        if outcome.source == "sim":
            metrics.counter("eval.simulations").inc()
            if outcome.transient:
                metrics.counter("eval.transient_failures").inc()
            elif outcome.counters is not None:
                metrics.histogram("eval.candidate_machine_seconds").observe(
                    outcome.counters.seconds
                )
                metrics.histogram("eval.candidate_cycles").observe(
                    outcome.cycles
                )
                c = outcome.counters
                if c.sim_accesses:
                    metrics.counter("sim.accesses").inc(c.sim_accesses)
                    metrics.counter("sim.fastpath_collapsed").inc(
                        c.sim_collapsed
                    )
                    if c.sim_batches:
                        metrics.histogram("sim.batch_size").observe(
                            c.sim_accesses / c.sim_batches
                        )
            else:
                metrics.counter("eval.failures").inc()
        else:
            metrics.counter(f"eval.cache_hits.{outcome.source}").inc()

    def _outcome_event(
        self,
        req: EvalRequest,
        outcome: EvalOutcome,
        kind: Optional[str] = None,
        wall: Optional[float] = None,
    ) -> None:
        counters = outcome.counters
        attrs = {
            "variant": req.variant.name,
            "values": dict(req.values),
            "prefetch": {f"{s.array}@{s.loop}": d for s, d in req.prefetch},
            "pads": dict(req.pads),
            "problem": dict(req.problem),
            "source": outcome.source,
            # null cycles marks an infeasible candidate (inf is not JSON)
            "cycles": outcome.cycles if outcome.feasible else None,
        }
        if outcome.transient:
            attrs["transient"] = True
        if counters is not None:
            attrs["machine_seconds"] = counters.seconds
            attrs["counters"] = {
                "loads": counters.loads,
                "l1_misses": counters.l1_misses,
                "l2_misses": counters.l2_misses,
                "tlb_misses": counters.tlb_misses,
            }
            if counters.sim_accesses:
                # deterministic fast-path accounting; the host wall
                # time (sim_seconds) stays out of the trace on purpose
                attrs["sim"] = {
                    "accesses": counters.sim_accesses,
                    "batches": counters.sim_batches,
                    "collapsed": counters.sim_collapsed,
                    "timing_events": counters.sim_timing_events,
                }
        if kind == "delta":
            # consumption-order full/delta split: deterministic, so it
            # stays in the canonical projection (docs/search.md)
            attrs["delta"] = True
        if wall is not None:
            # host seconds obtaining this result — a TIMING_ATTRS key,
            # stripped by canonical() like ts/dur
            attrs["wall"] = round(wall, 9)
        self.tracer.event("eval", **attrs)

    @contextmanager
    def stage(self, name: str) -> Iterator[StageStats]:
        """Attribute wall time / simulations / hits to a named stage.

        With tracing on, the stage also becomes a span whose ``span_end``
        carries this entry's simulation/hit deltas (deterministic; the
        host wall time lives in the span's ``dur``)."""
        stats = self.stats.stages.setdefault(name, StageStats())
        previous, self._stage = self._stage, stats
        sims_before, hits_before = stats.simulations, stats.cache_hits
        skips_before = stats.prescreen_skips
        ranker_before = stats.ranker_skips
        span_cm = span = None
        if self.tracer.enabled:
            span_cm = self.tracer.span("stage", stage=name)
            span = span_cm.__enter__()
        start = time.perf_counter()
        try:
            yield stats
        finally:
            stats.wall_seconds += time.perf_counter() - start
            self._stage = previous
            sims = stats.simulations - sims_before
            hits = stats.cache_hits - hits_before
            if sims:
                self.metrics.counter(f"stage.{name}.simulations").inc(sims)
            if span_cm is not None:
                span.set(simulations=sims, cache_hits=hits)
                skips = stats.prescreen_skips - skips_before
                if skips:
                    span.set(prescreen_skips=skips)
                ranker_skips = stats.ranker_skips - ranker_before
                if ranker_skips:
                    span.set(ranker_skips=ranker_skips)
                span_cm.__exit__(*sys.exc_info())

    def reset_for_search(self, tracer=None, metrics: Optional[MetricsRegistry] = None) -> None:
        """Prepare the engine for the next independent search.

        Clears every piece of *per-search* memoization — stats, the
        in-flight/parked candidate table and the consumed-signature set behind the full/delta split — so the
        next search's accounting starts from zero and is byte-identical
        to what a fresh engine would record.  Everything expensive stays
        alive: the worker pool (spawn cost is the whole point of reuse),
        the result cache handles (memory + disk), the module-level
        base-IR LRU, and the supervision history (``pool_restarts`` draws
        on a per-engine budget, and the cache-counter deltas in
        ``_sync_disk_failures`` must keep tracking the shared cache's
        cumulative totals).  The serve daemon calls this between
        requests; back-to-back ``repro experiments`` legs can too.

        ``tracer``/``metrics`` optionally re-point the observability
        sinks at per-search receivers (the daemon gives every request its
        own trace buffer).
        """
        for entry in self._inflight.values():
            if entry.future is not None:
                entry.future.cancel()
        self._inflight.clear()
        self._seen_signatures.clear()
        self._stage = None
        self._max_inflight = 0
        restarts = self.stats.pool_restarts
        self.stats = EvalStats()
        # the restart budget is per engine lifetime, not per search —
        # otherwise a flaky pool would get max_pool_restarts fresh
        # chances every request and never degrade to serial
        self.stats.pool_restarts = restarts
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "EvalEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------
    def _key_of(self, req: EvalRequest) -> str:
        return candidate_key(
            req.kernel,
            req.variant,
            dict(req.values),
            dict(req.prefetch),
            dict(req.pads),
            dict(req.problem),
            self.machine,
        )

    def _payload_of(self, req: EvalRequest) -> Tuple:
        return (
            req.kernel,
            req.variant,
            req.values,
            req.prefetch,
            req.pads,
            req.problem,
            self.machine,
            # payload[7]: the delta-evaluation key (prefetch/pads excluded)
            trace_signature(
                req.kernel, req.variant, dict(req.values),
                dict(req.problem), self.machine,
            ),
        )

    def _open(self, request: EvalRequest, key: str) -> _Inflight:
        entry = self._inflight[key] = _Inflight(key, self._payload_of(request))
        return entry

    def _attempt_payload(self, entry: _Inflight, in_worker: bool) -> Tuple:
        return (*entry.payload, entry.key, entry.attempt, self.fault_plan,
                in_worker)

    def _count_hit(self, source: str) -> None:
        if source == "memory":
            self.stats.memory_hits += 1
        else:
            self.stats.disk_hits += 1
        if self._stage is not None:
            self._stage.cache_hits += 1

    def _account_sim(self, signature: str, counters: Optional[Counters]) -> str:
        """Consumption-time simulation accounting: total + delta split.

        A simulation is a *delta* when an earlier consumed simulation
        already built (and cached) the same trace signature's base IR.
        The signature is recorded only when the attempt produced counters
        — a point that failed before executing guarantees nothing about
        what its worker cached, so the next same-signature sim stays
        conservatively "full".  Consumption order is driver order, making
        the split byte-identical at every ``-j`` and worker mode.
        Returns the kind it counted (``"full"`` | ``"delta"``) so the
        trace event for the same consumption can carry it.
        """
        self.stats.simulations += 1
        if signature in self._seen_signatures:
            self.stats.delta_sims += 1
            self.metrics.counter("eval.delta_sims").inc()
            if self._stage is not None:
                self._stage.simulations += 1
                self._stage.delta_sims += 1
            return "delta"
        self.stats.full_sims += 1
        self.metrics.counter("eval.full_sims").inc()
        if self._stage is not None:
            self._stage.simulations += 1
            self._stage.full_sims += 1
        if counters is not None:
            self._seen_signatures.add(signature)
        return "full"

    # -- supervised execution -------------------------------------------
    # In-process and pooled attempts alike preserve the determinism
    # guarantee: a candidate's final (status, cycles, counters) is a pure
    # function of the candidate and the fault plan — retries, timeouts
    # and pool restarts change wall time and supervision counters, never
    # results.  None of these touch stats/metrics/cache/trace beyond the
    # supervision counters: that belongs to the consumption point
    # (resolve), which calls them in deterministic consumption order.

    def _note_retry(self, key: str, attempt: int, reason: str) -> None:
        self.stats.retries += 1
        self.metrics.counter("eval.retries").inc()
        if self.tracer.enabled:
            self.tracer.event("eval_retry", key=key, attempt=attempt, reason=reason)

    def _note_timeout(self) -> None:
        self.stats.timeouts += 1
        self.metrics.counter("eval.timeouts").inc()

    def _note_corrupt(self) -> None:
        self.stats.corrupt_results += 1
        self.metrics.counter("eval.corrupt_results").inc()

    def _classify_attempt(
        self, result: Tuple[str, float, Optional[Counters]]
    ) -> Tuple[Optional[str], Tuple[str, float, Optional[Counters]]]:
        """(retry reason | None, result): validate one completed attempt."""
        status, cycles, counters = result
        if status == "ok" and _result_is_corrupt(cycles, counters):
            self._note_corrupt()
            return "corrupt", ("transient", math.inf, None)
        if status == "transient":
            return "transient", result
        return None, result

    def _dispatch(self, entry: _Inflight) -> None:
        """Start (or restart) an entry on the pool; degrade to deferred
        serial execution if the pool cannot accept work."""
        while not self._serial_fallback:
            pool = self._ensure_pool()
            try:
                future = pool.submit(_simulate, self._attempt_payload(entry, True))
            except BrokenProcessPool:
                # Submission itself failed: nothing ran, resubmit as-is.
                self._handle_pool_break()
                continue
            entry.future = future
            entry.generation = self._pool_generation
            entry.deferred = False
            self._note_inflight()
            return
        entry.deferred = True

    def _live_inflight(self) -> int:
        return sum(
            1 for e in self._inflight.values()
            if e.future is not None and not e.future.done()
        )

    def _note_inflight(self) -> None:
        """Pipeline depth gauges (jobs > 1 paths only, so serial traces
        never carry pipeline metrics)."""
        live = self._live_inflight()
        self.metrics.gauge("pipeline.in_flight").set(live)
        if live > self._max_inflight:
            self._max_inflight = live
            self.metrics.gauge("pipeline.max_in_flight").set(live)

    def _settle(self, entry: _Inflight) -> Tuple[str, float, Optional[Counters]]:
        """Supervised run of one entry to its final result (no accounting).

        One loop settles every candidate: each attempt — in-process for a
        deferred entry, else on the pool — is classified, a failed one
        (timeout, transient error, corrupt result) is charged a *strike*
        against ``policy.max_retries``, and the retry runs where the entry
        runs.  *Pool deaths* draw on ``policy.max_pool_restarts`` instead:
        a killed worker takes every in-flight candidate with it and the
        OS does not say which task was responsible, so pool breaks bump
        the attempt number (an injected kill fault must not re-fire
        forever) without charging any candidate's retry budget.
        """
        while True:
            if not entry.deferred and entry.future is None:
                self._dispatch(entry)
            if entry.deferred:
                attempt = self._attempt_here(entry)
            else:
                attempt = self._attempt_pooled(entry)
                if attempt is None:
                    continue  # lost to something else: rerun as-is
            reason, result = attempt
            if reason is None:
                reason, result = self._classify_attempt(result)
                if reason is None:
                    return result
            if entry.strikes >= self.policy.max_retries:
                return ("transient", math.inf, None)
            self._note_retry(entry.key, entry.attempt, reason)
            entry.strikes += 1
            entry.attempt += 1
            entry.future = None

    def _attempt_here(self, entry: _Inflight) -> Tuple[Optional[str], Optional[Tuple]]:
        """One in-process attempt: ``(retry reason | None, result)``.

        Timeouts cannot preempt an in-process simulation; an injected
        hang (:class:`InjectedHang`) still counts one, so in-process and
        pooled chaos runs account alike.
        """
        try:
            return None, _simulate(self._attempt_payload(entry, False))
        except InjectedHang:
            self._note_timeout()
            return "timeout", None
        except _TRANSIENT_ERRORS as error:
            return type(error).__name__, None

    def _attempt_pooled(
        self, entry: _Inflight
    ) -> Optional[Tuple[Optional[str], Optional[Tuple]]]:
        """Wait for one pooled attempt: ``(retry reason | None, result)``,
        or ``None`` when the attempt was lost without being this
        candidate's failure and must simply run again.

        A candidate that timed out while *running* leaves its worker
        wedged, so the pool is recycled; a future cancelled before
        starting (queued behind slow work, or swept up in a recycle) is
        not a failure of this candidate.
        """
        future = entry.future
        attempt = None
        timed_out_running = False
        wait_start = time.perf_counter()
        try:
            attempt = None, future.result(timeout=self.policy.timeout_seconds)
        except CancelledError:
            entry.future = None
        except FutureTimeout:
            if future.cancel():
                entry.future = None
            else:
                self._note_timeout()
                timed_out_running = True
                attempt = "timeout", None
        except InjectedHang:
            # The worker's own simulated hang completed before our
            # wait expired (e.g. no timeout configured).
            self._note_timeout()
            attempt = "timeout", None
        except BrokenProcessPool:
            if entry.generation == self._pool_generation:
                self._handle_pool_break()
                self._note_retry(entry.key, entry.attempt, "worker_died")
            # else: stale break, already handled by another entry's
            # wait — resubmit quietly (one restart note per break).
            entry.attempt += 1
            entry.future = None
        except _TRANSIENT_ERRORS as error:
            attempt = type(error).__name__, None
        finally:
            idle = (time.perf_counter() - wait_start) * max(
                0, self.jobs - self._live_inflight() - 1
            )
            if idle > 0:
                self.metrics.counter("pipeline.idle_slot_seconds").inc(round(idle, 6))
        if timed_out_running:
            self._recycle_pool()
        return attempt

    def _ensure_pool(self):
        if self._external_pool is not None:
            return self._external_pool
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _teardown_pool(self) -> bool:
        """Discard the current pool; ``False`` when there was none.  An
        external pool is recycled through its owner (it may be serving
        other engines)."""
        if self._external_pool is not None:
            self._external_pool.recycle()
        elif self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None
        else:
            return False
        return True

    def _recycle_pool(self) -> None:
        """Discard a pool whose workers may be wedged on abandoned
        (timed-out) simulations; the next round gets fresh workers."""
        if self._teardown_pool():
            self._pool_generation += 1
            self.metrics.counter("eval.pool_recycles").inc()

    def _handle_pool_break(self) -> None:
        """Tear down a broken pool; restart it or degrade to serial."""
        self.stats.pool_restarts += 1
        self._pool_generation += 1
        self.metrics.counter("eval.pool_restarts").inc()
        self._teardown_pool()
        if self.stats.pool_restarts > self.policy.max_pool_restarts:
            self._serial_fallback = True
            self.metrics.counter("eval.serial_fallbacks").inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "serial_fallback", pool_restarts=self.stats.pool_restarts
                )
        elif self.tracer.enabled:
            self.tracer.event("pool_restart", pool_restarts=self.stats.pool_restarts)

    def _sync_disk_failures(self) -> None:
        """Fold the cache's storage counters into stats and metrics.

        Deltas are tracked per counter so a cache shared between engines
        attributes each failure exactly once; the write-failure metric is
        split by errno class (``.enospc`` vs ``.other``) because a full
        disk and a flaky mount call for different remedies.
        """
        failures = getattr(self.cache, "disk_write_failures", 0)
        if failures > self._disk_failures_seen:
            delta = failures - self._disk_failures_seen
            self._disk_failures_seen = failures
            self.stats.disk_write_failures += delta
            enospc = getattr(self.cache, "disk_write_failures_enospc", 0)
            enospc_delta = min(delta, max(0, enospc - self._disk_enospc_seen))
            self._disk_enospc_seen = enospc
            self.stats.disk_write_failures_enospc += enospc_delta
            self.metrics.counter("eval.disk_write_failures.enospc").inc(enospc_delta)
            self.metrics.counter("eval.disk_write_failures.other").inc(
                delta - enospc_delta
            )
            self.metrics.counter("eval.disk_write_failures").inc(delta)
        quarantined = getattr(self.cache, "quarantined_entries", 0)
        if quarantined > self._quarantined_seen:
            delta = quarantined - self._quarantined_seen
            self._quarantined_seen = quarantined
            self.stats.cache_quarantined += delta
            self.metrics.counter("eval.cache_quarantined").inc(delta)
