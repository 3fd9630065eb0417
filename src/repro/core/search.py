"""Phase 2: model-guided empirical search (the paper's §3.2).

For each variant from phase 1 the search

1. groups tiling parameters into **stages** (one per memory level; levels
   sharing a parameter — mm's ``TK`` touches both L1 and L2 — merge into
   one stage, exactly as the paper prescribes);
2. seeds each stage with the model's **initial values**: the tile
   footprint fills the usable capacity of the level (full capacity when
   direct-mapped, ``(n-1)/n`` when n-way) and the register stage fills the
   register file;
3. runs the paper's **shape/size search**: with the footprint held
   constant, repeatedly double one parameter and halve another, keeping
   improvements; then halve the footprint and repeat, stopping when all
   neighbours are worse; then a short **linear search** of ±step on each
   parameter (step = max(register tile size, cache line size)), favouring
   values that divide the loop bounds;
4. searches **prefetching** one data structure at a time: insert with
   distance 1, keep only if it helps, then grow the distance while it
   keeps helping;
5. **re-adjusts tiling after prefetch**: widens the innermost tile while
   performance improves (prefetching favours longer inner loops).

Every experiment is a real execution on the simulated machine, performed
through the :class:`~repro.eval.EvalEngine` — which memoizes results by
content-addressed key (optionally on disk, so re-runs and staged searches
share work) and can fan independent candidate batches out over worker
processes.  The total number of *distinct* points this search visited is
reported (the paper's §4.3 search-cost metric) alongside the engine's
measured cache-hit/simulation counts.

Because phase 1 can emit more sibling variants than the paper's Table 4
lists, the search first *screens* all variants at their initial points and
runs the full staged search only on the most promising few
(``SearchConfig.full_search_variants``) — keeping the total search cost in
the paper's reported range (tens of points).
"""

from __future__ import annotations

import itertools
import math
import random
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.learned import (
    DEFAULT_EXPLORE,
    DEFAULT_RANKER_MARGIN,
    DEFAULT_TOP_K,
    LearnedRanker,
)
from repro.analysis.surrogate import DEFAULT_MARGIN, Surrogate
from repro.core.checkpoint import (
    SearchJournal,
    decode_cycles,
    decode_prefetch,
    encode_cycles,
    encode_prefetch,
)
from repro.core.variants import (
    PrefetchSite,
    Variant,
    apply_prefetch,
    cached_base,
    prefetch_sites,
)
from repro.eval import (
    EvalEngine,
    EvalRequest,
    machine_spec_hash,
    stats_delta,
    trace_signature,
)
from repro.ir.expr import Const, Mul
from repro.ir.nest import Kernel, Prefetch, walk_statements
from repro.machines import MachineSpec
from repro.sim import Counters
from repro.transforms import TransformError

__all__ = ["SearchConfig", "SearchResult", "GuidedSearch"]

#: rounds of the ±step linear refinement after the shape/size stages
MAX_LINEAR_ROUNDS = 2
#: the prefetch-distance ladder: insert at the first, grow while it helps
PREFETCH_DISTANCES = (1, 2, 4, 8)
#: smallest cache tile and largest unroll factor the search considers
MIN_TILE = 2
MAX_UNROLL = 16


@dataclass
class SearchConfig:
    """Knobs for the guided search."""

    full_search_variants: int = 3
    #: optional extension (the paper did this manually, §4.2): search one
    #: line of leading-dimension padding per array when copying was not
    #: selected, to stabilize conflict-miss pathologies
    search_padding: bool = False
    #: model-based prescreen (docs/search.md): skip simulating tiling
    #: candidates the surrogate model bounds worse than the stage's
    #: running best by more than ``DEFAULT_MARGIN``
    prescreen: bool = False
    #: learned batch ranker (docs/search.md, "Learned ranking"): each
    #: tiling round's candidate batch is ranked by the trained model
    #: (:class:`repro.analysis.learned.LearnedRanker`) and only the
    #: predicted-best ``DEFAULT_TOP_K`` plus ``DEFAULT_EXPLORE`` seeded
    #: exploration draws are simulated; fresh measurements feed an online
    #: refit.  Candidates predicted within ``DEFAULT_RANKER_MARGIN``
    #: log-cycles of the best are always simulated — the model only skips
    #: candidates it calls *clearly* worse.  ``None`` (and any
    #: kernel/machine mismatch) fails open to simulating everything.  The
    #: search ranks through its own clone, so a shared config's model
    #: artifact is never mutated.
    ranker: Optional[LearnedRanker] = None
    #: transfer-tuning warm start (docs/serving.md): per-variant seed
    #: points (``{variant name: {param: value}}``) carried from a donor
    #: search's winner.  A listed variant starts its staged search from
    #: the donor's point (merged over the model seed, clamped) instead of
    #: the model seed — changing only the visit order/cost, never the
    #: candidate space, and recorded in the journal scope so resumed runs
    #: replay identically.
    warm_seeds: Optional[Dict[str, Dict[str, int]]] = None


@dataclass
class SearchResult:
    """Outcome of tuning one kernel on one machine."""

    variant: Variant
    values: Dict[str, int]
    prefetch: Dict[PrefetchSite, int]
    pads: Dict[str, int]
    counters: Counters
    points: int
    seconds: float
    #: simulated time the target machine spent running the experiments —
    #: the analog of the paper's reported search minutes
    machine_seconds: float
    variants_considered: int
    history: List[Tuple[str, Dict[str, int], float]] = field(default_factory=list)
    #: evaluation-engine accounting for this search (cache hits by layer,
    #: simulations actually run, wall time per stage) — the measured
    #: numbers behind the search-cost tables
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.counters.cycles

    @property
    def mflops(self) -> float:
        return self.counters.mflops


class GuidedSearch:
    """Search driver for one kernel / machine / problem size."""

    def __init__(
        self,
        kernel: Kernel,
        machine: MachineSpec,
        problem: Mapping[str, int],
        config: Optional[SearchConfig] = None,
        engine: Optional[EvalEngine] = None,
        journal: Optional[SearchJournal] = None,
    ) -> None:
        self.kernel = kernel
        self.machine = machine
        self.problem = dict(problem)
        self.config = config or SearchConfig()
        if engine is not None and engine.machine.name != machine.name:
            raise ValueError(
                f"engine is bound to {engine.machine.name}, search targets {machine.name}"
            )
        self.engine = engine if engine is not None else EvalEngine(machine)
        #: optional crash-safe checkpoint: completed stages are recorded
        #: as they finish and replayed on resume (docs/robustness.md)
        self.journal = journal
        self._cache: Dict[Tuple, float] = {}
        self._counters: Dict[Tuple, Counters] = {}
        self.points = 0
        self.machine_seconds = 0.0
        self.history: List[Tuple[str, Dict[str, int], float]] = []
        self._surrogate: Optional[Surrogate] = (
            Surrogate(kernel, machine, dict(problem), DEFAULT_MARGIN)
            if self.config.prescreen
            else None
        )
        #: learned batch ranker — a per-search clone, so the online refit
        #: (active learning) never leaks into the shared config's artifact
        self._ranker: Optional[LearnedRanker] = None
        if self.config.ranker is not None:
            reason = self.config.ranker.mismatch(kernel.name, machine)
            if reason is None:
                self._ranker = self.config.ranker.clone()
                #: exploration sampling, seeded by the artifact's training
                #: seed and drawn in driver order, so the sampled
                #: candidates are identical at every -j
                self._ranker_rng = random.Random(self._ranker.seed)
            else:
                # fail open: a mismatched model must not rank, and the
                # search must still run (simulating everything)
                warnings.warn(
                    f"learned ranker disabled ({reason}); "
                    f"simulating all candidates",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # -- measurement ------------------------------------------------------
    def measure(
        self,
        variant: Variant,
        values: Mapping[str, int],
        prefetch: Optional[Mapping[PrefetchSite, int]] = None,
        pads: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Cycles of one experiment (inf when infeasible); memoized."""
        return self.measure_many([(variant, values, prefetch, pads)])[0]

    def measure_many(
        self,
        items: Sequence[
            Tuple[
                Variant,
                Mapping[str, int],
                Optional[Mapping[PrefetchSite, int]],
                Optional[Mapping[str, int]],
            ]
        ],
    ) -> List[float]:
        """Cycles for a batch of independent experiments, in input order.

        Model-infeasible points cost nothing (inf without an experiment);
        the rest go to the evaluation engine in one batch, which adopts
        any work :meth:`_speculate` already started for them and, with
        ``jobs > 1``, simulates the others concurrently.  Accounting
        (points, history, machine seconds) is folded in input order,
        making the result — including ``SearchResult.history`` —
        independent of the engine's parallelism and of speculation.
        """
        normalized = [self._norm(*item) for item in items]
        requests: List[EvalRequest] = []
        request_index: List[Optional[int]] = []
        for variant, values, prefetch, pads, key, runnable in normalized:
            if runnable:
                request_index.append(len(requests))
                requests.append(
                    EvalRequest.build(
                        self.kernel, variant, values, self.problem, prefetch, pads
                    )
                )
            else:
                request_index.append(None)
        outcomes = (
            self.engine.evaluate_batch(requests) if requests else []
        )

        results: List[float] = []
        for (variant, values, prefetch, pads, key, runnable), req_i in zip(
            normalized, request_index
        ):
            if key in self._cache:
                results.append(self._cache[key])
                continue
            cycles = math.inf
            transient = False
            if runnable:
                outcome = outcomes[req_i]
                cycles = outcome.cycles
                transient = outcome.transient
                if outcome.counters is not None:
                    self._counters[key] = outcome.counters
                    self.machine_seconds += outcome.counters.seconds
                self.points += 1
                self.history.append((variant.name, dict(values), cycles))
            if not transient:
                # A transient failure (environment, not candidate) is not
                # memoized: a later visit should re-attempt the point.
                self._cache[key] = cycles
            results.append(cycles)
        return results

    def _key(self, variant, values, prefetch, pads=None) -> Tuple:
        return (
            variant.name,
            tuple(sorted(values.items())),
            tuple(sorted((s.array, s.loop, d) for s, d in prefetch.items())),
            tuple(sorted((pads or {}).items())),
        )

    def _norm(self, variant, values, prefetch, pads):
        """Normalize one experiment and decide whether it needs to run."""
        values = dict(values)
        prefetch = dict(prefetch or {})
        pads = {k: v for k, v in (pads or {}).items() if v}
        key = self._key(variant, values, prefetch, pads)
        full = {**values, **self.problem}
        runnable = (
            key not in self._cache
            and variant.feasible(full)
            and all(v >= 1 for v in values.values())
        )
        return variant, values, prefetch, pads, key, runnable

    # -- speculation ------------------------------------------------------
    def _speculate(self, items) -> None:
        """Hint likely-upcoming experiments to the engine
        (:meth:`EvalEngine.speculate`).  ``items`` is consumed lazily and
        only when the engine can overlap work with the search, so at
        ``-j 1`` speculation costs nothing — not even the filters of the
        generator the caller passes.  Speculation never touches
        accounting: the engine discards what the search never consumes.
        """
        self.engine.speculate(
            EvalRequest.build(self.kernel, variant, values, self.problem,
                              prefetch, pads)
            for variant, values, prefetch, pads, _, runnable in (
                self._norm(*item) for item in items
            )
            if runnable
        )

    def _prescreened(
        self,
        variant: Variant,
        candidate: Dict[str, int],
        best: Dict[str, int],
    ) -> Optional[float]:
        """Apply the model prescreen to a tiling candidate.

        Returns the candidate's stand-in cycles (``inf``) when the model
        skips it, else ``None`` (measure it).  Skips are *not* memoized:
        the judgement is relative to this stage's running best, and a
        later stage may revisit the point against a different best.
        Memoized and model-infeasible points are never prescreened — they
        cost no simulation, and a memoized result may even beat the best.
        """
        verdict = self._judge(variant, candidate, best)
        if verdict is None:
            return None
        self.engine.note_prescreen_skip(
            variant.name, dict(candidate), verdict.score, verdict.bound
        )
        return math.inf

    def _judge(self, variant, candidate, frontier):
        """The prescreen judgement itself (no accounting): a verdict when
        the model skips ``candidate`` against ``frontier``, else None."""
        if self._surrogate is None:
            return None
        _, values, _, _, key, runnable = self._norm(variant, candidate, None, None)
        if key in self._cache or not runnable:
            return None
        return self._surrogate.judge(variant, values, frontier)

    def _rank_plan(
        self,
        items: Sequence[Tuple[Variant, Dict[str, int]]],
        top_k: int,
        band: bool,
    ) -> Optional[Dict[Tuple, Tuple[float, int, bool]]]:
        """Rank one candidate batch; decide who is skippable.

        ``items`` are ``(variant, values)`` pure-tiling points: one tiling
        round's moves, or the screen's one seed point per variant.  The
        returned plan maps the *skippable* candidates' search keys to
        their ``(predicted log-cycles, 1-based rank, exact)``; keys absent
        from the plan are always simulated.  The always-kept subset is
        :meth:`_rank_keep`'s: the ``top_k`` predicted-best (plus, with
        ``band``, the confidence band) and ``DEFAULT_EXPLORE`` seeded draws
        from the rest — the exploration sample is what keeps the online
        refit honest about candidates the model writes off.  A tiling
        round decides each skip at consumption time (:meth:`_ranked`)
        against the frontier's *measured* cycles; the screen, which has
        no measured frontier, skips every planned key.

        Planning is pure (no accounting, no skip counting): the plan is
        built from the whole batch, then applied candidate-by-candidate
        at consumption time, so every observable effect lands in
        consumption order regardless of ``-j`` or speculation.  The RNG
        is only consumed when the batch is actually large enough to skip
        from, and fails open — returns ``None``, rank nothing — when
        there is no usable model or any scorable-looking candidate turns
        out unscorable (a ranking the model could not complete must not
        gate simulations).
        """
        if self._ranker is None:
            return None
        scored: List[Tuple[Tuple, float, bool]] = []
        seen = set()
        for variant, candidate in items:
            _, values, _, _, key, runnable = self._norm(variant, candidate, None, None)
            if key in seen:
                continue
            seen.add(key)
            if key in self._cache or not runnable:
                continue  # costs no simulation either way
            predicted = self._ranker.predict(
                self.kernel, variant, values, self.problem, self.machine
            )
            if predicted is None:
                return None
            exact = (
                self._ranker.memoized(variant, values, self.problem) is not None
            )
            scored.append((key, predicted, exact))
        if not scored:
            return {}
        ranked = sorted(scored, key=lambda item: (item[1], item[0]))
        kept = self._rank_keep(ranked, top_k, band)
        if kept is None:
            return {}
        return {
            key: (predicted, rank + 1, exact)
            for rank, (key, predicted, exact) in enumerate(ranked)
            if key not in kept
        }

    def _rank_keep(self, ranked, top_k, band: bool) -> Optional[set]:
        """The always-kept subset of one ranked batch (items are
        ``(id, predicted, ..., exact)``): the ``top_k`` predicted-best,
        optionally (with ``band``, for batches with no measured frontier
        to compare against) everything within the ``DEFAULT_RANKER_MARGIN``
        confidence band of the predicted-best — the model must not order
        near-ties it cannot resolve — plus the seeded exploration draws.

        Exploration samples only the *uncertain* (regression-predicted)
        remainder: a memoized candidate carries no information the refit
        lacks, so spending a simulation on it teaches nothing.  When the
        uncertain remainder is no larger than the exploration budget it
        is kept wholesale and the RNG is left untouched (small batches
        must not shift the seeded stream).  Returns ``None`` when
        nothing would be skippable."""
        kept = {item[0] for item in ranked[: max(1, top_k)]}
        if band:
            limit = ranked[0][1] + DEFAULT_RANKER_MARGIN
            for item in ranked:
                if item[1] <= limit:
                    kept.add(item[0])
        rest = [item for item in ranked if item[0] not in kept]
        uncertain = [item for item in rest if not item[-1]]
        if len(uncertain) <= DEFAULT_EXPLORE:
            kept.update(item[0] for item in uncertain)
        else:
            for pick in self._ranker_rng.sample(range(len(uncertain)), DEFAULT_EXPLORE):
                kept.add(uncertain[pick][0])
        if all(item[0] in kept for item in ranked):
            return None
        return kept

    def _plan_skip(self, plan, key, frontier_cycles):
        """The plan entry of ``key`` when the plan skips it against the
        frontier's *measured* cycles, else ``None``.

        A skippable candidate is skipped only when its predicted
        log-cycles exceed the frontier's measured log-cycles by more than
        ``DEFAULT_RANKER_MARGIN``: the model may veto clear losers, but a
        candidate it cannot confidently call worse than the running best
        is simulated.  Comparing against the measured frontier (which
        tightens as the round improves) rather than other predictions
        keeps the climb's trajectory intact wherever the model is right.
        """
        if plan is None:
            return None
        if not (math.isfinite(frontier_cycles) and frontier_cycles > 0):
            return None  # no measured frontier: nothing to rank against
        entry = plan.get(key)
        if entry is None:
            return None
        predicted, _, exact = entry
        # an exact (memoized) prediction needs no error bar; strict >
        # still simulates dead ties, which cost one sim and never flip
        # a strict-improvement climb
        threshold = 0.0 if exact else DEFAULT_RANKER_MARGIN
        if predicted <= math.log(frontier_cycles) + threshold:
            return None  # too close to call: simulate
        return entry

    def _ranked(self, variant, candidate, plan, best_cycles) -> Optional[float]:
        """Apply the round's ranking plan to one tiling candidate.

        Returns the stand-in cycles (``inf``) when the model skips it
        (:meth:`_plan_skip`), else ``None`` (fall through to the
        prescreen/measurement).  The skip is counted *here*, at
        consumption in driver order — the same contract as
        :meth:`_prescreened` — and, like the prescreen, never memoized: a
        later round re-ranks the point against a fresh batch.  Points
        that became memoized since the plan was built fall through (they
        cost no simulation and may beat the best).
        """
        _, values, _, _, key, runnable = self._norm(variant, candidate, None, None)
        if key in self._cache or not runnable:
            return None
        entry = self._plan_skip(plan, key, best_cycles)
        if entry is None:
            return None
        predicted, rank, _ = entry
        self.engine.note_ranker_skip(variant.name, dict(values), predicted, rank)
        return math.inf

    def _unplanned(self, variant, candidate, plan, frontier_cycles) -> bool:
        """Whether the plan lets ``candidate`` through to simulation
        (speculation filter: never pre-warm a point the plan would skip
        against the current frontier)."""
        key = self._norm(variant, candidate, None, None)[4]
        return self._plan_skip(plan, key, frontier_cycles) is None

    def _ranker_observe(self, variant, candidate, cycles) -> None:
        """Feed one fresh tiling measurement back into the per-search
        ranker clone (active learning).  Called in driver order right
        after the measurement is consumed, so every ``-j`` refits the
        model through the identical update sequence; the ranker dedups
        repeated points internally."""
        if self._ranker is None or not math.isfinite(cycles) or cycles <= 0:
            return
        self._ranker.observe(
            self.kernel, variant, dict(candidate), self.problem, self.machine, cycles
        )

    # -- public entry -------------------------------------------------------
    def run(self, variants: Sequence[Variant]) -> SearchResult:
        """Screen all variants, fully search the best few, pick the winner."""
        with self.engine.tracer.span(
            "search",
            kernel=self.kernel.name,
            machine=self.machine.name,
            # full-spec hash: training and artifact checks distinguish
            # same-named machines whose parameters drifted (docs/search.md)
            machine_spec=machine_spec_hash(self.machine),
            problem=dict(sorted(self.problem.items())),
            variants=len(variants),
            **(
                {"warm_start": sorted(self.config.warm_seeds)}
                if self.config.warm_seeds
                else {}
            ),
        ) as span:
            result = self._run(variants)
            span.set(
                variant=result.variant.name,
                values=dict(result.values),
                prefetch=_prefetch_attrs(result.prefetch),
                pads=dict(result.pads),
                cycles=result.cycles,
                points=result.points,
            )
        metrics = self.engine.metrics
        metrics.counter("search.runs").inc()
        metrics.counter("search.points").inc(result.points)
        metrics.gauge("search.best_cycles").set(result.cycles)
        metrics.histogram("search.machine_seconds").observe(result.machine_seconds)
        return result

    def _run(self, variants: Sequence[Variant]) -> SearchResult:
        start = time.perf_counter()
        stats_before = self.engine.stats.as_dict()
        with self.engine.stage("screen"):
            seeds = [self.initial_values(variant) for variant in variants]
            cycles_list = self._screen(variants, seeds)
        screened = list(zip(cycles_list, variants, seeds))
        screened.sort(key=lambda item: item[0])
        feasible = [item for item in screened if math.isfinite(item[0])]
        if not feasible:
            raise RuntimeError("no feasible variant at its initial point")

        best: Optional[Tuple[float, Variant, Dict[str, int], Dict[PrefetchSite, int], Dict[str, int]]]
        best = None
        for seed_cycles, variant, seed in feasible[: self.config.full_search_variants]:
            with self.engine.tracer.span(
                "variant",
                variant=variant.name,
                seed=dict(seed),
                # the model's side of the ledger: its seed point's measured
                # cycles and whether it predicts the tiles fit their levels
                seed_cycles=seed_cycles,
                predicted_fit=variant.predicted_fit({**seed, **self.problem}),
            ) as vspan:
                values, prefetch, pads = self._search_variant(variant, seed)
                cycles = self.measure(variant, values, prefetch, pads)
                self._journal_record(
                    f"variant:{variant.name}",
                    "final",
                    {
                        "values": values,
                        "prefetch": encode_prefetch(prefetch),
                        "pads": pads,
                        "cycles": encode_cycles(cycles),
                    },
                )
                vspan.set(
                    values=dict(values),
                    prefetch=_prefetch_attrs(prefetch),
                    pads=dict(pads),
                    cycles=cycles if math.isfinite(cycles) else None,
                )
            if best is None or cycles < best[0]:
                best = (cycles, variant, values, prefetch, pads)
        assert best is not None
        cycles, variant, values, prefetch, pads = best
        key = self._key(variant, values, prefetch, pads)
        counters = self._counters[key]
        return SearchResult(
            variant=variant,
            values=values,
            prefetch=prefetch,
            pads=pads,
            counters=counters,
            points=self.points,
            seconds=time.perf_counter() - start,
            machine_seconds=self.machine_seconds,
            variants_considered=len(variants),
            history=self.history,
            stats=stats_delta(stats_before, self.engine.stats.as_dict()),
        )

    # -- checkpointing ------------------------------------------------------
    def _journal_get(self, section: str, key: str):
        return self.journal.get(section, key) if self.journal is not None else None

    def _journal_record(self, section: str, key: str, value) -> None:
        if self.journal is not None:
            self.journal.record(section, key, value)

    def _screen(
        self, variants: Sequence[Variant], seeds: Sequence[Dict[str, int]]
    ) -> List[float]:
        """Measure every variant at its seed point (replayed on resume).

        With a learned ranker, the screen is the search's biggest single
        batch: one pure-tiling point per variant.  Only the
        ``full_search_variants`` predicted-best seeds (the only ones the
        search would carry forward anyway) plus the exploration draws
        are simulated; ranked-out variants screen at ``inf``, which also
        removes them from the full search — so the ranking here is
        winner-affecting by design and gated by the bench floor.
        """
        names = [variant.name for variant in variants]
        recorded = self._journal_get("screen", "results")
        if recorded is not None and recorded.get("variants") == names:
            return [decode_cycles(c) for c in recorded["cycles"]]
        # no measured frontier exists before the screen, so the
        # confidence band is relative to the batch's own predicted best;
        # it keeps ``full_search_variants`` (not ``DEFAULT_TOP_K``)
        # predicted-best — keeping fewer would change the winner whenever
        # the model is merely good instead of perfect
        plan = self._rank_plan(
            list(zip(variants, seeds)),
            max(1, self.config.full_search_variants),
            band=True,
        )
        if plan is None:
            cycles_list = self.measure_many(
                [(variant, values, None, None) for variant, values in zip(variants, seeds)]
            )
            for (variant, values), cycles in zip(zip(variants, seeds), cycles_list):
                self._ranker_observe(variant, values, cycles)
        else:
            cycles_list = [math.inf] * len(variants)
            slots: List[int] = []
            items = []
            for index, (variant, values) in enumerate(zip(variants, seeds)):
                entry = plan.get(self._key(variant, values, {}))
                if entry is not None:
                    predicted, rank, _exact = entry
                    self.engine.note_ranker_skip(
                        variant.name, dict(values), predicted, rank
                    )
                    continue
                slots.append(index)
                items.append((variant, values, None, None))
            for index, cycles in zip(slots, self.measure_many(items)):
                cycles_list[index] = cycles
                self._ranker_observe(variants[index], seeds[index], cycles)
        self._journal_record(
            "screen",
            "results",
            {"variants": names, "cycles": [encode_cycles(c) for c in cycles_list]},
        )
        return cycles_list

    def _search_variant(
        self, variant: Variant, seed: Dict[str, int]
    ) -> Tuple[Dict[str, int], Dict[PrefetchSite, int], Dict[str, int]]:
        """The full staged search of one variant, stage-journaled.

        Each stage consults the journal first, so an interrupted search
        resumes after its last *completed* stage; a variant whose
        ``final`` record exists is replayed without any searching (its
        winning point is then re-measured once, for the counters — a
        cache hit when the engine has a disk cache).
        """
        section = f"variant:{variant.name}"
        final = self._journal_get(section, "final")
        if final is not None:
            return (
                _int_values(final["values"]),
                decode_prefetch(final["prefetch"]),
                _int_values(final["pads"]),
            )
        with self.engine.stage("tiling"):
            recorded = self._journal_get(section, "tiling")
            if recorded is not None:
                values = _int_values(recorded["values"])
            else:
                values = self.search_tiling(variant, seed)
                self._journal_record(section, "tiling", {"values": values})
        with self.engine.stage("prefetch"):
            recorded = self._journal_get(section, "prefetch")
            if recorded is not None:
                values = _int_values(recorded["values"])
                prefetch = decode_prefetch(recorded["prefetch"])
            else:
                values, prefetch = self.search_prefetch(variant, values)
                values = self.adjust_after_prefetch(variant, values, prefetch)
                self._journal_record(
                    section,
                    "prefetch",
                    {"values": values, "prefetch": encode_prefetch(prefetch)},
                )
        with self.engine.stage("padding"):
            recorded = self._journal_get(section, "padding")
            if recorded is not None:
                pads = _int_values(recorded["pads"])
            else:
                pads = self.search_padding(variant, values, prefetch)
                self._journal_record(section, "padding", {"pads": pads})
        return values, prefetch, pads

    # -- stage construction -------------------------------------------------
    def stages(self, variant: Variant) -> List[List[str]]:
        """Parameter groups searched together (levels sharing a parameter
        merge), register stage first, then cache levels inner to outer."""
        groups: List[List[str]] = []
        for level in variant.levels:
            params = [p for p in level.params]
            if not params:
                continue
            overlapping = [g for g in groups if set(g) & set(params)]
            merged = params
            for group in overlapping:
                merged = group + [p for p in merged if p not in group]
                groups.remove(group)
            groups.append(list(dict.fromkeys(merged)))
        return groups

    def _stage_budget(self, variant: Variant, params: Sequence[str]) -> Tuple[int, int]:
        """(product budget, coefficient) from the tightest constraint whose
        variables are exactly a subset of ``params``."""
        budget = None
        for constraint in variant.constraints:
            free = constraint.expr.free_vars()
            if not free or not free <= set(params):
                continue
            coeff = 1
            if isinstance(constraint.expr, Mul):
                for factor in constraint.expr.factors:
                    if isinstance(factor, Const):
                        coeff *= factor.value
            bound = int(constraint.bound.evaluate(self.problem))
            limit = max(1, bound // max(1, coeff))
            if budget is None or limit < budget:
                budget = limit
        if budget is None:
            budget = self.machine.l1.usable_fraction_capacity() // 8
        return budget, 1

    def initial_values(self, variant: Variant) -> Dict[str, int]:
        """The model's seed point: each stage fills its level's capacity."""
        values: Dict[str, int] = {}
        unroll_params = {p for _, p in variant.unrolls}
        for params in self.stages(variant):
            budget, _ = self._stage_budget(variant, params)
            fixed = [p for p in params if p in values]
            free = [p for p in params if p not in values]
            remaining = budget
            for p in fixed:
                remaining = max(1, remaining // values[p])
            share = max(1, round(remaining ** (1.0 / max(1, len(free)))))
            share = _floor_pow2(share)
            for p in free:
                value = share
                if p in unroll_params:
                    value = max(1, min(value, MAX_UNROLL))
                else:
                    value = max(MIN_TILE, value)
                values[p] = value
        warm = (self.config.warm_seeds or {}).get(variant.name)
        if warm:
            # transfer tuning: start from the donor's tuned point, with
            # the model seed filling any parameter the donor lacks
            values.update(
                (p, int(v)) for p, v in warm.items() if p in values
            )
        return self._clamp(variant, values)

    def _clamp(self, variant: Variant, values: Dict[str, int]) -> Dict[str, int]:
        out = dict(values)
        size_cap = max(self.problem.values()) if self.problem else 1 << 20
        unroll_params = {p for _, p in variant.unrolls}
        for p, v in out.items():
            v = max(1, int(v))
            if p in unroll_params:
                v = min(v, MAX_UNROLL)
            else:
                v = max(MIN_TILE, min(v, size_cap))
            out[p] = v
        return out

    # -- tiling search (paper §3.2 first step) -------------------------------
    def search_tiling(self, variant: Variant, seed: Dict[str, int]) -> Dict[str, int]:
        values = dict(seed)
        for params in self.stages(variant):
            values = self._search_stage(variant, values, params)
        values = self._linear_refine(variant, values)
        return values

    def _stage_move(
        self,
        variant: Variant,
        best: Dict[str, int],
        params: Sequence[str],
        move: Optional[Tuple[str, str]],
    ) -> Dict[str, int]:
        """One shape/size candidate from the current best: ``(grow,
        shrink)`` doubles one parameter and halves another; ``None`` is
        the size move (halve the whole footprint)."""
        candidate = dict(best)
        if move is None:
            for p in params:
                candidate[p] = max(1, candidate[p] // 2)
        else:
            grow, shrink = move
            candidate[grow] = candidate[grow] * 2
            candidate[shrink] = max(1, candidate[shrink] // 2)
        return self._clamp(variant, candidate)

    def _search_stage(
        self, variant: Variant, values: Dict[str, int], params: Sequence[str]
    ) -> Dict[str, int]:
        # Shape moves (double one parameter, halve another) in a fixed
        # order, then the size move (halve the whole footprint); rounds
        # repeat until one brings no improvement.
        moves: List[Optional[Tuple[str, str]]] = [
            (grow, shrink)
            for grow in params
            for shrink in params
            if grow != shrink
        ] + [None]
        return self._climb(
            variant,
            values,
            moves,
            lambda frontier, move: self._stage_move(variant, frontier, params, move),
        )

    def _linear_refine(self, variant: Variant, values: Dict[str, int]) -> Dict[str, int]:
        line_elems = max(1, self.machine.l1.line_size // 8)
        unroll_params = {p for _, p in variant.unrolls}
        moves = [
            (p, delta)
            for p in variant.param_names
            for step in (1 if p in unroll_params else max(line_elems, 4),)
            for delta in (step, -step)
        ]

        def refine_move(frontier: Dict[str, int], move) -> Optional[Dict[str, int]]:
            p, delta = move
            candidate = dict(frontier)
            candidate[p] = candidate[p] + delta
            candidate = self._clamp(variant, candidate)
            candidate[p] = self._favor_divisor(candidate[p], delta)
            return None if candidate == frontier else candidate  # no-op move

        return self._climb(variant, values, moves, refine_move, rounds=MAX_LINEAR_ROUNDS)

    def _climb(
        self,
        variant: Variant,
        values: Dict[str, int],
        moves: Sequence,
        step: Callable[[Dict[str, int], object], Optional[Dict[str, int]]],
        rounds: Optional[int] = None,
    ) -> Dict[str, int]:
        """The staged hill-climb shared by the shape/size stages and the
        linear refinement.

        Each round walks ``moves`` in order; ``step(frontier, move)`` is
        the candidate a move makes from the running best (``None`` for a
        move to skip).  Every candidate is ranked, then prescreened, then
        measured and observed; an improvement becomes the running best
        at once, and the remaining moves are re-planned and re-speculated
        from it.  Rounds repeat until one brings no improvement, at most
        ``rounds`` times when given.
        """
        best = dict(values)
        best_cycles = self.measure(variant, best)
        self._ranker_observe(variant, best, best_cycles)
        plan: Optional[Dict[Tuple, Tuple[float, int, bool]]] = None

        def candidates(index: int):
            for move in moves[index:]:
                candidate = step(best, move)
                if candidate is not None:
                    yield candidate

        def replan(index: int) -> None:
            nonlocal plan
            plan = self._rank_plan(
                [(variant, candidate) for candidate in candidates(index)],
                DEFAULT_TOP_K,
                band=False,
            )
            self._speculate(
                (variant, candidate, None, None)
                for candidate in candidates(index)
                if self._unplanned(variant, candidate, plan, best_cycles)
                and self._judge(variant, candidate, best) is None
            )

        for _ in range(rounds) if rounds is not None else itertools.count():
            improved = False
            replan(0)
            for index, move in enumerate(moves, 1):
                candidate = step(best, move)
                if candidate is None:
                    continue
                cycles = self._ranked(variant, candidate, plan, best_cycles)
                if cycles is None:
                    cycles = self._prescreened(variant, candidate, best)
                if cycles is None:
                    cycles = self.measure(variant, candidate)
                    self._ranker_observe(variant, candidate, cycles)
                if cycles < best_cycles:
                    best, best_cycles = candidate, cycles
                    improved = True
                    # The speculated frontier assumed the old best:
                    # re-plan and re-speculate the remaining moves from it.
                    self.engine.drop_speculation()
                    replan(index)
            if not improved:
                break
        self.engine.drop_speculation()
        return best

    def _favor_divisor(self, value: int, delta: int) -> int:
        """Nudge a value to a divisor of the problem size when one is near
        (the paper favours factors that evenly divide the loop bounds)."""
        size = max(self.problem.values()) if self.problem else 0
        if size <= 0 or value <= 0:
            return value
        for nudge in (0, 1, -1):
            candidate = value + nudge
            if candidate >= 1 and size % candidate == 0:
                return candidate
        return value

    # -- prefetch search (paper §3.2 second step) ----------------------------
    def search_prefetch(
        self, variant: Variant, values: Dict[str, int]
    ) -> Tuple[Dict[str, int], Dict[PrefetchSite, int]]:
        prefetch: Dict[PrefetchSite, int] = {}
        best_cycles = self.measure(variant, values, prefetch)
        sites = list(prefetch_sites(self.kernel, variant))
        d0 = PREFETCH_DISTANCES[0]

        def speculate_sites(start: int, current: Dict[PrefetchSite, int]) -> None:
            # First-distance trials of the remaining sites, assuming the
            # accepted-prefetch map stays as it is (stale on acceptance).
            self._speculate(
                (variant, values, {**current, site: d0}, None)
                for site in sites[start:]
            )

        speculate_sites(0, prefetch)
        for index, site in enumerate(sites):
            if not self._site_effective(variant, values, prefetch, site):
                continue
            # The whole distance ladder for this site: the grow loop below
            # walks it in order, so every speculated trial is on its path.
            self._speculate(
                (variant, values, {**prefetch, site: distance}, None)
                for distance in PREFETCH_DISTANCES[1:]
            )
            trial = dict(prefetch)
            trial[site] = d0
            cycles = self.measure(variant, values, trial)
            if cycles >= best_cycles:
                continue  # no benefit: remove the prefetch (paper rule)
            best_site_cycles = cycles
            best_distance = d0
            for distance in PREFETCH_DISTANCES[1:]:
                trial[site] = distance
                cycles = self.measure(variant, values, trial)
                if cycles < best_site_cycles:
                    best_site_cycles = cycles
                    best_distance = distance
                else:
                    break
            prefetch[site] = best_distance
            best_cycles = best_site_cycles
            self.engine.drop_speculation()
            speculate_sites(index + 1, prefetch)
        self.engine.drop_speculation()
        return values, prefetch

    def _site_effective(
        self,
        variant: Variant,
        values: Dict[str, int],
        prefetch: Dict[PrefetchSite, int],
        site: PrefetchSite,
    ) -> bool:
        """Skip sites whose insertion adds no prefetch instructions (e.g.
        arrays fully promoted to registers).  The probe is ``instantiate``
        built through the base-IR cache the engine and surrogate share."""
        try:
            trial = dict(prefetch)
            trial[site] = 1
            signature = trace_signature(
                self.kernel, variant, values, self.problem, self.machine
            )
            base = cached_base(signature, self.kernel, variant, values, self.machine)
            inst = apply_prefetch(base, self.machine, trial)
        except (TransformError, KeyError):
            return False
        return any(
            isinstance(s, Prefetch)
            and s.ref.array in (site.array,)
            for s in walk_statements(inst.body)
        )

    # -- post-prefetch adjustment (paper §3.2 third step) ----------------------
    def adjust_after_prefetch(
        self,
        variant: Variant,
        values: Dict[str, int],
        prefetch: Dict[PrefetchSite, int],
    ) -> Dict[str, int]:
        """Grow the innermost (register-loop) tile while it helps."""
        inner_param = variant.tile_map.get(variant.register_loop)
        if inner_param is None or not prefetch:
            return values
        best = dict(values)
        best_cycles = self.measure(variant, best, prefetch)
        # The doubling chain is the same point sequence wherever it stops
        # (each accepted candidate's double is the next chain element), so
        # the whole chain can be speculated up-front.
        chain: List[Dict[str, int]] = []
        cursor = dict(best)
        while True:
            nxt = dict(cursor)
            nxt[inner_param] = nxt[inner_param] * 2
            nxt = self._clamp(variant, nxt)
            if nxt == cursor:
                break
            chain.append(nxt)
            cursor = nxt
        self._speculate((variant, c, prefetch, None) for c in chain)
        while True:
            candidate = dict(best)
            candidate[inner_param] = candidate[inner_param] * 2
            candidate = self._clamp(variant, candidate)
            if candidate == best:
                break
            cycles = self.measure(variant, candidate, prefetch)
            if cycles < best_cycles:
                best, best_cycles = candidate, cycles
            else:
                break
        self.engine.drop_speculation()
        return best

    # -- optional padding axis (extension; the paper padded manually) --------
    def search_padding(
        self,
        variant: Variant,
        values: Dict[str, int],
        prefetch: Dict[PrefetchSite, int],
    ) -> Dict[str, int]:
        """Try one cache line of leading-dimension padding per user array.

        Only runs when enabled and when the variant selected no copy (a
        copied tile is already conflict-free); keeps a pad only when the
        experiment improves.
        """
        if not self.config.search_padding or variant.copies:
            return {}
        line_elems = max(1, self.machine.l1.line_size // 8)
        pads: Dict[str, int] = {}
        best_cycles = self.measure(variant, values, prefetch, pads)
        decls = [decl for decl in self.kernel.arrays if not decl.temp]

        def speculate_pads(start: int, current: Dict[str, int]) -> None:
            self._speculate(
                (variant, values, prefetch, {**current, decl.name: line_elems})
                for decl in decls[start:]
            )

        speculate_pads(0, pads)
        for index, decl in enumerate(decls):
            trial = dict(pads)
            trial[decl.name] = line_elems
            cycles = self.measure(variant, values, prefetch, trial)
            if cycles < best_cycles:
                pads, best_cycles = trial, cycles
                self.engine.drop_speculation()
                speculate_pads(index + 1, pads)
        self.engine.drop_speculation()
        return pads


def _int_values(mapping: Mapping[str, object]) -> Dict[str, int]:
    """JSON round-trips parameter values as-is; coerce defensively."""
    return {str(k): int(v) for k, v in mapping.items()}


def _floor_pow2(value: int) -> int:
    if value < 1:
        return 1
    return 1 << (value.bit_length() - 1)


def _prefetch_attrs(prefetch: Mapping[PrefetchSite, int]) -> Dict[str, int]:
    """JSON-friendly rendering of a prefetch plan (``{"A@K": 2}``)."""
    return {f"{site.array}@{site.loop}": d for site, d in prefetch.items()}
