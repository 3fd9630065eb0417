"""Model-accuracy observatory: calibrate the models against the traces.

The paper's thesis — models can stand in for most empirical measurement
— is only as good as the models' actual tracking of the simulator.
Every trace already records, per candidate, the parameter bindings and
the *measured* cycles; this module re-scores those candidates with the
prescreen surrogate (:mod:`repro.analysis.surrogate`) and reports, per
search (kernel @ machine):

* **rank correlation** (Spearman) between surrogate score and measured
  cycles over the unique pure-tiling candidates — the surrogate ranks,
  it does not predict, so rank agreement is the right yardstick;
* **worst misranking** — replaying each tiling stage's running best, the
  largest ``score(candidate)/score(best)`` ratio among candidates the
  model placed *above* the running best that actually measured *better*.
  This is exactly the statistic ``DEFAULT_MARGIN`` was calibrated
  against (docs/search.md: 1.273x worst observed → margin 0.29);
* **margin sweep** — the prescreen replayed offline at a range of
  margins: simulations avoided vs. false-skip risk at each, so the
  margin choice stays a measured trade-off as the corpus grows;
* **prescreen audit** — for traces recorded *with* the prescreen on, a
  seeded sample of the recorded ``prescreen_skip`` events is
  re-simulated out-of-band and compared against the running best at
  skip time, measuring the *realized* false-skip rate;
* **learned comparison** — given a trained learned ranker
  (:mod:`repro.analysis.learned`, ``repro report accuracy --model``),
  the same unique pure-tiling points are scored by the learned
  surrogate too: rank correlation and log-space error side by side with
  the analytical model, on identical data.

Everything except the audit is a pure function of canonical trace
content, so reports are byte-stable for a given trace; the audit is
deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.learned import spearman
from repro.analysis.surrogate import DEFAULT_MARGIN, Surrogate
from repro.core import derive_variants
from repro.core.variants import Variant, instantiate
from repro.kernels import get_kernel
from repro.machines import get_machine
from repro.obs.corpus import _enclosing, _span_context
from repro.sim.executor import execute

__all__ = [
    "DEFAULT_SWEEP_MARGINS",
    "AuditRecord",
    "AuditReport",
    "LearnedComparison",
    "MarginPoint",
    "Misranking",
    "SearchAccuracy",
    "analyze_trace",
    "render_accuracy",
]

#: margins swept by default; includes the calibrated DEFAULT_MARGIN so
#: the committed 0.29 row is always present in the curve
DEFAULT_SWEEP_MARGINS = (
    0.0, 0.05, 0.10, 0.15, 0.20, 0.25, DEFAULT_MARGIN, 0.35, 0.40, 0.50,
)


@dataclass
class Misranking:
    """A candidate the model placed above the running best that in fact
    measured better: ``ratio`` is score(candidate)/score(best)."""

    ratio: float
    variant: str
    values: Dict[str, int]
    cycles: float
    best_values: Dict[str, int]
    best_cycles: float


@dataclass
class MarginPoint:
    """One margin of the sweep: what the prescreen would have skipped
    (replaying the recorded candidate stream) and at what risk."""

    margin: float
    skips: int
    false_skips: int
    avoided_frac: float      # skips / all simulations in the search
    risk: float              # false_skips / skips (0 when no skips)


@dataclass
class AuditRecord:
    """One re-simulated prescreen skip."""

    variant: str
    values: Dict[str, int]
    score: float
    bound: float
    best_cycles: Optional[float]   # running best at skip time (None: none yet)
    cycles: Optional[float]        # re-simulated (None: infeasible)
    false_skip: bool


@dataclass
class AuditReport:
    """Seeded-sample audit of a trace's recorded prescreen skips."""

    seed: int
    total_skips: int
    sampled: int
    false_skips: int
    records: List[AuditRecord] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.false_skips / self.sampled if self.sampled else 0.0


@dataclass
class LearnedComparison:
    """A learned ranker scored on the same measured points as the
    analytical surrogate (``analyze_trace(..., model=...)``)."""

    fingerprint: str
    scored: int
    memo_hits: int              # points answered from the exact memo
    spearman: Optional[float]
    mae_log_cycles: Optional[float]
    mismatch: Optional[str] = None   # why the model is inapplicable


@dataclass
class SearchAccuracy:
    """The observatory's verdict on one search span."""

    kernel: str
    machine: str
    problem: Dict[str, int]
    evals: int
    sims: int
    cache_hits: int
    tiling_candidates: int      # unique pure-tiling points measured
    scored: int                 # of those, how many the model can score
    spearman: Optional[float]
    worst: Optional[Misranking]
    sweep: List[MarginPoint] = field(default_factory=list)
    audit: Optional[AuditReport] = None
    learned: Optional[LearnedComparison] = None


@dataclass
class _SearchEvents:
    """One search span's event stream, annotated with stage spans."""

    span: str
    attrs: Dict[str, Any]
    # (stage span id or "", stage name or "", event) in emission order,
    # eval and prescreen_skip events only
    stream: List[Tuple[str, str, Dict[str, Any]]] = field(default_factory=list)


def _group_searches(events: List[Dict[str, Any]]) -> List[_SearchEvents]:
    spans = _span_context(events)
    searches: Dict[str, _SearchEvents] = {}
    order: List[str] = []
    for event in events:
        if event.get("type") == "span_begin" and event.get("name") == "search":
            searches[event["span"]] = _SearchEvents(
                event["span"], event.get("attrs", {})
            )
            order.append(event["span"])
    for event in events:
        if event.get("type") != "event":
            continue
        if event.get("name") not in ("eval", "prescreen_skip"):
            continue
        span = event.get("span")
        search = _enclosing(spans, span, "search")
        if search not in searches:
            continue
        stage_span = _enclosing(spans, span, "stage")
        stage = ""
        if stage_span is not None:
            stage = spans[stage_span]["attrs"].get("stage", "")
        searches[search].stream.append((stage_span or "", stage, event))
    return [searches[s] for s in order]


def _values_key(variant: str, values: Mapping[str, int]) -> Tuple:
    return (variant, tuple(sorted((k, int(v)) for k, v in values.items())))


def _tiling_streams(
    search: _SearchEvents,
) -> List[List[Dict[str, Any]]]:
    """Per tiling-stage-span eval attr streams, in emission order."""
    streams: Dict[str, List[Dict[str, Any]]] = {}
    order: List[str] = []
    for stage_span, stage, event in search.stream:
        if stage != "tiling" or event.get("name") != "eval":
            continue
        if stage_span not in streams:
            streams[stage_span] = []
            order.append(stage_span)
        streams[stage_span].append(event.get("attrs", {}))
    return [streams[s] for s in order]


def _worst_misranking(
    streams: List[List[Dict[str, Any]]],
    surrogate: Surrogate,
    variants: Mapping[str, Variant],
) -> Optional[Misranking]:
    worst: Optional[Misranking] = None
    for stream in streams:
        best: Optional[Dict[str, int]] = None
        best_cycles = float("inf")
        for attrs in stream:
            cycles = attrs.get("cycles")
            values = attrs.get("values", {})
            variant = variants.get(attrs.get("variant", ""))
            if cycles is None or variant is None:
                continue
            if best is not None and cycles < best_cycles:
                s_cand = surrogate.score(variant, values)
                s_best = surrogate.score(variant, best)
                if s_cand is not None and s_best and s_cand > s_best:
                    ratio = s_cand / s_best
                    if worst is None or ratio > worst.ratio:
                        worst = Misranking(
                            ratio=ratio,
                            variant=variant.name,
                            values=dict(values),
                            cycles=cycles,
                            best_values=dict(best),
                            best_cycles=best_cycles,
                        )
            if cycles < best_cycles:
                best, best_cycles = dict(values), cycles
    return worst


def _sweep(
    streams: List[List[Dict[str, Any]]],
    surrogate: Surrogate,
    variants: Mapping[str, Variant],
    margins: Sequence[float],
    total_sims: int,
) -> List[MarginPoint]:
    """Replay the prescreen offline at each margin.

    Mirrors the search's rule (docs/search.md): within each tiling
    stage, skip a simulation when ``score(candidate) > score(running
    best) * (1 + margin)``; a skipped candidate never becomes the
    running best; unscorable and already-cached candidates are never
    skipped.  ``avoided_frac`` is against *all* simulations of the
    search (the same denominator the bench's prescreen A/B uses), so
    the committed ≥25 % pruning floor reads directly off the curve.
    """
    points = []
    for margin in margins:
        skips = false_skips = 0
        for stream in streams:
            best: Optional[Dict[str, int]] = None
            best_cycles = float("inf")
            for attrs in stream:
                cycles = attrs.get("cycles")
                values = attrs.get("values", {})
                variant = variants.get(attrs.get("variant", ""))
                if variant is None:
                    continue
                skippable = attrs.get("source") == "sim"
                if best is not None and skippable:
                    s_cand = surrogate.score(variant, values)
                    s_best = surrogate.score(variant, best)
                    if (s_cand is not None and s_best is not None
                            and s_cand > s_best * (1.0 + margin)):
                        skips += 1
                        if cycles is not None and cycles < best_cycles:
                            false_skips += 1
                        continue  # skipped: never updates the best
                if cycles is not None and cycles < best_cycles:
                    best, best_cycles = dict(values), cycles
        points.append(MarginPoint(
            margin=margin,
            skips=skips,
            false_skips=false_skips,
            avoided_frac=skips / total_sims if total_sims else 0.0,
            risk=false_skips / skips if skips else 0.0,
        ))
    return points


def _audit(
    search: _SearchEvents,
    kernel,
    machine,
    problem: Mapping[str, int],
    variants: Mapping[str, Variant],
    sample: int,
    seed: int,
) -> AuditReport:
    """Re-simulate a seeded sample of the recorded prescreen skips.

    The comparison point is the running best *at skip time*: the lowest
    measured cycles among eval events in the same stage span emitted
    before the skip.  A skip is *false* when the re-simulated candidate
    beats that best — i.e. the margin failed to absorb the model error.
    """
    skips: List[Tuple[Dict[str, Any], Optional[float]]] = []
    best_by_stage: Dict[str, float] = {}
    for stage_span, stage, event in search.stream:
        attrs = event.get("attrs", {})
        if event.get("name") == "eval":
            cycles = attrs.get("cycles")
            if cycles is not None:
                prev = best_by_stage.get(stage_span)
                if prev is None or cycles < prev:
                    best_by_stage[stage_span] = cycles
        elif event.get("name") == "prescreen_skip":
            skips.append((attrs, best_by_stage.get(stage_span)))
    rng = random.Random(seed)
    if sample < len(skips):
        sampled = [skips[i] for i in sorted(rng.sample(range(len(skips)), sample))]
    else:
        sampled = list(skips)
    report = AuditReport(seed=seed, total_skips=len(skips),
                         sampled=len(sampled), false_skips=0)
    for attrs, best_cycles in sampled:
        variant = variants.get(attrs.get("variant", ""))
        values = dict(attrs.get("values", {}))
        cycles: Optional[float] = None
        if variant is not None:
            try:
                inst = instantiate(kernel, variant, values, machine)
                cycles = execute(inst, dict(problem), machine).cycles
            except Exception:
                cycles = None  # infeasible out-of-band: not a false skip
        false = (
            cycles is not None
            and best_cycles is not None
            and cycles < best_cycles
        )
        if false:
            report.false_skips += 1
        report.records.append(AuditRecord(
            variant=attrs.get("variant", ""),
            values=values,
            score=attrs.get("score", 0.0),
            bound=attrs.get("bound", 0.0),
            best_cycles=best_cycles,
            cycles=cycles,
            false_skip=false,
        ))
    return report


def analyze_trace(
    events: List[Dict[str, Any]],
    margins: Sequence[float] = DEFAULT_SWEEP_MARGINS,
    audit: int = 0,
    seed: int = 0,
    model=None,
) -> List[SearchAccuracy]:
    """Run the observatory over every search span in a trace.

    ``audit > 0`` re-simulates that many sampled prescreen skips per
    search (expensive: real simulations).  ``model`` (a
    :class:`repro.analysis.learned.LearnedRanker`) additionally scores
    the same measured points with the learned surrogate, side by side
    with the analytical one.  Everything else is offline re-scoring
    only.
    """
    import math

    out: List[SearchAccuracy] = []
    for search in _group_searches(events):
        kernel_name = search.attrs.get("kernel", "")
        machine_name = search.attrs.get("machine", "")
        problem = dict(search.attrs.get("problem", {}))
        kernel = get_kernel(kernel_name)
        machine = get_machine(machine_name)
        variants = {v.name: v for v in derive_variants(kernel, machine)}
        surrogate = Surrogate(kernel, machine, problem)
        ranker = None
        ranker_mismatch = None
        if model is not None:
            ranker_mismatch = model.mismatch(kernel_name, machine)
            if ranker_mismatch is None:
                ranker = model

        evals = [
            e.get("attrs", {}) for _, _, e in search.stream
            if e.get("name") == "eval"
        ]
        sims = sum(1 for a in evals if a.get("source") == "sim")
        # unique pure-tiling measured points for the rank correlation
        seen = set()
        scores: List[float] = []
        cycles_list: List[float] = []
        learned_scores: List[float] = []
        learned_cycles: List[float] = []
        learned_memo = 0
        tiling_candidates = 0
        for attrs in evals:
            if attrs.get("prefetch") or attrs.get("pads"):
                continue
            if attrs.get("cycles") is None:
                continue
            key = _values_key(attrs.get("variant", ""), attrs.get("values", {}))
            if key in seen:
                continue
            seen.add(key)
            tiling_candidates += 1
            variant = variants.get(attrs.get("variant", ""))
            if variant is None:
                continue
            if ranker is not None and attrs["cycles"] > 0:
                values = attrs.get("values", {})
                predicted = ranker.predict(
                    kernel, variant, values, problem, machine
                )
                if predicted is not None:
                    if ranker.memoized(variant, values, problem) is not None:
                        learned_memo += 1
                    learned_scores.append(predicted)
                    learned_cycles.append(math.log(attrs["cycles"]))
            score = surrogate.score(variant, attrs.get("values", {}))
            if score is None:
                continue
            scores.append(score)
            cycles_list.append(attrs["cycles"])

        learned_cmp: Optional[LearnedComparison] = None
        if model is not None:
            if ranker_mismatch is not None:
                learned_cmp = LearnedComparison(
                    fingerprint=model.fingerprint, scored=0, memo_hits=0,
                    spearman=None, mae_log_cycles=None,
                    mismatch=ranker_mismatch,
                )
            else:
                learned_errors = [
                    abs(p - m) for p, m in zip(learned_scores, learned_cycles)
                ]
                learned_cmp = LearnedComparison(
                    fingerprint=model.fingerprint,
                    scored=len(learned_scores),
                    memo_hits=learned_memo,
                    spearman=spearman(learned_scores, learned_cycles),
                    mae_log_cycles=(
                        sum(learned_errors) / len(learned_errors)
                        if learned_errors else None
                    ),
                )

        streams = _tiling_streams(search)
        result = SearchAccuracy(
            kernel=kernel_name,
            machine=machine_name,
            problem=problem,
            evals=len(evals),
            sims=sims,
            cache_hits=len(evals) - sims,
            tiling_candidates=tiling_candidates,
            scored=len(scores),
            spearman=spearman(scores, cycles_list),
            worst=_worst_misranking(streams, surrogate, variants),
            sweep=_sweep(streams, surrogate, variants, margins, sims),
            learned=learned_cmp,
        )
        if audit > 0:
            result.audit = _audit(
                search, kernel, machine, problem, variants, audit, seed
            )
        out.append(result)
    return out


def _fmt_values(values: Mapping[str, int]) -> str:
    return "{" + ", ".join(f"{k}={values[k]}" for k in sorted(values)) + "}"


def render_accuracy(analyses: List[SearchAccuracy]) -> str:
    """Deterministic text report (byte-stable for a given trace)."""
    lines: List[str] = []
    for a in analyses:
        problem = ", ".join(f"{k}={v}" for k, v in sorted(a.problem.items()))
        lines.append(f"model accuracy — {a.kernel} @ {a.machine} ({problem})")
        lines.append(
            f"  evaluations: {a.evals} ({a.sims} simulated, "
            f"{a.cache_hits} cache hits)"
        )
        lines.append(
            f"  tiling candidates: {a.tiling_candidates} unique measured, "
            f"{a.scored} scorable by the model"
        )
        if a.spearman is None:
            lines.append("  rank correlation (score vs cycles): n/a")
        else:
            lines.append(
                f"  rank correlation (score vs cycles): {a.spearman:+.4f}"
            )
        if a.learned is not None:
            lc = a.learned
            if lc.mismatch:
                lines.append(
                    f"  learned ranker {lc.fingerprint}: not applicable "
                    f"({lc.mismatch})"
                )
            elif lc.spearman is None:
                lines.append(
                    f"  learned ranker {lc.fingerprint}: n/a "
                    f"({lc.scored} scorable points)"
                )
            else:
                lines.append(
                    f"  learned ranker {lc.fingerprint}: rank correlation "
                    f"{lc.spearman:+.4f} over {lc.scored} points "
                    f"({lc.memo_hits} from the exact memo), "
                    f"mae(log cycles) {lc.mae_log_cycles:.4f}"
                )
        if a.worst is None:
            lines.append("  worst misranking: none observed")
        else:
            w = a.worst
            lines.append(
                f"  worst misranking: {w.ratio:.3f}x — {w.variant} "
                f"{_fmt_values(w.values)} measured {w.cycles:.1f}, beating "
                f"best {_fmt_values(w.best_values)} at {w.best_cycles:.1f}"
            )
            lines.append(
                f"    (margin must exceed {w.ratio - 1.0:.3f} to keep this "
                f"candidate; calibrated margin is {DEFAULT_MARGIN})"
            )
        if a.sweep:
            lines.append(
                "  margin sweep (offline replay of the tiling prescreen):"
            )
            lines.append(
                "    margin   skips   avoided   false-skips   risk"
            )
            for p in a.sweep:
                marker = "  <- default" if p.margin == DEFAULT_MARGIN else ""
                lines.append(
                    f"    {p.margin:>6.2f}   {p.skips:>5}   "
                    f"{p.avoided_frac:>6.1%}   {p.false_skips:>11}   "
                    f"{p.risk:>5.1%}{marker}"
                )
        if a.audit is not None:
            audit = a.audit
            if audit.total_skips == 0:
                lines.append(
                    "  prescreen audit: no prescreen skips recorded in trace"
                )
            else:
                lines.append(
                    f"  prescreen audit (seed {audit.seed}): re-simulated "
                    f"{audit.sampled}/{audit.total_skips} skips, "
                    f"{audit.false_skips} false ({audit.rate:.1%})"
                )
                for rec in audit.records:
                    if rec.cycles is None:
                        verdict = "infeasible out-of-band"
                    elif rec.false_skip:
                        verdict = (
                            f"FALSE SKIP: measured {rec.cycles:.1f} beats "
                            f"best {rec.best_cycles:.1f}"
                        )
                    elif rec.best_cycles is None:
                        verdict = f"measured {rec.cycles:.1f} (no best yet)"
                    else:
                        verdict = (
                            f"measured {rec.cycles:.1f} vs best "
                            f"{rec.best_cycles:.1f}: correct"
                        )
                    lines.append(
                        f"    {rec.variant} {_fmt_values(rec.values)} "
                        f"score {rec.score:.1f} > bound {rec.bound:.1f} — "
                        f"{verdict}"
                    )
        lines.append("")
    if not analyses:
        lines.append("no search spans found in trace")
        lines.append("")
    return "\n".join(lines)
