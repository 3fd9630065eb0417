"""Trace renderers behind ``repro trace summary|timeline|convergence``
plus the Chrome-trace (``chrome://tracing`` / Perfetto) export.

``repro trace summary`` is the search-cost report: where did a search's
wall time go?  After the evaluation totals it prints, per ``search``
span, an attribution table assembled from the stage spans and the
per-eval ``wall`` attribute (schema 1.1): for each stage, its wall
seconds, the eval wall inside it (time settling results), the remainder
(candidate generation, model judging, bookkeeping), plus sims/hits and
simulated machine time.  An ``(unattributed)`` row carries the search
wall outside every stage span, so the rows sum to the search span's
duration.  Stage spans outside any search (the baselines' own stages)
get one more table, and a self-time report (every span's duration minus
its children's, aggregated by label and drawn as a proportional bar)
flattens the whole span tree into text.  Traces older than schema 1.1
(by their ``meta`` event's ``schema``) have no ``wall`` eval attribute;
the eval/other columns degrade to ``-``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.reader import (
    SpanNode,
    convergence,
    delta_totals,
    eval_events,
    pipeline_totals,
    span_nodes,
    supervision_totals,
    trace_meta,
)
from repro.obs.schema import parse_schema_version

__all__ = [
    "SearchProfile",
    "StageProfile",
    "render_summary",
    "render_timeline",
    "render_convergence",
    "search_profiles",
    "self_times",
    "stage_profiles",
    "to_chrome_trace",
]


_NO_EVALS = (
    "no evaluations recorded (fully warm-cache search, or the trace was "
    "cut before any candidate ran)"
)


def _has_eval_walls(events: List[Dict[str, Any]]) -> bool:
    """Whether the trace's schema records per-eval ``wall`` attrs (1.1+;
    a trace with no readable version is taken as 1.0)."""
    try:
        version = parse_schema_version(trace_meta(events).get("schema", 1))
    except ValueError:
        return False
    return version >= (1, 1)


def _meta_line(events: List[Dict[str, Any]]) -> str:
    meta = trace_meta(events)
    interesting = {k: v for k, v in meta.items() if k != "schema"}
    if not interesting:
        return "trace"
    return "trace: " + ", ".join(f"{k}={v}" for k, v in interesting.items())


@dataclass
class StageProfile:
    """Aggregated cost of every stage span sharing one stage name."""

    name: str
    spans: int = 0
    wall: float = 0.0             # sum of stage span durations
    eval_wall: float = 0.0        # sum of eval ``wall`` attrs inside them
    evals: int = 0
    sims: int = 0
    cache_hits: int = 0
    machine_seconds: float = 0.0  # simulated machine time of the sims

    @property
    def overhead(self) -> float:
        """Stage wall not spent settling results (generation, judging)."""
        return max(0.0, self.wall - self.eval_wall)


def stage_profiles(nodes: Iterable[SpanNode]) -> List[StageProfile]:
    """Aggregate the ``stage`` spans among ``nodes`` by stage name, in
    first-seen order: span durations plus the eval events directly
    inside each span."""
    stages: Dict[str, StageProfile] = {}
    for node in nodes:
        if node.name != "stage":
            continue
        name = node.attrs.get("stage", node.id)
        stage = stages.setdefault(name, StageProfile(name))
        stage.spans += 1
        stage.wall += node.dur
        for event in node.evals:
            attrs = event.get("attrs", {})
            stage.evals += 1
            if attrs.get("source") == "sim":
                stage.sims += 1
                stage.machine_seconds += attrs.get("machine_seconds") or 0.0
            else:
                stage.cache_hits += 1
            stage.eval_wall += attrs.get("wall", 0.0)
    return list(stages.values())


@dataclass
class SearchProfile:
    """Wall-time attribution of one search span."""

    kernel: str
    machine: str
    problem: Dict[str, int]
    wall: float                   # the search span's duration
    stages: List[StageProfile] = field(default_factory=list)
    outside_eval_wall: float = 0.0  # eval walls not inside any stage span

    @property
    def attributed(self) -> float:
        return sum(s.wall for s in self.stages) + self.outside_eval_wall

    @property
    def unattributed(self) -> float:
        """Search wall outside every stage span (scheduling, screening
        bookkeeping, span overhead).  Can only go negative by clock
        skew; clamped in the render, kept raw here."""
        return self.wall - self.attributed


def search_profiles(roots: List[SpanNode]) -> List[SearchProfile]:
    """Per-search wall attribution for every search span in the tree."""
    profiles: List[SearchProfile] = []
    for root in roots:
        for search in root.walk():
            if search.name != "search":
                continue
            attrs = search.attrs
            profiles.append(SearchProfile(
                kernel=attrs.get("kernel", ""),
                machine=attrs.get("machine", ""),
                problem=dict(attrs.get("problem", {})),
                wall=search.dur,
                stages=stage_profiles(search.walk()),
                outside_eval_wall=sum(
                    event.get("attrs", {}).get("wall", 0.0)
                    for node in search.walk("stage")
                    for event in node.evals
                ),
            ))
    return profiles


def self_times(roots: List[SpanNode]) -> List[Tuple[str, float, int]]:
    """``(label, self seconds, spans)`` aggregated over the span tree,
    descending by self time.  Self time = duration minus children's."""
    totals: Dict[str, List[float]] = {}
    for root in roots:
        for node in root.walk():
            attrs = node.attrs
            if node.name == "stage" and "stage" in attrs:
                label = f"stage:{attrs['stage']}"
            elif node.name == "variant" and "variant" in attrs:
                label = "variant (between stages)"
            else:
                label = node.name
            row = totals.setdefault(label, [0.0, 0])
            row[0] += max(0.0, node.dur - sum(c.dur for c in node.children))
            row[1] += 1
    return sorted(
        ((label, wall, count) for label, (wall, count) in totals.items()),
        key=lambda item: (-item[1], item[0]),
    )


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def _stage_table(
    stages: List[StageProfile], total: Optional[float], has_eval_walls: bool
) -> List[str]:
    """Header plus one row per stage; ``share`` is of ``total`` seconds
    (``-`` when the stages have no enclosing wall to share)."""
    lines = [
        f"  {'stage':<16} {'spans':>5} {'evals':>5} {'sims':>5} "
        f"{'hits':>5}  {'wall s':>8}  {'share':>6}  {'eval s':>8}  "
        f"{'other s':>8}  {'machine ms':>10}"
    ]
    for stage in stages:
        share = f"{stage.wall / total:>6.1%}" if total else f"{'-':>6}"
        eval_col = f"{stage.eval_wall:8.3f}" if has_eval_walls else f"{'-':>8}"
        other_col = f"{stage.overhead:8.3f}" if has_eval_walls else f"{'-':>8}"
        lines.append(
            f"  {stage.name:<16} {stage.spans:>5} {stage.evals:>5} "
            f"{stage.sims:>5} {stage.cache_hits:>5}  {stage.wall:8.3f}  "
            f"{share}  {eval_col}  {other_col}  "
            f"{stage.machine_seconds * 1e3:10.3f}"
        )
    return lines


def _search_block(profile: SearchProfile, has_eval_walls: bool) -> List[str]:
    problem = ", ".join(f"{k}={v}" for k, v in sorted(profile.problem.items()))
    total = profile.wall or 1.0
    lines = [
        "",
        f"search profile — {profile.kernel} @ {profile.machine} ({problem})",
        f"  search wall: {profile.wall:.3f} s",
        "",
        *_stage_table(profile.stages, total, has_eval_walls),
    ]
    if profile.outside_eval_wall > 0:
        lines.append(
            f"  {'(outside stages)':<16} {'':>5} {'':>5} {'':>5} {'':>5}  "
            f"{profile.outside_eval_wall:8.3f}  "
            f"{profile.outside_eval_wall / total:>6.1%}"
        )
    unattributed = max(0.0, profile.unattributed)
    lines.append(
        f"  {'(unattributed)':<16} {'':>5} {'':>5} {'':>5} {'':>5}  "
        f"{unattributed:8.3f}  {unattributed / total:>6.1%}"
    )
    covered = profile.attributed + unattributed
    lines.append(
        f"  rows sum to {covered:.3f} s of {profile.wall:.3f} s search "
        f"wall ({covered / total:.1%})"
    )
    if not has_eval_walls:
        lines.append(
            "  (trace predates schema 1.1: no per-eval wall attrs; "
            "eval/other columns unavailable)"
        )
    return lines


def render_summary(
    events: List[Dict[str, Any]], notices: Sequence[str] = ()
) -> str:
    """The search-cost report: evaluation totals, one wall attribution
    per search span, the stages outside any search, and self times.

    ``notices`` (:attr:`repro.obs.reader.TraceLoad.notices`) are
    surfaced up front so a truncated or newer-schema trace is never
    presented as a clean one.
    """
    evals = eval_events(events)
    sims = [e for e in evals if e["attrs"].get("source") == "sim"]
    hits = [e for e in evals if e["attrs"].get("source") in ("memory", "disk")]
    feasible = [e for e in evals if e["attrs"].get("cycles") is not None]
    machine_s = sum(e["attrs"].get("machine_seconds", 0.0) for e in sims)
    lines = [_meta_line(events)]
    lines += [f"warning: {notice}" for notice in notices]
    if not evals:
        lines.append(_NO_EVALS)
    lines += [
        f"evaluations: {len(evals)} ({len(sims)} simulated, {len(hits)} cached, "
        f"{len(evals) - len(feasible)} infeasible)",
        f"simulated machine time: {machine_s * 1e3:.3f} ms",
    ]
    sim_acc = sum(e["attrs"].get("sim", {}).get("accesses", 0) for e in sims)
    if sim_acc:
        collapsed = sum(
            e["attrs"].get("sim", {}).get("collapsed", 0) for e in sims
        )
        timing = sum(
            e["attrs"].get("sim", {}).get("timing_events", 0) for e in sims
        )
        lines.append(
            f"simulator accesses: {sim_acc:,} "
            f"({collapsed:,} collapsed, {timing:,} timing events replayed)"
        )
    delta = delta_totals(events)
    if delta:
        full = int(delta.get("eval.full_sims", 0))
        shared = int(delta.get("eval.delta_sims", 0))
        total = full + shared
        share = 100.0 * shared / total if total else 0.0
        lines.append(
            f"delta evaluation: {full:,} full + {shared:,} delta sims "
            f"({share:.1f}% shared a transform front end)"
        )
    recovery = supervision_totals(events)
    if recovery:
        lines.append(
            "supervision: "
            + ", ".join(
                f"{name.removeprefix('eval.')}={value}"
                for name, value in recovery.items()
            )
        )
    pipeline = pipeline_totals(events)
    if pipeline:
        lines.append(
            "pipeline: "
            + ", ".join(
                f"{name.split('.', 1)[1]}="
                + (f"{value:.3f}" if isinstance(value, float) else str(value))
                for name, value in pipeline.items()
            )
        )
    curve = convergence(events)
    if curve:
        index, cycles, attrs = curve[-1]
        lines.append(
            f"best: {cycles:,.1f} cycles at evaluation {index} "
            f"({attrs.get('variant', '?')} {attrs.get('values', {})})"
        )
    roots = span_nodes(events)
    has_eval_walls = _has_eval_walls(events)
    for profile in search_profiles(roots):
        lines += _search_block(profile, has_eval_walls)
    outside = stage_profiles(
        node for root in roots if root.name != "search"
        for node in root.walk("search")
    )
    if outside:
        lines += [
            "",
            "stages outside any search span:",
            *_stage_table(outside, None, has_eval_walls),
        ]
    rows = self_times(roots)
    if rows:
        lines.append("")
        lines.append("self time (span duration minus children, whole trace):")
        total_self = sum(wall for _, wall, _ in rows) or 1.0
        for label, wall, count in rows:
            lines.append(
                f"  {label:<24} {wall:8.3f} s  {wall / total_self:>6.1%} "
                f"|{_bar(wall / total_self)}|  {count} span(s)"
            )
    return "\n".join(lines)


def _timeline_rows(node: SpanNode, depth: int, rows: List) -> None:
    rows.append((depth, node))
    for child in node.children:
        _timeline_rows(child, depth + 1, rows)


def render_timeline(events: List[Dict[str, Any]], width: int = 40) -> str:
    """Indented span tree with proportional wall-time bars."""
    roots = span_nodes(events)
    rows: List = []
    for root in roots:
        _timeline_rows(root, 0, rows)
    if not rows:
        return "(no spans)"
    end = max((n.start_ts + n.dur for _, n in rows), default=0.0) or 1.0
    lines = [_meta_line(events)]
    for depth, node in rows:
        label = node.name
        attrs = node.attrs
        key = {"stage": "stage", "variant": "variant"}.get(node.name, "kernel")
        if key in attrs:
            label = f"{node.name}:{attrs[key]}"
        offset = int(width * node.start_ts / end)
        length = max(1, int(width * node.dur / end))
        bar = " " * offset + "#" * min(length, width - offset)
        lines.append(
            f"{'  ' * depth}{label:<{max(2, 28 - 2 * depth)}} "
            f"{node.dur * 1e3:9.2f} ms |{bar:<{width}}|"
        )
    return "\n".join(lines)


def render_convergence(events: List[Dict[str, Any]], width: int = 50) -> str:
    """Best-so-far curve over the candidate-evaluation stream."""
    curve = convergence(events)
    total = len(eval_events(events))
    if total == 0:
        return f"{_meta_line(events)}\n{_NO_EVALS}"
    if not curve:
        return "(no feasible evaluations)"
    worst = curve[0][1]
    best = curve[-1][1]
    span = worst - best or 1.0
    lines = [
        _meta_line(events),
        f"{len(curve)} improvements over {total} evaluations "
        f"({worst:,.1f} -> {best:,.1f} cycles, "
        f"{100 * (worst - best) / worst:.1f}% better)",
        "",
        f"{'eval':>6}  {'cycles':>14}  {'variant':<12} improvement",
    ]
    for index, cycles, attrs in curve:
        bar = "#" * (1 + int((width - 1) * (worst - cycles) / span))
        lines.append(
            f"{index:6d}  {cycles:14,.1f}  {attrs.get('variant', '?'):<12} |{bar}"
        )
    return "\n".join(lines)


def to_chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome-trace JSON (load in ``chrome://tracing`` or Perfetto).

    Spans become complete (``ph: "X"``) events; candidate evaluations and
    metrics become instant (``ph: "i"``) events.  Timestamps are in
    microseconds, as the format requires.
    """
    trace_events: List[Dict[str, Any]] = []
    begin_ts: Dict[str, float] = {}
    for event in events:
        etype = event.get("type")
        attrs = event.get("attrs", {})
        if etype == "span_begin":
            begin_ts[event["span"]] = event.get("ts", 0.0)
        elif etype == "span_end":
            start = begin_ts.get(event.get("span"), 0.0)
            trace_events.append(
                {
                    "name": event["name"],
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": event.get("dur", 0.0) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": _json_safe(attrs),
                }
            )
        elif etype in ("event", "metric"):
            trace_events.append(
                {
                    "name": event["name"],
                    "ph": "i",
                    "s": "t",
                    "ts": event.get("ts", 0.0) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": _json_safe(attrs),
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value
