"""Trace loading and analysis: the read side of ``repro.obs``.

Turns a ``trace.jsonl`` back into structure: the span tree every trace
report walks (:func:`span_nodes`), the candidate-evaluation stream and
the best-so-far convergence curve the CLI renders (``repro trace
summary|timeline|convergence``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.schema import (
    TIMING_ATTRS,
    TIMING_FIELDS,
    check_schema_version,
    validate_event,
)

__all__ = [
    "read_trace",
    "TraceLoad",
    "canonical",
    "eval_events",
    "convergence",
    "supervision_totals",
    "pipeline_totals",
    "delta_totals",
    "span_nodes",
    "trace_meta",
    "SpanNode",
]


@dataclass
class TraceLoad:
    """A tolerantly loaded trace: events plus what loading had to forgive.

    ``skipped_lines`` counts lines that were not valid JSON objects (the
    signature of a crash-interrupted writer: the final line is torn mid-
    object); ``warnings`` carries non-fatal findings such as a newer
    schema minor.  Renderers surface both so a partial trace is never
    silently presented as a complete one.
    """

    path: str
    events: List[Dict[str, Any]] = field(default_factory=list)
    skipped_lines: int = 0
    warnings: List[str] = field(default_factory=list)

    @property
    def notices(self) -> List[str]:
        """What loading forgave, one line each, for a renderer to print."""
        notices = list(self.warnings)
        if self.skipped_lines:
            notices.append(
                f"skipped {self.skipped_lines} unreadable line(s) "
                f"(truncated or partially written trace)"
            )
        return notices


def read_trace(path, validate: bool = False) -> TraceLoad:
    """Read a JSONL trace, forgiving truncated/partially-written lines.

    A line that does not parse as a JSON object is *skipped and counted*
    (crash-interrupted traces legitimately end mid-line; refusing the
    whole file would make exactly the traces worth investigating
    unreadable).  The leading ``meta`` event's schema version is checked:
    a newer minor becomes a warning, an unknown major raises with a clear
    message (see :func:`repro.obs.schema.check_schema_version`).  With
    ``validate`` on, events are checked against the schema — the
    consecutive-``seq`` invariant is only enforced until the first
    skipped line, after which gaps are expected.
    """
    load = TraceLoad(path=str(path))
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                load.skipped_lines += 1
                continue
            if not isinstance(event, dict):
                load.skipped_lines += 1
                continue
            if validate:
                validate_event(
                    event,
                    seq=len(load.events) if load.skipped_lines == 0 else None,
                )
            load.events.append(event)
    meta = trace_meta(load.events)
    if "schema" in meta:
        warning = check_schema_version(meta["schema"])
        if warning is not None:
            load.warnings.append(warning)
    return load


def canonical(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Events with the non-deterministic timing fields removed.

    Two traces of the same search (any ``-j N``) are equal under this
    projection — the determinism contract of :mod:`repro.obs.tracer`.
    Pipeline metrics (``pipeline.*``) measure scheduling itself — depth,
    idle slots, speculation — so they exist only when a pool is in use;
    they are dropped here, and ``seq`` is renumbered over the surviving
    events so the projection stays comparable across job counts (at
    ``-j 1`` no pipeline metric is ever registered, so the renumbering
    is the identity there).  Timing-valued *attributes*
    (:data:`repro.obs.schema.TIMING_ATTRS`, e.g. an eval event's ``wall``
    seconds) are stripped the same way the ``ts``/``dur`` fields are.
    """
    kept = [
        event for event in events
        if not (event.get("type") == "metric"
                and str(event.get("name", "")).startswith("pipeline."))
    ]
    out = []
    for index, event in enumerate(kept):
        projected = {
            k: v for k, v in event.items() if k not in TIMING_FIELDS
        }
        if "seq" in projected:
            projected["seq"] = index
        attrs = projected.get("attrs")
        if isinstance(attrs, dict) and any(k in attrs for k in TIMING_ATTRS):
            attrs = {k: v for k, v in attrs.items() if k not in TIMING_ATTRS}
            if attrs:
                projected["attrs"] = attrs
            else:
                del projected["attrs"]
        out.append(projected)
    return out


def trace_meta(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Attributes of the leading ``meta`` event (empty if absent)."""
    for event in events:
        if event.get("type") == "meta":
            return dict(event.get("attrs", {}))
    return {}


def eval_events(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The candidate-evaluation stream, in emission (= input) order."""
    return [
        e for e in events if e.get("type") == "event" and e.get("name") == "eval"
    ]


def convergence(events: List[Dict[str, Any]]) -> List[Tuple[int, float, Dict[str, Any]]]:
    """Best-so-far curve: ``(evaluation index, cycles, attrs)`` at every
    strict improvement over the feasible candidate stream."""
    curve: List[Tuple[int, float, Dict[str, Any]]] = []
    best = math.inf
    for index, event in enumerate(eval_events(events)):
        attrs = event.get("attrs", {})
        cycles = attrs.get("cycles")
        if cycles is None:
            continue
        if cycles < best:
            best = cycles
            curve.append((index, cycles, attrs))
    return curve


#: supervision counters (docs/robustness.md), in reporting order
SUPERVISION_METRICS = (
    "eval.retries",
    "eval.timeouts",
    "eval.pool_restarts",
    "eval.pool_recycles",
    "eval.serial_fallbacks",
    "eval.transient_failures",
    "eval.corrupt_results",
    "eval.disk_write_failures",
)


def supervision_totals(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Non-zero supervision counters from the trace's metric snapshots.

    Snapshots are cumulative, so the last ``metric`` event per name wins.
    An empty dict means the run saw no retries, timeouts, pool trouble,
    exhausted candidates, corrupt results or disk-write failures.
    """
    return _last_snapshots(events, SUPERVISION_METRICS, keep_zeros=False)


def _last_snapshots(
    events: List[Dict[str, Any]], names: Tuple[str, ...], keep_zeros: bool
) -> Dict[str, Any]:
    """The last ``metric`` snapshot value of each of ``names``, in
    ``names`` order; zero values are dropped unless ``keep_zeros``."""
    latest: Dict[str, Any] = {}
    for event in events:
        if event.get("type") != "metric":
            continue
        name = event.get("name")
        if name in names:
            latest[name] = event.get("attrs", {}).get("value", 0)
    return {
        name: latest[name]
        for name in names
        if name in latest and (keep_zeros or latest[name])
    }


#: delta-evaluation counters (docs/search.md), in reporting order
DELTA_METRICS = (
    "eval.full_sims",
    "eval.delta_sims",
)


def delta_totals(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Full-vs-delta simulation split from the metric snapshots.

    Same cumulative-snapshot convention as :func:`supervision_totals`.
    ``eval.delta_sims`` counts simulations whose trace signature matched
    an earlier candidate (prefetch/pad-only delta: the transform front
    end was shared, only prefetch insertion + padding + simulation ran);
    ``eval.full_sims`` counts the rest.  Empty when the trace predates
    delta evaluation or saw no simulations.
    """
    return _last_snapshots(events, DELTA_METRICS, keep_zeros=True)


#: pipeline-scheduling counters (docs/search.md), in reporting order
PIPELINE_METRICS = (
    "pipeline.max_in_flight",
    "pipeline.speculative_submits",
    "pipeline.speculative_parked",
    "pipeline.idle_slot_seconds",
    "eval.prescreen_skips",
    "eval.ranker_skips",
)


def pipeline_totals(events: List[Dict[str, Any]]) -> Dict[str, float]:
    """Non-zero pipeline/prescreen counters from the metric snapshots.

    Same cumulative-snapshot convention as :func:`supervision_totals`.
    An empty dict means the run never overlapped work (``-j 1``) and
    skipped nothing via the model prescreen.
    """
    return _last_snapshots(events, PIPELINE_METRICS, keep_zeros=False)


@dataclass
class SpanNode:
    """One reconstructed span: its children in emission order, its
    parent, and the ``eval`` events emitted directly inside it."""

    id: str
    name: str
    begin: Dict[str, Any]
    end: Optional[Dict[str, Any]] = None
    children: List["SpanNode"] = field(default_factory=list)
    parent: Optional["SpanNode"] = field(default=None, repr=False, compare=False)
    evals: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def attrs(self) -> Dict[str, Any]:
        merged = dict(self.begin.get("attrs", {}))
        if self.end:
            merged.update(self.end.get("attrs", {}))
        return merged

    @property
    def start_ts(self) -> float:
        return self.begin.get("ts", 0.0)

    @property
    def dur(self) -> float:
        return self.end.get("dur", 0.0) if self.end else 0.0

    def walk(self, skip: str = "") -> Iterator["SpanNode"]:
        """This span and its descendants in begin order, leaving out
        every subtree rooted at a span named ``skip``."""
        yield self
        for child in self.children:
            if child.name != skip:
                yield from child.walk(skip)

    def enclosing(self, name: str) -> Optional["SpanNode"]:
        """The innermost span named ``name`` among this one and its
        ancestors."""
        node: Optional[SpanNode] = self
        while node is not None and node.name != name:
            node = node.parent
        return node


def span_nodes(events: List[Dict[str, Any]]) -> List[SpanNode]:
    """Rebuild the span tree; returns the top-level spans.

    A span whose parent never began (a cut trace) becomes a top-level
    span; an ``eval`` event outside every known span belongs to none.
    """
    nodes: Dict[str, SpanNode] = {}
    roots: List[SpanNode] = []
    for event in events:
        etype = event.get("type")
        if etype == "span_begin":
            parent = nodes.get(event.get("parent"))
            node = SpanNode(event["span"], event["name"], event, parent=parent)
            nodes[node.id] = node
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif etype == "span_end":
            node = nodes.get(event.get("span"))
            if node is not None:
                node.end = event
        elif etype == "event" and event.get("name") == "eval":
            node = nodes.get(event.get("span"))
            if node is not None:
                node.evals.append(event)
    return roots
