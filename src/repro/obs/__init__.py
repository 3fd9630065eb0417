"""repro.obs — observability for the empirical search.

Three pieces (see ``docs/observability.md``):

* :mod:`repro.obs.tracer` — span-based tracing (optimizer → search →
  variant → stage → candidate evaluation) emitted as deterministic JSONL;
  :data:`~repro.obs.tracer.NULL_TRACER` is the zero-cost default;
* :mod:`repro.obs.metrics` — counters / gauges / histograms every search
  component reports into;
* :mod:`repro.obs.reader` / :mod:`repro.obs.report` — the trace
  toolchain behind ``repro trace summary|timeline|convergence|chrome``:
  the reader rebuilds the one span tree every report walks, and
  ``summary`` is the search-cost report (per-stage wall attribution
  that sums to each search's wall, plus self times);
* :mod:`repro.obs.corpus` — the content-addressed trace corpus and its
  flattened per-candidate table (``repro corpus ...``).
"""

from repro.obs.corpus import Corpus, flatten_trace, trace_id
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.reader import (
    TraceLoad,
    canonical,
    convergence,
    delta_totals,
    eval_events,
    read_trace,
    span_nodes,
    supervision_totals,
    trace_meta,
)
from repro.obs.report import (
    render_convergence,
    render_summary,
    render_timeline,
    to_chrome_trace,
)
from repro.obs.schema import (
    SCHEMA_VERSION,
    TIMING_ATTRS,
    TIMING_FIELDS,
    check_schema_version,
    parse_schema_version,
    validate_event,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "TIMING_ATTRS",
    "validate_event",
    "parse_schema_version",
    "check_schema_version",
    "read_trace",
    "TraceLoad",
    "canonical",
    "eval_events",
    "convergence",
    "supervision_totals",
    "delta_totals",
    "span_nodes",
    "trace_meta",
    "render_summary",
    "render_timeline",
    "render_convergence",
    "to_chrome_trace",
    "Corpus",
    "flatten_trace",
    "trace_id",
]

