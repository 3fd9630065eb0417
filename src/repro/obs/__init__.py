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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "corpus": ("Corpus", "flatten_trace", "trace_id"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "reader": (
        "TraceLoad", "canonical", "convergence", "delta_totals", "eval_events", "read_trace",
        "span_nodes", "supervision_totals", "trace_meta",
    ),
    "report": ("render_convergence", "render_summary", "render_timeline", "to_chrome_trace"),
    "schema": (
        "SCHEMA_VERSION", "TIMING_ATTRS", "TIMING_FIELDS", "check_schema_version",
        "parse_schema_version", "validate_event",
    ),
    "tracer": ("NULL_TRACER", "NullTracer", "Span", "Tracer"),
})
